#include "core/thread_pool.h"

namespace astral::core {

ThreadPool::ThreadPool(int lanes) : lanes_(lanes < 1 ? 1 : lanes) {
  workers_.reserve(static_cast<std::size_t>(lanes_ - 1));
  for (int i = 1; i < lanes_; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_job(std::size_t n, InvokeFn invoke, void* ctx) {
  if (n == 0) return;
  if (lanes_ == 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) invoke(ctx, i);
    return;
  }

  {
    std::unique_lock<std::mutex> lk(mutex_);
    // A worker that joined the previous job may still be about to take
    // an index from its cursor after the last item completed; the cursor
    // must not be rewound under it.
    idle_.wait(lk, [this] { return active_workers_ == 0; });
    next_.store(0);
    items_left_.store(n, std::memory_order_release);
    n_ = n;
    invoke_ = invoke;
    ctx_ = ctx;
    ++generation_;
  }
  wake_.notify_all();

  work(n, invoke, ctx);

  // Another lane may still be executing the last item it took; the job
  // is complete when every lane has banked its executed count.
  std::size_t left;
  while ((left = items_left_.load(std::memory_order_acquire)) != 0) {
    items_left_.wait(left, std::memory_order_acquire);
  }
}

void ThreadPool::work(std::size_t n, InvokeFn invoke, void* ctx) {
  std::size_t executed = 0;
  for (std::size_t item; (item = next_.fetch_add(1)) < n;) {
    invoke(ctx, item);
    ++executed;
  }
  if (executed > 0 &&
      items_left_.fetch_sub(executed, std::memory_order_acq_rel) == executed) {
    items_left_.notify_all();
  }
}

void ThreadPool::worker_main() {
  std::uint64_t seen = 0;
  while (true) {
    std::size_t n;
    InvokeFn invoke;
    void* ctx;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      wake_.wait(lk, [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
      n = n_;
      invoke = invoke_;
      ctx = ctx_;
      ++active_workers_;
    }
    work(n, invoke, ctx);
    {
      std::lock_guard<std::mutex> lk(mutex_);
      --active_workers_;
      if (active_workers_ == 0) idle_.notify_one();
    }
  }
}

}  // namespace astral::core
