// Reusable thread pool for solver-side parallelism: a plain parallel_for.
//
// The pool exists for compute kernels inside the simulator itself — the
// sharded max-min solver today, fleet campaigns and topology-zoo sweeps
// tomorrow — not for I/O. Design constraints, in order:
//
//   * Determinism-friendly: parallel_for(n, fn) invokes fn(i) for every i
//     in [0, n) exactly once; which thread runs which item is
//     scheduling-dependent, so callers keep results deterministic by
//     writing to per-item state only.
//   * Zero steady-state allocation: parallel_for type-erases the callable
//     on the stack (no std::function), and a job is one cursor and one
//     completion count.
//   * lanes() == 1 degenerates to a plain loop on the caller's thread —
//     no worker threads are spawned at all, so single-threaded builds and
//     TSAN baselines pay nothing. A one-item job also runs inline.
//
// Work distribution is one shared atomic cursor: the caller and every
// worker take the next item with a fetch_add until the cursor passes n,
// so a lane that draws cheap items simply takes more of them.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace astral::core {

class ThreadPool {
 public:
  /// Spawns `lanes - 1` workers; the calling thread is the remaining
  /// lane. lanes < 1 is clamped to 1.
  explicit ThreadPool(int lanes);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int lanes() const { return lanes_; }

  /// Runs fn(item) for every item in [0, n); blocks until all items
  /// completed. Items must not throw and must touch disjoint mutable
  /// state. Reentrant calls from inside fn are not allowed.
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn) {
    auto invoke = +[](void* ctx, std::size_t item) {
      (*static_cast<std::remove_reference_t<Fn>*>(ctx))(item);
    };
    run_job(n, invoke, &fn);
  }

 private:
  using InvokeFn = void (*)(void* ctx, std::size_t item);

  void run_job(std::size_t n, InvokeFn invoke, void* ctx);
  /// Takes and runs items until the cursor passes n. The job is passed
  /// explicitly (snapshotted per generation under mutex_) so a lane can
  /// never mix one job's items with another job's callable.
  void work(std::size_t n, InvokeFn invoke, void* ctx);
  void worker_main();

  int lanes_ = 1;
  std::vector<std::thread> workers_;

  // Current job, published under mutex_ before generation_ bumps.
  std::size_t n_ = 0;
  InvokeFn invoke_ = nullptr;
  void* ctx_ = nullptr;
  std::atomic<std::size_t> next_{0};  ///< Next unclaimed item.
  std::atomic<std::size_t> items_left_{0};

  std::mutex mutex_;
  std::condition_variable wake_;  ///< Workers park here between jobs.
  std::condition_variable idle_;  ///< run_job waits here for stragglers.
  std::uint64_t generation_ = 0;  ///< Bumps per job; workers wait on it.
  int active_workers_ = 0;  ///< Workers currently inside work() (mutex_).
  bool stopping_ = false;
};

}  // namespace astral::core
