// core::ThreadPool: the shared-cursor parallel_for under the sharded
// max-min solver. The contract under test: every item in [0, n) runs
// exactly once, back-to-back jobs never bleed into each other (the
// straggler hazard), and a single-lane pool runs inline without spawning
// threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <thread>
#include <vector>

#include "core/thread_pool.h"

namespace astral::core {
namespace {

TEST(ThreadPool, SingleLaneRunsInlineInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.lanes(), 1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for(100, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, LanesClampedToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.lanes(), 1);
  ThreadPool neg(-3);
  EXPECT_EQ(neg.lanes(), 1);
}

TEST(ThreadPool, EveryItemRunsExactlyOnce) {
  for (int lanes : {2, 4, 8}) {
    ThreadPool pool(lanes);
    constexpr std::size_t kItems = 10000;
    std::vector<std::atomic<int>> hits(kItems);
    pool.parallel_for(kItems, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "item " << i << " lanes " << lanes;
    }
  }
}

TEST(ThreadPool, EmptyAndSingleItemJobs) {
  ThreadPool pool(4);
  int ran = 0;
  pool.parallel_for(0, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran, 0);
  const auto caller = std::this_thread::get_id();
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);  // n == 1 runs inline.
    ++ran;
  });
  EXPECT_EQ(ran, 1);
}

// Uneven per-item cost: the first quarter of the items is slow, so the
// lanes that draw them fall behind while the others take the rest.
TEST(ThreadPool, SharedCursorCoversSkewedWork) {
  ThreadPool pool(4);
  constexpr std::size_t kItems = 64;
  std::vector<std::atomic<int>> hits(kItems);
  std::atomic<long long> checksum{0};
  pool.parallel_for(kItems, [&](std::size_t i) {
    if (i < kItems / 4) {
      volatile long long sink = 0;
      for (int k = 0; k < 200000; ++k) sink = sink + k;
      checksum.fetch_add(sink, std::memory_order_relaxed);
    }
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kItems; ++i) ASSERT_EQ(hits[i].load(), 1);
}

// Back-to-back jobs with different callables: no item from job k may run
// with job k+1's body (the cross-generation straggler hazard).
TEST(ThreadPool, BackToBackJobsDoNotBleed) {
  ThreadPool pool(4);
  constexpr int kJobs = 200;
  constexpr std::size_t kItems = 257;
  for (int j = 0; j < kJobs; ++j) {
    std::atomic<long long> sum{0};
    pool.parallel_for(kItems, [&sum, j](std::size_t i) {
      sum.fetch_add(j * 1000 + static_cast<long long>(i),
                    std::memory_order_relaxed);
    });
    const long long items_sum =
        static_cast<long long>(kItems * (kItems - 1)) / 2;
    ASSERT_EQ(sum.load(), static_cast<long long>(j) * 1000 * kItems + items_sum)
        << "job " << j;
  }
}

TEST(ThreadPool, MoreLanesThanItems) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace astral::core
