#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/thread_pool.h"

namespace gpc {
namespace {

TEST(Rng, IsDeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    EXPECT_NE(va, c.next_u64());  // astronomically unlikely to collide
  }
}

TEST(Rng, FloatRangesHold) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const float f = r.next_float();
    EXPECT_GE(f, 0.0f);
    EXPECT_LT(f, 1.0f);
    const float g = r.next_float(-2.0f, 3.0f);
    EXPECT_GE(g, -2.0f);
    EXPECT_LT(g, 3.0f);
    const auto b = r.next_below(17);
    EXPECT_LT(b, 17u);
  }
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, CountsTheCallingThreadAmongItsThreads) {
  // ThreadPool(N) is N threads in total: N - 1 workers plus the caller,
  // which runs indices as slot 0.
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.slots(), 4u);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnceAtEveryCount) {
  ThreadPool pool(4);
  for (std::size_t count = 1; count <= 257; ++count) {
    std::vector<std::atomic<int>> hits(count);
    std::atomic<bool> slot_in_range{true};
    pool.parallel_for_slotted(count, [&](std::size_t slot, std::size_t i) {
      if (slot >= pool.slots()) slot_in_range = false;
      hits[i]++;
    });
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " of " << count;
    }
    EXPECT_TRUE(slot_in_range.load()) << count;
  }
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   100,
                   [&](std::size_t i) {
                     if (i == 57) throw InvalidArgument("boom");
                   }),
               InvalidArgument);
}

namespace {
bool spin_until(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!flag.load(std::memory_order_relaxed)) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}
}  // namespace

TEST(ThreadPool, CancelSkipsUnclaimedChunks) {
  // The first exception cancels the batch: indices not yet claimed are
  // skipped (they still count toward completion), so a faulting launch
  // stops the grid instead of grinding through every remaining block.
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  std::atomic<bool> sibling_started{false};
  std::atomic<bool> cancel_seen{false};
  const std::size_t count = 1 << 16;
  EXPECT_THROW(
      pool.parallel_for(count,
                        [&](std::size_t i) {
                          executed.fetch_add(1, std::memory_order_relaxed);
                          if (i == 0) {
                            // Wait for a sibling chunk to be genuinely in
                            // flight so the cancel races with real work.
                            spin_until(sibling_started);
                            throw DeviceFault("block 0 faulted");
                          }
                          // Hold this index open until the cancel flag
                          // arrives, keeping the remaining ones unclaimed
                          // when the batch is cancelled.
                          sibling_started.store(true,
                                                std::memory_order_relaxed);
                          const auto deadline =
                              std::chrono::steady_clock::now() +
                              std::chrono::seconds(5);
                          while (!ThreadPool::cancelled() &&
                                 std::chrono::steady_clock::now() < deadline) {
                            std::this_thread::yield();
                          }
                          if (ThreadPool::cancelled()) {
                            cancel_seen.store(true, std::memory_order_relaxed);
                          }
                        }),
      DeviceFault);
  // The thrower plus the handful of bodies in flight when the cancel hit;
  // everything else — tens of thousands of indices — was skipped.
  EXPECT_LT(executed.load(), 64)
      << "cancellation did not skip unclaimed chunks";
  EXPECT_TRUE(cancel_seen.load()) << "in-flight body never saw cancelled()";
}

TEST(ThreadPool, BodyCanPollCancellation) {
  ThreadPool pool(2);
  std::atomic<bool> observed{false};
  std::atomic<bool> partner_running{false};
  EXPECT_THROW(
      pool.parallel_for(1024,
                        [&](std::size_t i) {
                          if (i == 0) {
                            spin_until(partner_running);
                            throw DeviceFault("boom");
                          }
                          partner_running.store(true,
                                                std::memory_order_relaxed);
                          const auto deadline =
                              std::chrono::steady_clock::now() +
                              std::chrono::seconds(5);
                          while (!ThreadPool::cancelled() &&
                                 std::chrono::steady_clock::now() < deadline) {
                            std::this_thread::yield();
                          }
                          if (ThreadPool::cancelled()) {
                            observed.store(true, std::memory_order_relaxed);
                          }
                        }),
      DeviceFault);
  EXPECT_TRUE(observed.load());
}

TEST(ThreadPool, CancelledIsFalseOutsideABatch) {
  EXPECT_FALSE(ThreadPool::cancelled());
  ThreadPool pool(2);
  pool.parallel_for(16, [&](std::size_t) {
    EXPECT_FALSE(ThreadPool::cancelled());
  });
  EXPECT_FALSE(ThreadPool::cancelled());
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 0u);  // no spawned workers
  EXPECT_EQ(pool.slots(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  int sum = 0;
  bool inline_only = true;
  pool.parallel_for_slotted(10, [&](std::size_t slot, std::size_t i) {
    inline_only = inline_only && slot == 0 &&
                  std::this_thread::get_id() == caller;
    sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum, 45);
  EXPECT_TRUE(inline_only);
}

TEST(TextTable, FormatsAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1.0"});
  t.add_row({"b", "22.5"});
  const std::string s = t.to_string("Title");
  EXPECT_NE(s.find("Title"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1.0   |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 22.5  |"), std::string::npos);
}

TEST(TextTable, RejectsMismatchedRowWidth) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(Errors, CheckMacroThrowsInternalError) {
  EXPECT_THROW(GPC_CHECK(false, "context"), InternalError);
  EXPECT_NO_THROW(GPC_CHECK(true));
  EXPECT_THROW(GPC_REQUIRE(false, "bad arg"), InvalidArgument);
}

}  // namespace
}  // namespace gpc
