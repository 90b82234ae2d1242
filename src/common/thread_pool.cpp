#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "common/config.h"
#include "common/error.h"

namespace gpc {

namespace {

// Slot of the current thread: 0 for any non-worker thread, 1..N inside a
// worker. Nested parallel_for calls from inside a body run inline under
// this slot (parallelising them would deadlock the fixed-size pool).
thread_local std::size_t tls_slot = 0;
thread_local bool tls_in_parallel = false;
// Cancellation flag of the batch the current thread is executing, so
// ThreadPool::cancelled() can be polled from inside long-running bodies.
thread_local const std::atomic<bool>* tls_cancel = nullptr;

}  // namespace

struct ThreadPool::Batch {
  // The claim and completion counters sit on their own cache lines: every
  // index bumps `next`, every thread bumps `done` once per batch.
  alignas(64) std::atomic<std::size_t> next{0};
  alignas(64) std::atomic<std::size_t> done{0};
  // Set by the first index that throws. Indices not yet claimed are then
  // skipped (they never run), and bodies may poll it via
  // ThreadPool::cancelled() to bail out of long iterations early.
  std::atomic<bool> cancelled{false};
  std::size_t count = 0;
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::condition_variable done_cv;
  std::mutex done_mutex;
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // The caller of parallel_for is one of the `threads`: it runs as slot 0,
  // so one thread spawns no worker and everything runs inline.
  workers_.reserve(threads - 1);
  for (std::size_t slot = 1; slot < threads; ++slot) {
    workers_.emplace_back([this, slot] { worker_loop(slot); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_indices(Batch& b, std::size_t slot) {
  const std::atomic<bool>* prev_cancel = tls_cancel;
  tls_cancel = &b.cancelled;
  std::size_t claimed = 0;
  for (;;) {
    const std::size_t i = b.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= b.count) break;
    ++claimed;
    // An index claimed after a sibling failed is skipped, so a fault in
    // block 3 of 10,000 does not simulate the other 9,997 before
    // rethrowing. Skipped indices still count towards `done` so the
    // caller's wait completes.
    if (b.cancelled.load(std::memory_order_relaxed)) continue;
    try {
      (*b.body)(slot, i);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(b.error_mutex);
        if (!b.first_error) b.first_error = std::current_exception();
      }
      b.cancelled.store(true, std::memory_order_relaxed);
    }
  }
  if (claimed > 0 && b.done.fetch_add(claimed) + claimed == b.count) {
    std::lock_guard<std::mutex> lock(b.done_mutex);
    b.done_cv.notify_all();
  }
  tls_cancel = prev_cancel;
}

bool ThreadPool::cancelled() {
  return tls_cancel != nullptr &&
         tls_cancel->load(std::memory_order_relaxed);
}

void ThreadPool::worker_loop(std::size_t slot) {
  tls_slot = slot;
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Batch> b;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      b = batch_;
    }
    if (!b) continue;
    tls_in_parallel = true;
    run_indices(*b, slot);
    tls_in_parallel = false;
  }
}

void ThreadPool::parallel_for_slotted(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  const std::size_t nworkers = workers_.size();
  // Inline when there is no one to share with, the batch is trivially small,
  // or we are already inside a body on this pool (nested calls must not wait
  // on workers that may be executing us).
  if (nworkers == 0 || count == 1 || tls_in_parallel) {
    for (std::size_t i = 0; i < count; ++i) body(tls_slot, i);
    return;
  }

  // The batch is owned by a shared_ptr so a worker that observes it late
  // (after the caller returned and published a newer generation) still holds
  // a live object; it then finds every index claimed and moves on.
  auto batch = std::make_shared<Batch>();
  batch->count = count;
  batch->body = &body;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    batch_ = batch;
    ++generation_;
  }
  cv_.notify_all();

  tls_in_parallel = true;
  run_indices(*batch, /*slot=*/0);  // the caller participates as slot 0
  tls_in_parallel = false;

  {
    std::unique_lock<std::mutex> lock(batch->done_mutex);
    batch->done_cv.wait(lock,
                        [&] { return batch->done.load() >= batch->count; });
  }
  if (batch->first_error) std::rethrow_exception(batch->first_error);
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  parallel_for_slotted(count,
                       [&body](std::size_t, std::size_t i) { body(i); });
}

std::size_t ThreadPool::parse_threads(const char* value) {
  if (value == nullptr) return 0;
  return static_cast<std::size_t>(config::parse_u64(
      "GPC_SIM_THREADS", "threads", value, 0, 1024));
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(config::or_exit(
      [] { return parse_threads(config::get("GPC_SIM_THREADS")); }));
  return pool;
}

}  // namespace gpc
