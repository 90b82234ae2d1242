// A small fixed-size thread pool with parallel_for helpers.
//
// The simulator executes independent work-groups ("thread blocks") across host
// threads; each block owns its shared memory and statistics accumulator, so
// the only cross-thread state is the simulated global memory, which kernels
// access data-race-free by construction (and through atomic_ref in the
// interpreter for the benign-race cases BFS relies on).
//
// Scheduling: a parallel_for publishes ONE batch descriptor (a shared_ptr
// swapped under the pool mutex and announced by a generation bump) instead of
// queueing a std::function per worker. The calling thread and the workers
// then claim indices off the batch one at a time with a single atomic
// fetch_add each — no allocation, no queue traffic, no locking — so the
// tail of a batch is at most one index (one simulated block) long.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gpc {

class ThreadPool {
 public:
  /// A pool of `threads` threads in total, the calling thread included: it
  /// spawns threads - 1 workers, and the caller of parallel_for runs
  /// indices as slot 0. 0 means std::thread::hardware_concurrency(); 1
  /// spawns nothing and runs every batch inline.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Spawned worker threads: threads - 1.
  std::size_t size() const { return workers_.size(); }

  /// Number of distinct `slot` values parallel_for_slotted can hand out:
  /// one per worker plus one for the calling thread.
  std::size_t slots() const { return workers_.size() + 1; }

  /// Runs body(i) for every i in [0, count). Blocks until all complete.
  /// The caller and the workers claim indices one at a time. If the pool
  /// has no workers (or count is 1) the calling thread executes everything
  /// inline.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

  /// Like parallel_for, but body also receives the executing thread's slot
  /// index in [0, slots()): the caller runs as slot 0, workers as 1..size().
  /// At most one thread runs with a given slot at a time, so callers can
  /// keep contention-free per-slot accumulators and merge them afterwards.
  /// Nested calls from inside a body run inline under the caller's slot.
  void parallel_for_slotted(
      std::size_t count,
      const std::function<void(std::size_t, std::size_t)>& body);

  /// Parses a GPC_SIM_THREADS value: an integer in [0, 1024], the total
  /// thread count, 0 (and nullptr) meaning hardware concurrency. Throws
  /// InvalidArgument otherwise.
  static std::size_t parse_threads(const char* value);

  /// Process-wide pool, sized by GPC_SIM_THREADS when the pool is first
  /// used (a malformed value exits the process), else to the machine.
  static ThreadPool& shared();

  /// True when the batch the calling thread is currently executing has been
  /// cancelled (a sibling chunk threw). Long-running bodies can poll this and
  /// return early; the first exception is still rethrown to the caller of
  /// parallel_for. Always false outside a parallel_for body.
  static bool cancelled();

 private:
  struct Batch;

  void worker_loop(std::size_t slot);
  static void run_indices(Batch& b, std::size_t slot);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::shared_ptr<Batch> batch_;   // currently published batch
  std::uint64_t generation_ = 0;   // bumped on each publication
  bool stop_ = false;
};

}  // namespace gpc
