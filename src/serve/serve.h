// gpc::serve — a fault-hardened asynchronous kernel-launch server.
//
// The paper's launch-latency findings (CUDA ≈7 µs vs OpenCL ≈17 µs per
// enqueue, §IV-B.4) become a *system-level* metric here: clients submit
// (kernel, args, grid) jobs, worker threads compile through a
// content-addressed CompiledKernel cache (serve/cache.h), coalesce
// same-device jobs into batches, launch through the harness::DeviceSession
// retry/degrade ladder, and deliver the full LaunchResult via an async
// completion event. bench/extra_serve_latency turns the enqueue-to-complete
// p50/p99 under load into a regression-guarded number.
//
// Robustness model (DESIGN.md §17):
//  * Bounded admission: each shard queue holds at most queue_cap jobs; a
//    submit that finds every shard full is rejected immediately with a SHED
//    completion — the server never blocks a client and never queues
//    unboundedly.
//  * Deadlines: a job deadline (per job or the config default) is checked at
//    dequeue — an expired job is SHED without touching the device — and
//    propagated into the PR 2/PR 5 step-budget watchdog as
//    deadline_ms * steps_per_ms, so an over-deadline kernel terminates as a
//    classified DeviceFault, not a wall-clock stall.
//  * Circuit breaker, per (device, toolchain): `breaker` consecutive jobs
//    ending in DeviceFault trip it Open; while Open (cooldown_ms) jobs for
//    that device are SHED. After the cooldown one probe job is admitted
//    (HalfOpen) through the full retry/degrade ladder; success closes the
//    breaker, failure re-opens it.
//  * Exactly-once completion: every accepted job is owned by exactly one
//    worker, and the completion latch (an atomic exchange) makes a second
//    completion of the same job a hard GPC_CHECK failure. Jobs still queued
//    at shutdown are drained, not dropped — no lost, duplicated or orphaned
//    jobs. Proven under chaos by bench/extra_serve_soak.
//  * Deterministic chaos: a job may carry its own resil::FaultPlan; the
//    executing worker installs it as the thread-local plan
//    (resil::set_thread_plan) for the duration of the job, so the five
//    GPC_FAULT sites sample the job's private plan in the job's own serial
//    call order — the injected fault sequence is a pure function of the
//    job's seeds, independent of how jobs interleave across workers. This
//    is the same determinism contract gpc::virt established for tenants.
//
// Enablement: construct a Server with a ServeConfig (every field has a
// default).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "arch/device_spec.h"
#include "harness/session.h"
#include "kernel/ast.h"
#include "resil/fault.h"
#include "resil/policy.h"
#include "serve/cache.h"
#include "sim/launch.h"

namespace gpc::virt {
class VirtualDeviceManager;
}  // namespace gpc::virt

namespace gpc::serve {

struct ServeConfig {
  int workers = 0;        // worker threads; 0 = hardware concurrency
  int shards = 1;         // submission queue shards
  int queue_cap = 1024;   // bounded admission: max queued jobs PER shard
  double deadline_ms = 0;  // default job deadline; 0 = none
  int breaker = 0;        // consecutive-DeviceFault trip threshold; 0 = off
  double breaker_cooldown_ms = 10.0;  // Open -> HalfOpen delay
  int batch = 8;          // max same-device jobs coalesced per dequeue
  // Deadline -> watchdog conversion: simulated interpreter steps budgeted
  // per millisecond of deadline (the budget uses the full deadline, not the
  // wall-clock remainder, so injected-fault replay stays deterministic).
  std::uint64_t steps_per_ms = 1'000'000;
};

/// Terminal classification of one job, mirroring the benchmark outcome
/// protocol (OK/DEG/ABT) plus the serving-layer reject class.
enum class JobClass : std::uint8_t { Ok = 0, Deg, Abt, Shed };
const char* class_name(JobClass c);

/// One kernel argument as submitted: either a scalar passed through, or a
/// device buffer the server allocates and uploads before launch (and reads
/// back into Completion::outputs when `readback` is set).
struct JobArg {
  sim::KernelArg scalar;
  std::vector<unsigned char> bytes;  // buffer content (is_buffer)
  bool is_buffer = false;
  bool readback = false;

  static JobArg scalar_arg(sim::KernelArg a) {
    JobArg j;
    j.scalar = a;
    return j;
  }
  static JobArg buffer(std::vector<unsigned char> data, bool readback_out) {
    JobArg j;
    j.bytes = std::move(data);
    j.is_buffer = true;
    j.readback = readback_out;
    return j;
  }
};

struct Completion;

/// A self-contained job: everything a worker needs to compile, upload,
/// launch and read back without touching client state.
struct JobSpec {
  std::shared_ptr<const kernel::KernelDef> kernel;
  const arch::DeviceSpec* device = nullptr;
  arch::Toolchain toolchain = arch::Toolchain::Cuda;
  sim::Dim3 grid{1, 1, 1};
  sim::Dim3 block{1, 1, 1};
  int dynamic_shared_bytes = 0;
  std::vector<JobArg> args;
  /// Per-job deadline in milliseconds; -1 = the config default, 0 = none.
  double deadline_ms = -1;
  /// gpc::virt tenant id (requires attach_virt on the server); -1 = none.
  int tenant = -1;
  /// Per-job deterministic fault plan (see header comment); null = none.
  std::shared_ptr<resil::FaultPlan> fault_plan;
  /// Async completion event, invoked exactly once on the completing thread
  /// (a worker, or the submitting thread for submit-time sheds).
  std::function<void(const Completion&)> on_complete;
};

/// The completion event: classification plus the full launch result.
struct Completion {
  std::uint64_t job_id = 0;
  JobClass cls = JobClass::Ok;
  std::string status;  // "OK" / "DEG" / "ABT" / "SHED"
  std::string detail;  // error / shed reason (empty for OK)
  sim::LaunchResult result;  // valid for Ok and Deg
  std::vector<std::vector<unsigned char>> outputs;  // readback args, in order
  int retries = 0;
  int degraded_events = 0;
  bool cache_hit = false;
  int batch = 1;  // size of the coalesced batch this job executed in
  std::int64_t submit_ns = 0;
  std::int64_t start_ns = 0;     // dequeue time (== submit_ns for sheds)
  std::int64_t complete_ns = 0;
};

/// Client-side handle. wait() blocks until the job's single completion.
class JobHandle {
 public:
  JobHandle() = default;

  bool valid() const { return state_ != nullptr; }
  bool done() const;
  const Completion& wait() const;

 private:
  friend class Server;
  struct State;
  std::shared_ptr<State> state_;
};

class Server {
 public:
  /// Reads the resilience policy and validates the per-launch variables
  /// (GPC_SIM_SANITIZE, GPC_AIWC): a malformed value throws InvalidArgument
  /// here, to the caller, instead of turning every job into ABT.
  explicit Server(ServeConfig cfg = ServeConfig{});
  ~Server();  // drains accepted jobs, then stops the workers

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  const ServeConfig& config() const { return cfg_; }

  /// Resilience policy applied to every worker session (defaults to
  /// resil::active_policy() at construction).
  void set_policy(const resil::Policy& p);

  /// Routes tenant jobs (JobSpec::tenant >= 0) through the manager's
  /// per-tenant queues/quotas. The manager must outlive the server.
  void attach_virt(virt::VirtualDeviceManager* mgr);

  /// Submits a job. Never blocks: a job that cannot be admitted (every
  /// shard full, or the server is shut down) completes immediately as SHED.
  /// Throws InvalidArgument only for malformed jobs (null kernel/device,
  /// empty grid, texture kernels, tenant without attach_virt).
  JobHandle submit(JobSpec job);

  /// Blocks until every accepted job has completed.
  void drain();
  /// Stops admission (subsequent submits SHED), drains, joins the workers.
  /// Idempotent.
  void shutdown();

  /// Test hooks: freeze/unfreeze the workers' dequeue loop so admission
  /// control can be exercised deterministically.
  void pause();
  void resume();

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;  // == submitted after drain()
    std::uint64_t ok = 0;
    std::uint64_t deg = 0;
    std::uint64_t abt = 0;
    std::uint64_t shed = 0;
    std::uint64_t batches = 0;       // dequeue rounds
    std::uint64_t batched_jobs = 0;  // jobs executed across those rounds
    std::uint64_t max_queue_depth = 0;
    std::uint64_t breaker_trips = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
  };
  Stats stats() const;
  CompiledKernelCache::Stats cache_stats() const { return cache_.stats(); }

 private:
  struct Job;     // JobSpec + handle state + timestamps
  struct Shard;
  struct Breaker;
  struct WorkerState;

  void worker_main(int worker_id);
  /// Claims up to cfg_.batch same-(device,toolchain,tenant) jobs from one
  /// shard. Returns an empty vector when every shard is empty.
  std::vector<Job> claim_batch(int worker_id);
  void execute_job(WorkerState& ws, Job& job, int batch_size);
  void complete_job(Job& job, Completion&& c);
  /// Breaker admission for the job's device; returns false (and sheds) when
  /// the breaker is open. Marks the job as the HalfOpen probe when it is.
  bool breaker_admit(Job& job);
  void breaker_note_result(const Job& job, bool success, bool device_fault);
  harness::DeviceSession& session_for(WorkerState& ws, const JobSpec& spec);
  void shed_job(Job& job, const std::string& reason);

  ServeConfig cfg_;
  resil::Policy policy_;
  virt::VirtualDeviceManager* virt_mgr_ = nullptr;
  CompiledKernelCache cache_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> accepting_{true};
  std::atomic<bool> paused_{false};
  std::atomic<std::uint64_t> next_job_id_{1};
  std::atomic<std::uint64_t> rr_{0};  // round-robin shard cursor

  std::mutex breaker_mutex_;
  std::vector<std::unique_ptr<Breaker>> breakers_;  // keyed by name, few

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> finished_{0};  // accepted jobs completed
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> class_counts_[4]{};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_jobs_{0};
  std::atomic<std::uint64_t> max_queue_depth_{0};
  std::atomic<std::uint64_t> breaker_trips_{0};
};

}  // namespace gpc::serve
