// gpc::virt — multi-tenant virtual devices over one simulated device
// (gxen/GPUvm-inspired, see ROADMAP "Multi-tenant virtual devices").
//
// Why it exists: the paper's comparison runs one benchmark at a time on a
// dedicated device; a production-scale serving system multiplexes one device
// across many mutually untrusting tenants. PR 5 (gpc::resil) answered the
// single-session robustness question — can one session's faults be retried,
// degraded and classified — and this layer answers the multi-tenant one: can
// one tenant's hang, fault or resource hogging ever take down or starve a
// neighbour?
//
// Model: a VirtualDeviceManager carves one physical device into N virtual
// devices (tenants). Each tenant gets
//
//   * a MEMORY QUOTA: tenant sessions size their DeviceMemory heap to the
//     quota, so over-quota allocation surfaces as the ordinary
//     CL_OUT_OF_RESOURCES / gpc::OutOfResources at allocation time — to that
//     tenant only — and flows into the PR 5 retry/degrade ladder. The
//     manager refuses to over-carve the physical DRAM at construction.
//   * a COMMAND QUEUE (TenantQueue): every kernel launch of a tenant session
//     is submitted here instead of running on the caller's thread. Launches
//     are executed in sub-grid chunks through the exact split-launch
//     mechanism of PR 5 (LaunchConfig::grid_offset + logical_grid): kernels
//     observe logical CtaId/NCtaId coordinates, so a preempted-and-resumed
//     grid computes bit-identical results to an unsliced launch. Chunk
//     results merge through sim::merge_partial (the split launch's merge)
//     and timing is re-derived once per logical launch from the merged
//     LaunchStats, so a launch split into 100 slices is charged ONE launch
//     overhead, exactly like the unsliced launch.
//   * a CREDIT-BASED FAIR-SHARE SCHEDULER (Xen-credit-style): tenants hold
//     credits replenished proportionally to their weight and debited by the
//     warp-instruction issues their slices actually executed while another
//     tenant was runnable (work on an otherwise idle device is free); the
//     runnable tenant with the most credits runs next. The scheduling quantum
//     ("slice", default 50000 warp-instructions) is the same unit as the
//     PR 2/PR 5 step budget — the preemption tick is the step budget applied
//     at chunk granularity. The scheduler is work-conserving: a
//     single-tenant manager executes launches exactly as the unvirtualized
//     path would (one launch_kernel call — the tenants=1 <=2% A/B bar); in
//     a multi-tenant manager an uncontended tenant runs slice-sized chunks
//     without ever yielding, re-checking for newly runnable neighbours at
//     every chunk boundary, and the quantum is enforced only while another
//     tenant is actually runnable (or VirtConfig::force_slice is set, which
//     the bit-identity tests use).
//
// Driving model: there is no scheduler thread. The device is a lock; a
// submitting tenant thread whose job is pending becomes the driver when no
// other driver is active, and executes slices *in credit order across all
// tenants* until its own job completes, then hands the driver role to the
// next waiter. One slice executes at a time — the simulated device runs one
// (sub-)grid at a time, same as the real hardware the model prices.
//
// Fault isolation: a chunk that throws (injected or organic OutOfResources /
// DeviceFault / watchdog trip) fails only the owning tenant's job — the
// error is parked on the job and rethrown on the submitting thread, where
// the PR 5 session policy (retry / split / degrade) and the benchmark
// classification ladder handle it. The scheduler itself never unwinds.
// Injected hangs are surfaced as watchdog trips without burning cycles, and
// organic runaways are bounded per block by VirtConfig::block_budget /
// GPC_WATCHDOG / the built-in step backstop, so a victim tenant can delay a
// neighbour by at most one block execution, never stall it.
//
// Per-tenant fault injection: a TenantQueue can own a private
// resil::FaultPlan (enqueue / hang / midgrid sites), sampled by the same
// resil::sample_launch_faults prologue as sim::launch_kernel on the
// SUBMITTING thread in program order — so a tenant's fault sequence is a
// pure function of its own plan seeds and launch sequence, independent of
// cross-tenant scheduling. This is what makes the virt soak's outcome
// vector replayable bit-for-bit under real concurrency.
//
// Observability: per-tenant counters (launches, slices, preemptions,
// executed steps, contended steps, faults, quota rejections, memory
// peak/used) snapshot via TenantQueue::stats(); launches recorded through
// gpc::prof carry the tenant id and land on per-tenant rows of the device
// track in the Chrome trace ("tenant N (w=W)" threads).
//
// Enablement: construct a VirtualDeviceManager with a VirtConfig. With no
// manager constructed, nothing in the launch path changes beyond one
// null-pointer test (fig03/table06 bit-identical, locked by tests).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "arch/device_spec.h"
#include "compiler/compiled_kernel.h"
#include "resil/fault.h"
#include "sim/launch.h"

namespace gpc::virt {

struct VirtConfig {
  int tenants = 1;
  /// Scheduling quantum in warp-instruction issues (the step-budget unit):
  /// a contended tenant is preempted at the first chunk boundary at or past
  /// this many executed issues.
  std::uint64_t slice = 50'000;
  /// Per-tenant scheduling weights (fair share ∝ weight). Shorter vectors
  /// are padded with 1.0; empty = equal shares.
  std::vector<double> weights;
  /// Physical simulated DRAM carved among the tenants.
  std::size_t phys_bytes = std::size_t{512} << 20;
  /// Per-tenant memory quota; 0 = phys_bytes / tenants. The manager throws
  /// InvalidArgument when tenants * quota exceeds phys_bytes.
  std::size_t quota_bytes = 0;
  /// Per-block step budget applied to sliced chunks whose launch did not set
  /// one (0 = inherit GPC_WATCHDOG / the built-in backstop). Bounds how
  /// long one tenant block can occupy the device.
  std::uint64_t block_budget = 0;
  /// Slice even without contention — the preempt/resume bit-identity tests
  /// use this to force checkpointing on every launch.
  bool force_slice = false;
};

/// Snapshot of one tenant's accounting (all counters monotonic since
/// manager construction).
struct TenantStats {
  int id = 0;
  double weight = 1.0;
  std::uint64_t launches = 0;     // completed logical launches
  std::uint64_t slices = 0;       // scheduler quanta executed
  std::uint64_t preemptions = 0;  // slices that checkpointed mid-grid
  std::uint64_t steps = 0;        // warp-instruction issues executed
  std::uint64_t contended_steps = 0;  // ...while >= 2 tenants were runnable
  /// Scheduler credit balance: refill grants minus contended_steps.
  double credits = 0;
  std::uint64_t faults = 0;           // failed launches (injected or organic)
  std::uint64_t quota_rejections = 0;  // over-quota allocation attempts
  std::size_t quota_bytes = 0;
  std::size_t mem_used = 0;  // live bytes reported by the tenant session
  std::size_t mem_peak = 0;
};

class VirtualDeviceManager;

/// One tenant's command queue + accounting. Obtained from the manager; the
/// handle stays valid for the manager's lifetime. launch() is the entry the
/// runtime front-ends (cuda::Context / ocl::CommandQueue) call when a
/// tenant queue is attached; everything else is harness/tests plumbing.
class TenantQueue {
 public:
  int tenant_id() const { return id_; }
  double weight() const { return weight_; }
  std::size_t quota() const { return quota_; }

  /// Submits one logical launch and blocks until the scheduler has executed
  /// it to completion (possibly across many slices, interleaved with other
  /// tenants). Throws exactly what an unvirtualized sim::launch_kernel
  /// would (OutOfResources / DeviceFault / ...), scoped to this tenant.
  sim::LaunchResult launch(const arch::DeviceSpec& spec,
                           const arch::RuntimeSpec& runtime,
                           const compiler::CompiledKernel& ck,
                           const sim::LaunchConfig& config,
                           std::span<const sim::KernelArg> args,
                           sim::DeviceMemory& mem,
                           std::span<const sim::TexBinding> textures);

  /// Per-tenant deterministic fault injection (enqueue / hang / midgrid
  /// sites), sampled on the submitting thread in program order. Pass
  /// nullptr to disarm. The plan is owned by the queue.
  void set_fault_plan(std::unique_ptr<resil::FaultPlan> plan);
  resil::FaultPlan* fault_plan() { return plan_.get(); }

  /// Memory accounting callbacks (TenantSession). note_quota_rejection is
  /// bumped when an allocation bounced off the quota.
  void note_alloc(std::size_t bytes);
  void note_mem_reset();
  void note_quota_rejection();

  TenantStats stats() const;

 private:
  friend class VirtualDeviceManager;
  TenantQueue(VirtualDeviceManager* mgr, int id, double weight,
              std::size_t quota)
      : mgr_(mgr), id_(id), weight_(weight), quota_(quota) {}

  /// One submitted logical launch and its checkpoint state. Only the
  /// submitting thread (before enqueue / after completion) and the single
  /// active driver (in between, handed off under the manager mutex) touch a
  /// Job, so the fields need no locking of their own.
  struct Job {
    const arch::DeviceSpec* spec = nullptr;
    const arch::RuntimeSpec* runtime = nullptr;
    const compiler::CompiledKernel* ck = nullptr;
    sim::LaunchConfig cfg;  // the logical launch (itself possibly a sub-grid)
    std::span<const sim::KernelArg> args;
    sim::DeviceMemory* mem = nullptr;
    std::span<const sim::TexBinding> textures;

    long long total_blocks = 0;
    long long next_block = 0;  // checkpoint: first unexecuted flat block
    double est_steps_per_block = 0;  // adaptive chunk sizing
    resil::MidGridFault midgrid;     // injected midgrid fault target
    sim::LaunchResult acc;  // merged via sim::merge_partial; timed at end
    bool done = false;
    std::exception_ptr error;
  };

  VirtualDeviceManager* mgr_;
  int id_;
  double weight_;
  std::size_t quota_;
  std::unique_ptr<resil::FaultPlan> plan_;

  // Scheduler state — guarded by the manager mutex.
  double credits_ = 0;
  std::deque<Job*> jobs_;

  // Accounting — relaxed atomics, written by whichever thread did the work.
  std::atomic<std::uint64_t> launches_{0};
  std::atomic<std::uint64_t> slices_{0};
  std::atomic<std::uint64_t> preemptions_{0};
  std::atomic<std::uint64_t> steps_{0};
  std::atomic<std::uint64_t> contended_steps_{0};
  std::atomic<std::uint64_t> faults_{0};
  std::atomic<std::uint64_t> quota_rejections_{0};
  std::atomic<std::uint64_t> mem_used_{0};
  std::atomic<std::uint64_t> mem_peak_{0};
};

class VirtualDeviceManager {
 public:
  /// Validates the carve (weights padded, quota defaulted, sum of quotas
  /// checked against phys_bytes); throws InvalidArgument on an impossible
  /// configuration.
  explicit VirtualDeviceManager(VirtConfig cfg = VirtConfig{});
  ~VirtualDeviceManager();

  VirtualDeviceManager(const VirtualDeviceManager&) = delete;
  VirtualDeviceManager& operator=(const VirtualDeviceManager&) = delete;

  const VirtConfig& config() const { return cfg_; }
  int tenants() const { return static_cast<int>(tenants_.size()); }
  TenantQueue& tenant(int id);
  std::size_t quota(int id);

  /// All tenants' accounting in id order.
  std::vector<TenantStats> stats() const;

 private:
  friend class TenantQueue;
  using Job = TenantQueue::Job;

  /// Enqueues `job` for `t` and blocks until it is done, driving the
  /// scheduler whenever no other thread is. Called on the submitting thread.
  void run_job(TenantQueue& t, Job& job);

  // All four below require mu_ held.
  TenantQueue* pick_next();
  void refill_credits();
  void drive(std::unique_lock<std::mutex>& lk, const Job& until_done);
  /// Executes one scheduling quantum of (t, j): unlocks mu_ around the
  /// chunk executions, relocks to commit accounting and completion.
  void run_slice(std::unique_lock<std::mutex>& lk, TenantQueue& t, Job& j);

  VirtConfig cfg_;
  std::vector<std::unique_ptr<TenantQueue>> tenants_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool driving_ = false;
  /// Tenants with a non-empty queue; kept as an atomic so an uncontended
  /// driver can detect a new arrival between chunks without taking mu_.
  std::atomic<int> runnable_{0};
};

/// Warp-instruction issues of one chunk — the unit slices are measured in
/// (the same unit as the PR 2 step budget: one issue ≈ one interpreter step).
std::uint64_t issue_steps(const sim::BlockStats& s);

}  // namespace gpc::virt
