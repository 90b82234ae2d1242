// DeviceSession: a toolchain-neutral driver facade for benchmarks.
//
// Each benchmark drives the device through this facade so the same driver
// code runs through the CUDA runtime (gpc::cuda) or the OpenCL platform API
// (gpc::ocl) depending on the toolchain under test — the per-toolchain
// behavioural differences (front-end, launch latency, texture support,
// error-code reporting) all live below this interface, exactly where the
// paper locates them.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "arch/device_spec.h"
#include "compiler/compiled_kernel.h"
#include "cuda/runtime.h"
#include "kernel/ast.h"
#include "ocl/opencl.h"
#include "resil/policy.h"
#include "sim/launch.h"

namespace gpc::virt {
class TenantQueue;
}  // namespace gpc::virt

namespace gpc::harness {

class DeviceSession {
 public:
  /// Throws InvalidArgument for impossible combinations (CUDA on non-NVIDIA).
  DeviceSession(const arch::DeviceSpec& spec, arch::Toolchain tc,
                std::size_t heap_bytes = std::size_t{512} << 20);
  virtual ~DeviceSession() = default;

  const arch::DeviceSpec& device() const { return spec_; }
  arch::Toolchain toolchain() const { return tc_; }

  virtual std::uint64_t alloc(std::size_t bytes);
  void write(std::uint64_t addr, const void* src, std::size_t bytes);
  void read(void* dst, std::uint64_t addr, std::size_t bytes);

  template <typename T>
  std::uint64_t upload(std::span<const T> host) {
    const std::uint64_t p = alloc(host.size_bytes());
    write(p, host.data(), host.size_bytes());
    return p;
  }
  template <typename T>
  void download(std::uint64_t addr, std::span<T> host) {
    read(host.data(), addr, host.size_bytes());
  }

  compiler::CompiledKernel compile(const kernel::KernelDef& def,
                                   const compiler::CompileOptions& opts = {});

  /// CUDA only; silently ignored under OpenCL (the kernel's fallback loads
  /// are used there anyway).
  void bind_texture(int unit, std::uint64_t base, std::size_t bytes,
                    ir::Type elem);

  /// Launches and accumulates kernel time. Throws OutOfResources when the
  /// kernel does not fit the device, DeviceFault when the kernel itself
  /// faults mid-grid and InvalidArgument for a bad launch or a malformed
  /// per-launch variable. Under OpenCL every error status maps back to the
  /// exception CUDA throws (throw_on_error), so benchmark drivers have one
  /// failure path per outcome.
  ///
  /// Resilience (src/resil, all off by default): with a retry budget,
  /// transient failures (TransientFault, DeviceFault, injected
  /// OutOfResources) are retried with exponential backoff and deterministic
  /// jitter. With degradation enabled, a *non-structural* OutOfResources
  /// that survives its retries falls back to a split launch (half the grid
  /// per sub-launch, recursively, results merged — kernels observe logical
  /// grid coordinates so outputs are bit-identical); a *structural* one
  /// (probed against sim::compute_occupancy, consuming no injection
  /// samples) falls back to degraded execution when
  /// set_allow_degraded_exec(true) was called. Either fallback counts as a
  /// degraded_events() for the caller's "DEG" classification.
  sim::LaunchResult launch(const compiler::CompiledKernel& ck, sim::Dim3 grid,
                           sim::Dim3 block,
                           std::span<const sim::KernelArg> args,
                           int dynamic_shared_bytes = 0);

  /// Resilience policy for this session. Defaults to resil::active_policy()
  /// (GPC_RETRY / GPC_DEGRADE / GPC_WATCHDOG) at construction time.
  void set_policy(const resil::Policy& p) { policy_ = p; }
  const resil::Policy& policy() const { return policy_; }
  /// Permits the degraded-execution fallback for structural OutOfResources
  /// (policy.degrade must also be on). Off by default — the benchmark layer
  /// enables it only for its last-resort attempt, after work-group
  /// shrinking failed, so "DEG" stays a deliberate outcome.
  void set_allow_degraded_exec(bool v) { allow_degraded_exec_ = v; }
  /// Per-launch step budget for every launch issued through this session
  /// (0 = unset: the policy watchdog, GPC_WATCHDOG, applies as usual).
  /// gpc::serve converts a job's deadline into this budget, so a deadline
  /// bounds simulated execution via the PR 2 watchdog instead of wall-clock
  /// timers — an over-deadline kernel becomes a classified DeviceFault.
  void set_step_budget(std::uint64_t steps) { step_budget_ = steps; }
  std::uint64_t step_budget() const { return step_budget_; }
  /// Degradation events so far: split sub-launch fan-outs plus
  /// degraded-execution launches. Nonzero means results were produced at
  /// reduced fidelity/width and the run should be classified "DEG".
  int degraded_events() const { return degraded_events_; }
  /// Retries performed (memcpy, build and launch sites combined).
  int retries() const { return retries_; }

  /// Kernel, transfer and timing-model seconds accumulated by the
  /// session's runtime, and the last launch's occupancy.
  const sim::LaunchTotals& totals() const;
  void reset_timers();

  /// The session's simulated device DRAM (the per-tenant heap for a
  /// TenantSession — its capacity IS the tenant's quota).
  sim::DeviceMemory& memory();
  /// Frees every allocation (bump-allocator reset). Lets one session run
  /// several benchmark attempts without leaking quota between them.
  void reset_memory();

  /// Routes this session's launches through a gpc::virt tenant command
  /// queue (nullptr detaches). TenantSession wires this at construction.
  void attach_virt(virt::TenantQueue* q);

 private:
  /// One raw launch of a (sub-)grid; no retry/fallback logic.
  sim::LaunchResult launch_once(const compiler::CompiledKernel& ck,
                                const sim::LaunchConfig& cfg,
                                std::span<const sim::KernelArg> args);
  sim::LaunchResult launch_resilient(const compiler::CompiledKernel& ck,
                                     const sim::LaunchConfig& cfg,
                                     std::span<const sim::KernelArg> args,
                                     int depth);
  sim::LaunchResult split_launch(const compiler::CompiledKernel& ck,
                                 const sim::LaunchConfig& cfg,
                                 std::span<const sim::KernelArg> args,
                                 int depth);
  /// True when the kernel genuinely cannot fit the device at this block
  /// shape (re-validated directly against the occupancy model, which draws
  /// no injection samples — so injected OutOfResources probe as false).
  bool structural_oor(const compiler::CompiledKernel& ck,
                      const sim::LaunchConfig& cfg) const;
  /// Runs op(), retrying TransientFault up to the policy's budget.
  template <typename Op>
  auto retry_transient(const char* site, std::uint64_t salt, Op&& op)
      -> decltype(op());
  void note_retry(const char* site, int attempt, std::uint64_t salt);
  /// The one mapping of an OpenCL error status back to the common
  /// exceptions, carrying the queue's last_error() detail.
  void throw_on_error(ocl::Status st, const char* call) const;

  const arch::DeviceSpec& spec_;
  arch::Toolchain tc_;
  std::optional<cuda::Context> cuda_;
  std::optional<ocl::Context> ocl_ctx_;
  std::optional<ocl::CommandQueue> ocl_queue_;
  resil::Policy policy_ = resil::active_policy();
  std::uint64_t step_budget_ = 0;
  bool allow_degraded_exec_ = false;
  int degraded_events_ = 0;
  int retries_ = 0;
};

/// A DeviceSession bound to one virtual device (gpc::virt tenant): its heap
/// is sized to the tenant's memory quota — an over-quota allocation
/// surfaces as the ordinary OutOfResources / CL_OUT_OF_RESOURCES to THIS
/// tenant only and flows into the retry/degrade ladder like any other
/// resource failure — and every launch is submitted to the tenant's command
/// queue, where the fair-share scheduler time-slices it against the other
/// tenants. Everything else (compile, memcpy, textures, policy ladder) is
/// the plain DeviceSession behaviour; benchmark drivers cannot tell the
/// difference, which is the point.
class TenantSession : public DeviceSession {
 public:
  TenantSession(const arch::DeviceSpec& spec, arch::Toolchain tc,
                virt::TenantQueue& queue);
  ~TenantSession() override;

  virt::TenantQueue& queue() { return *queue_; }
  int tenant_id() const;

  /// Quota-accounted allocation: success updates the tenant's memory
  /// high-water mark; failure counts a quota rejection and rethrows with
  /// the tenant id in the message.
  std::uint64_t alloc(std::size_t bytes) override;

 private:
  virt::TenantQueue* queue_;
};

}  // namespace gpc::harness
