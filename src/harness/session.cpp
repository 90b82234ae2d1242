#include "harness/session.h"

#include "common/error.h"
#include "common/log.h"
#include "compiler/pipeline.h"
#include "prof/prof.h"
#include "resil/fault.h"
#include "sim/timing.h"
#include "virt/virt.h"

namespace gpc::harness {

namespace {
// Backoff-jitter salts, one per retried operation kind, so the deterministic
// jitter streams of different sites do not alias.
constexpr std::uint64_t kSaltMemcpy = 0x11;
constexpr std::uint64_t kSaltBuild = 0x22;
constexpr std::uint64_t kSaltLaunch = 0x33;
}  // namespace

DeviceSession::DeviceSession(const arch::DeviceSpec& spec, arch::Toolchain tc,
                             std::size_t heap_bytes)
    : spec_(spec), tc_(tc) {
  if (tc == arch::Toolchain::Cuda) {
    cuda_.emplace(spec, heap_bytes);
  } else {
    ocl_ctx_.emplace(spec, heap_bytes);
    ocl_queue_.emplace(*ocl_ctx_);
  }
}

std::uint64_t DeviceSession::alloc(std::size_t bytes) {
  if (cuda_) return cuda_->malloc(bytes);
  return ocl_ctx_->create_buffer(bytes).addr;
}

void DeviceSession::note_retry(const char* site, int attempt,
                               std::uint64_t salt) {
  ++retries_;
  resil::counters().retries.fetch_add(1, std::memory_order_relaxed);
  if (prof::enabled()) {
    prof::recorder().record_instant("resil", std::string("retry:") + site);
  }
  GPC_LOG(Info) << "resil: retrying " << site << " (attempt " << (attempt + 1)
                << "/" << policy_.max_retries << ")";
  resil::backoff_sleep(policy_, attempt, salt);
}

template <typename Op>
auto DeviceSession::retry_transient(const char* site, std::uint64_t salt,
                                    Op&& op) -> decltype(op()) {
  for (int attempt = 0;; ++attempt) {
    try {
      return op();
    } catch (const TransientFault&) {
      if (attempt >= policy_.max_retries) throw;
      note_retry(site, attempt, salt);
    }
  }
}

void DeviceSession::throw_on_error(ocl::Status st, const char* call) const {
  if (st == ocl::Status::Success) return;
  const std::string& detail = ocl_queue_->last_error();
  std::string what = detail.empty()
                         ? std::string(call) + ": " + ocl::to_string(st) +
                               " on " + spec_.short_name
                         : detail;
  switch (st) {
    case ocl::Status::OutOfResources: throw OutOfResources(std::move(what));
    case ocl::Status::DeviceFault: throw DeviceFault(std::move(what));
    case ocl::Status::OutOfHostMemory: throw TransientFault(std::move(what));
    case ocl::Status::InvalidKernelArgs:
    case ocl::Status::InvalidWorkGroupSize:
      throw InvalidArgument(std::move(what));
    default:
      throw InternalError(std::move(what));
  }
}

void DeviceSession::write(std::uint64_t addr, const void* src,
                          std::size_t bytes) {
  retry_transient("memcpy", kSaltMemcpy, [&] {
    if (cuda_) return cuda_->memcpy_h2d(addr, src, bytes);
    throw_on_error(ocl_queue_->enqueue_write_buffer({addr, bytes}, src, bytes),
                   "clEnqueueWriteBuffer");
  });
}

void DeviceSession::read(void* dst, std::uint64_t addr, std::size_t bytes) {
  retry_transient("memcpy", kSaltMemcpy, [&] {
    if (cuda_) return cuda_->memcpy_d2h(dst, addr, bytes);
    throw_on_error(ocl_queue_->enqueue_read_buffer(dst, {addr, bytes}, bytes),
                   "clEnqueueReadBuffer");
  });
}

compiler::CompiledKernel DeviceSession::compile(
    const kernel::KernelDef& def, const compiler::CompileOptions& opts) {
  return retry_transient("build", kSaltBuild, [&] {
    if (cuda_) return cuda_->compile(def, opts);
    // OpenCL path: this facade compiles directly (the drivers do not go
    // through ocl::Program), so the build injection site lives here.
    if (resil::armed()) {
      if (auto inj = resil::sample(resil::Site::Build, def.name)) {
        throw TransientFault(inj->detail);
      }
    }
    prof::ScopedSpan span("compile", "clBuildProgram");
    return compiler::compile(def, tc_, opts);
  });
}

void DeviceSession::bind_texture(int unit, std::uint64_t base,
                                 std::size_t bytes, ir::Type elem) {
  if (cuda_) cuda_->bind_texture(unit, base, bytes, elem);
  // OpenCL 1.1 has no 1D texture path in this study; kernels fall back to
  // plain global loads there (see kernel::KernelBuilder::tex1d).
}

sim::LaunchResult DeviceSession::launch(const compiler::CompiledKernel& ck,
                                        sim::Dim3 grid, sim::Dim3 block,
                                        std::span<const sim::KernelArg> args,
                                        int dynamic_shared_bytes) {
  sim::LaunchConfig cfg;
  cfg.grid = grid;
  cfg.block = block;
  cfg.dynamic_shared_bytes = dynamic_shared_bytes;
  cfg.step_budget = step_budget_;
  return launch_resilient(ck, cfg, args, 0);
}

sim::LaunchResult DeviceSession::launch_once(
    const compiler::CompiledKernel& ck, const sim::LaunchConfig& cfg,
    std::span<const sim::KernelArg> args) {
  if (cuda_) return cuda_->launch(ck, cfg, args);
  ocl::Event ev;
  throw_on_error(ocl_queue_->enqueue_nd_range(ck, cfg, args, &ev),
                 "clEnqueueNDRangeKernel");
  return ev;
}

bool DeviceSession::structural_oor(const compiler::CompiledKernel& ck,
                                   const sim::LaunchConfig& cfg) const {
  sim::LaunchConfig probe;
  probe.grid = {1, 1, 1};
  probe.block = cfg.block;
  probe.dynamic_shared_bytes = cfg.dynamic_shared_bytes;
  try {
    (void)sim::compute_occupancy(spec_, ck, probe);
    return false;
  } catch (const OutOfResources&) {
    return true;
  }
}

sim::LaunchResult DeviceSession::launch_resilient(
    const compiler::CompiledKernel& ck, const sim::LaunchConfig& cfg,
    std::span<const sim::KernelArg> args, int depth) {
  for (int attempt = 0;; ++attempt) {
    try {
      return launch_once(ck, cfg, args);
    } catch (const OutOfResources& e) {
      if (structural_oor(ck, cfg)) {
        // The kernel genuinely does not fit at this block shape; retrying
        // cannot help. Degraded execution is the caller-gated last resort.
        if (policy_.degrade && allow_degraded_exec_) {
          ++degraded_events_;
          resil::counters().degraded_launches.fetch_add(
              1, std::memory_order_relaxed);
          if (prof::enabled()) {
            prof::recorder().record_instant("resil", "degraded_exec");
          }
          GPC_LOG(Info) << "resil: " << ck.name() << " on "
                        << spec_.short_name
                        << " runs in degraded-execution mode — " << e.what();
          sim::LaunchConfig degraded = cfg;
          degraded.degraded_exec = true;
          return launch_once(ck, degraded, args);
        }
        throw;
      }
      // Non-structural (injected/transient) resource failure: retry, then
      // shed load by splitting the grid.
      if (attempt < policy_.max_retries) {
        note_retry("launch", attempt, kSaltLaunch);
        continue;
      }
      if (policy_.degrade && depth < policy_.max_split_depth &&
          cfg.grid.count() > 1) {
        return split_launch(ck, cfg, args, depth);
      }
      throw;
    } catch (const TransientFault&) {
      if (attempt >= policy_.max_retries) throw;
      note_retry("launch", attempt, kSaltLaunch);
    } catch (const DeviceFault&) {
      // Mid-grid faults can be transient (injected chaos); a real kernel
      // bug simply re-faults and exhausts the budget.
      if (attempt >= policy_.max_retries) throw;
      note_retry("launch", attempt, kSaltLaunch);
    }
  }
}

sim::LaunchResult DeviceSession::split_launch(
    const compiler::CompiledKernel& ck, const sim::LaunchConfig& cfg,
    std::span<const sim::KernelArg> args, int depth) {
  // Kernels observe the logical grid (NCtaId) and offset block ids, so the
  // two half-launches compute exactly what the full launch would.
  const sim::Dim3 grid = cfg.grid;
  sim::LaunchConfig c1 = cfg;
  c1.logical_grid = cfg.logical();
  sim::LaunchConfig c2 = c1;
  if (grid.x >= grid.y && grid.x >= grid.z) {
    c1.grid.x = grid.x / 2;
    c2.grid.x = grid.x - c1.grid.x;
    c2.grid_offset.x += c1.grid.x;
  } else if (grid.y >= grid.z) {
    c1.grid.y = grid.y / 2;
    c2.grid.y = grid.y - c1.grid.y;
    c2.grid_offset.y += c1.grid.y;
  } else {
    c1.grid.z = grid.z / 2;
    c2.grid.z = grid.z - c1.grid.z;
    c2.grid_offset.z += c1.grid.z;
  }
  ++degraded_events_;
  resil::counters().split_launches.fetch_add(1, std::memory_order_relaxed);
  if (prof::enabled()) {
    prof::recorder().record_instant("resil", "split_launch");
  }
  GPC_LOG(Info) << "resil: splitting " << ck.name() << " grid ("
                << grid.x << "," << grid.y << "," << grid.z
                << ") after repeated OutOfResources (depth " << depth << ")";
  sim::LaunchResult r1 = launch_resilient(ck, c1, args, depth + 1);
  sim::LaunchResult r2 = launch_resilient(ck, c2, args, depth + 1);
  // Each half was priced as a launch of its own; the merged launch is
  // charged both.
  r1.timing.seconds += r2.timing.seconds;
  r1.timing.launch_s += r2.timing.launch_s;
  r1.timing.issue_s += r2.timing.issue_s;
  r1.timing.dram_s += r2.timing.dram_s;
  sim::merge_partial(r1, std::move(r2));
  return r1;
}

const sim::LaunchTotals& DeviceSession::totals() const {
  return cuda_ ? cuda_->totals() : ocl_queue_->totals();
}

void DeviceSession::reset_timers() {
  if (cuda_) {
    cuda_->reset_timers();
  } else {
    ocl_queue_->reset_timers();
  }
}

sim::DeviceMemory& DeviceSession::memory() {
  return cuda_ ? cuda_->memory() : ocl_ctx_->memory();
}

void DeviceSession::reset_memory() { memory().reset(); }

void DeviceSession::attach_virt(virt::TenantQueue* q) {
  if (cuda_) {
    cuda_->attach_virt(q);
  } else {
    ocl_queue_->attach_virt(q);
  }
}

// ---------------------------------------------------------------------------
// TenantSession

TenantSession::TenantSession(const arch::DeviceSpec& spec, arch::Toolchain tc,
                             virt::TenantQueue& queue)
    : DeviceSession(spec, tc, /*heap_bytes=*/queue.quota()), queue_(&queue) {
  attach_virt(&queue);
}

TenantSession::~TenantSession() = default;

int TenantSession::tenant_id() const { return queue_->tenant_id(); }

std::uint64_t TenantSession::alloc(std::size_t bytes) {
  try {
    const std::uint64_t addr = DeviceSession::alloc(bytes);
    queue_->note_alloc(memory().used());
    return addr;
  } catch (const OutOfResources& e) {
    // Over-quota: surfaced to THIS tenant only, tagged so logs distinguish
    // a quota bounce from a device-wide resource failure.
    queue_->note_quota_rejection();
    throw OutOfResources(std::string(e.what()) + " (tenant " +
                         std::to_string(queue_->tenant_id()) +
                         " memory quota exceeded)");
  }
}

}  // namespace gpc::harness
