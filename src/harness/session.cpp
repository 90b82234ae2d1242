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

void DeviceSession::write(std::uint64_t addr, const void* src,
                          std::size_t bytes) {
  for (int attempt = 0;; ++attempt) {
    try {
      if (cuda_) {
        cuda_->memcpy_h2d(addr, src, bytes);
        return;
      }
      const ocl::Status st =
          ocl_queue_->enqueue_write_buffer({addr, bytes}, src, bytes);
      if (st == ocl::Status::OutOfHostMemory) {
        throw TransientFault(ocl_queue_->last_error().empty()
                                 ? "buffer write failed transiently"
                                 : ocl_queue_->last_error());
      }
      GPC_CHECK(st == ocl::Status::Success, "buffer write failed");
      return;
    } catch (const TransientFault&) {
      if (attempt >= policy_.max_retries) throw;
      note_retry("memcpy", attempt, kSaltMemcpy);
    }
  }
}

void DeviceSession::read(void* dst, std::uint64_t addr, std::size_t bytes) {
  for (int attempt = 0;; ++attempt) {
    try {
      if (cuda_) {
        cuda_->memcpy_d2h(dst, addr, bytes);
        return;
      }
      const ocl::Status st =
          ocl_queue_->enqueue_read_buffer(dst, {addr, bytes}, bytes);
      if (st == ocl::Status::OutOfHostMemory) {
        throw TransientFault(ocl_queue_->last_error().empty()
                                 ? "buffer read failed transiently"
                                 : ocl_queue_->last_error());
      }
      GPC_CHECK(st == ocl::Status::Success, "buffer read failed");
      return;
    } catch (const TransientFault&) {
      if (attempt >= policy_.max_retries) throw;
      note_retry("memcpy", attempt, kSaltMemcpy);
    }
  }
}

compiler::CompiledKernel DeviceSession::compile(
    const kernel::KernelDef& def, const compiler::CompileOptions& opts) {
  for (int attempt = 0;; ++attempt) {
    try {
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
    } catch (const TransientFault&) {
      if (attempt >= policy_.max_retries) throw;
      note_retry("build", attempt, kSaltBuild);
    }
  }
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
  return launch_resilient(ck, grid, block, args, dynamic_shared_bytes,
                          sim::Dim3{0, 0, 0}, sim::Dim3{0, 0, 0}, 0);
}

sim::LaunchResult DeviceSession::launch_once(
    const compiler::CompiledKernel& ck, sim::Dim3 grid, sim::Dim3 block,
    std::span<const sim::KernelArg> args, int dynamic_shared_bytes,
    sim::Dim3 offset, sim::Dim3 logical, bool degraded) {
  if (cuda_) {
    sim::LaunchConfig cfg;
    cfg.grid = grid;
    cfg.block = block;
    cfg.dynamic_shared_bytes = dynamic_shared_bytes;
    cfg.grid_offset = offset;
    cfg.logical_grid = logical;
    cfg.degraded_exec = degraded;
    cfg.step_budget = step_budget_;
    return cuda_->launch(ck, cfg, args);
  }
  ocl::Event ev;
  const sim::Dim3 global{grid.x * block.x, grid.y * block.y,
                         grid.z * block.z};
  ocl::LaunchOverrides ov;
  ov.grid_offset = offset;
  ov.logical_grid = logical;
  ov.degraded_exec = degraded;
  ov.step_budget = step_budget_;
  const ocl::Status st = ocl_queue_->enqueue_nd_range(
      ck, global, block, args, &ev, dynamic_shared_bytes, &ov);
  if (st == ocl::Status::OutOfResources) {
    throw OutOfResources(ocl_queue_->last_error().empty()
                             ? std::string(ocl::to_string(st)) + " for " +
                                   ck.name() + " on " + spec_.short_name
                             : ocl_queue_->last_error());
  }
  if (st == ocl::Status::DeviceFault) {
    // Convert the OpenCL error code back into the common exception so the
    // benchmark drivers keep one kernel-fault failure path across both
    // runtimes (CUDA throws it directly).
    throw DeviceFault(ocl_queue_->last_error().empty()
                          ? std::string(ocl::to_string(st)) + " for " +
                                ck.name() + " on " + spec_.short_name
                          : ocl_queue_->last_error());
  }
  GPC_CHECK(st == ocl::Status::Success,
            std::string("enqueue failed: ") + ocl::to_string(st));
  sim::LaunchResult r;
  r.stats = ev.stats;
  r.timing = ev.timing;
  r.sanitizer = ev.sanitizer;
  r.aiwc = ev.aiwc;
  return r;
}

bool DeviceSession::structural_oor(const compiler::CompiledKernel& ck,
                                   sim::Dim3 block,
                                   int dynamic_shared_bytes) const {
  sim::LaunchConfig probe;
  probe.grid = {1, 1, 1};
  probe.block = block;
  probe.dynamic_shared_bytes = dynamic_shared_bytes;
  try {
    (void)sim::compute_occupancy(spec_, ck, probe);
    return false;
  } catch (const OutOfResources&) {
    return true;
  }
}

sim::LaunchResult DeviceSession::launch_resilient(
    const compiler::CompiledKernel& ck, sim::Dim3 grid, sim::Dim3 block,
    std::span<const sim::KernelArg> args, int dynamic_shared_bytes,
    sim::Dim3 offset, sim::Dim3 logical, int depth) {
  for (int attempt = 0;; ++attempt) {
    try {
      return launch_once(ck, grid, block, args, dynamic_shared_bytes, offset,
                         logical, /*degraded=*/false);
    } catch (const OutOfResources& e) {
      if (structural_oor(ck, block, dynamic_shared_bytes)) {
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
          return launch_once(ck, grid, block, args, dynamic_shared_bytes,
                             offset, logical, /*degraded=*/true);
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
          grid.count() > 1) {
        return split_launch(ck, grid, block, args, dynamic_shared_bytes,
                            offset, logical, depth);
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
    const compiler::CompiledKernel& ck, sim::Dim3 grid, sim::Dim3 block,
    std::span<const sim::KernelArg> args, int dynamic_shared_bytes,
    sim::Dim3 offset, sim::Dim3 logical, int depth) {
  // Kernels observe the logical grid (NCtaId) and offset block ids, so the
  // two half-launches compute exactly what the full launch would.
  const sim::Dim3 log = logical.x > 0 ? logical : grid;
  sim::Dim3 g1 = grid, g2 = grid, o2 = offset;
  if (grid.x >= grid.y && grid.x >= grid.z) {
    g1.x = grid.x / 2;
    g2.x = grid.x - g1.x;
    o2.x += g1.x;
  } else if (grid.y >= grid.z) {
    g1.y = grid.y / 2;
    g2.y = grid.y - g1.y;
    o2.y += g1.y;
  } else {
    g1.z = grid.z / 2;
    g2.z = grid.z - g1.z;
    o2.z += g1.z;
  }
  ++degraded_events_;
  resil::counters().split_launches.fetch_add(1, std::memory_order_relaxed);
  if (prof::enabled()) {
    prof::recorder().record_instant("resil", "split_launch");
  }
  GPC_LOG(Info) << "resil: splitting " << ck.name() << " grid ("
                << grid.x << "," << grid.y << "," << grid.z
                << ") after repeated OutOfResources (depth " << depth << ")";
  sim::LaunchResult r1 = launch_resilient(ck, g1, block, args,
                                          dynamic_shared_bytes, offset, log,
                                          depth + 1);
  sim::LaunchResult r2 = launch_resilient(ck, g2, block, args,
                                          dynamic_shared_bytes, o2, log,
                                          depth + 1);
  // Merge as if one launch had run: order-independent sums for stats and
  // the timing components, concatenated sanitizer findings.
  r1.stats.total.merge(r2.stats.total);
  for (std::size_t i = 0; i < r1.stats.sm_issue_weight.size() &&
                          i < r2.stats.sm_issue_weight.size();
       ++i) {
    r1.stats.sm_issue_weight[i] += r2.stats.sm_issue_weight[i];
  }
  r1.stats.blocks += r2.stats.blocks;
  r1.timing.seconds += r2.timing.seconds;
  r1.timing.launch_s += r2.timing.launch_s;
  r1.timing.issue_s += r2.timing.issue_s;
  r1.timing.dram_s += r2.timing.dram_s;
  r1.sanitizer.findings.insert(r1.sanitizer.findings.end(),
                               r2.sanitizer.findings.begin(),
                               r2.sanitizer.findings.end());
  r1.sanitizer.dropped += r2.sanitizer.dropped;
  // AIWC features merge like BlockStats: order-independent sums, so the
  // split result is bit-identical to the whole-grid launch.
  if (!r1.aiwc) {
    r1.aiwc = r2.aiwc;
  } else if (r2.aiwc) {
    r1.aiwc->merge(*r2.aiwc);
  }
  return r1;
}

double DeviceSession::kernel_seconds() const {
  return cuda_ ? cuda_->kernel_seconds() : ocl_queue_->kernel_seconds();
}

double DeviceSession::transfer_seconds() const {
  return cuda_ ? cuda_->transfer_seconds() : ocl_queue_->transfer_seconds();
}

int DeviceSession::launches() const {
  return cuda_ ? cuda_->launches() : ocl_queue_->launches();
}

double DeviceSession::launch_seconds() const {
  return cuda_ ? cuda_->launch_seconds() : ocl_queue_->launch_seconds();
}

double DeviceSession::issue_seconds() const {
  return cuda_ ? cuda_->issue_seconds() : ocl_queue_->issue_seconds();
}

double DeviceSession::dram_seconds() const {
  return cuda_ ? cuda_->dram_seconds() : ocl_queue_->dram_seconds();
}

const sim::Occupancy& DeviceSession::last_occupancy() const {
  return cuda_ ? cuda_->last_occupancy() : ocl_queue_->last_occupancy();
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
