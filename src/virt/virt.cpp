#include "virt/virt.h"

#include <algorithm>
#include <exception>
#include <string>

#include "common/error.h"
#include "sim/timing.h"

namespace gpc::virt {

std::uint64_t issue_steps(const sim::BlockStats& s) {
  return s.alu_issues + s.ialu_issues + s.agu_issues + s.mad_issues +
         s.mul_issues + s.sfu_issues + s.branch_issues + s.mem_issues;
}

// ---------------------------------------------------------------------------
// TenantQueue

sim::LaunchResult TenantQueue::launch(const arch::DeviceSpec& spec,
                                      const arch::RuntimeSpec& runtime,
                                      const compiler::CompiledKernel& ck,
                                      const sim::LaunchConfig& config,
                                      std::span<const sim::KernelArg> args,
                                      sim::DeviceMemory& mem,
                                      std::span<const sim::TexBinding> textures) {
  GPC_REQUIRE(config.grid.count() > 0, "empty grid");

  Job job;
  job.spec = &spec;
  job.runtime = &runtime;
  job.ck = &ck;
  job.cfg = config;
  job.args = args;
  job.mem = &mem;
  job.textures = textures;
  job.total_blocks = config.grid.count();

  // Per-tenant fault injection, sampled HERE — on the submitting thread, in
  // this tenant's program order — so a tenant's fault sequence is a pure
  // function of its own plan and launch sequence, never of how the
  // scheduler happened to interleave tenants. This is what makes the virt
  // soak's outcome vector replayable bit-for-bit under real concurrency. A
  // hung launch never occupies the shared device.
  if (plan_ && plan_->armed()) {
    try {
      job.midgrid = resil::sample_launch_faults(
          *plan_, ck.name() + " [tenant " + std::to_string(id_) + "]",
          spec.short_name, job.total_blocks);
    } catch (const Error&) {
      faults_.fetch_add(1, std::memory_order_relaxed);
      throw;
    }
  }

  mgr_->run_job(*this, job);

  if (job.error) {
    faults_.fetch_add(1, std::memory_order_relaxed);
    std::rethrow_exception(job.error);
  }
  launches_.fetch_add(1, std::memory_order_relaxed);
  return std::move(job.acc);
}

void TenantQueue::set_fault_plan(std::unique_ptr<resil::FaultPlan> plan) {
  plan_ = std::move(plan);
}

void TenantQueue::note_alloc(std::size_t used_now) {
  mem_used_.store(used_now, std::memory_order_relaxed);
  std::uint64_t peak = mem_peak_.load(std::memory_order_relaxed);
  while (used_now > peak &&
         !mem_peak_.compare_exchange_weak(peak, used_now,
                                          std::memory_order_relaxed)) {
  }
}

void TenantQueue::note_mem_reset() {
  mem_used_.store(0, std::memory_order_relaxed);
}

void TenantQueue::note_quota_rejection() {
  quota_rejections_.fetch_add(1, std::memory_order_relaxed);
}

TenantStats TenantQueue::stats() const {
  TenantStats s;
  s.id = id_;
  s.weight = weight_;
  s.quota_bytes = quota_;
  s.launches = launches_.load(std::memory_order_relaxed);
  s.slices = slices_.load(std::memory_order_relaxed);
  s.preemptions = preemptions_.load(std::memory_order_relaxed);
  s.steps = steps_.load(std::memory_order_relaxed);
  s.contended_steps = contended_steps_.load(std::memory_order_relaxed);
  s.faults = faults_.load(std::memory_order_relaxed);
  s.quota_rejections = quota_rejections_.load(std::memory_order_relaxed);
  s.mem_used = mem_used_.load(std::memory_order_relaxed);
  s.mem_peak = mem_peak_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mgr_->mu_);
  s.credits = credits_;
  return s;
}

// ---------------------------------------------------------------------------
// VirtualDeviceManager

VirtualDeviceManager::VirtualDeviceManager(VirtConfig cfg)
    : cfg_(std::move(cfg)) {
  GPC_REQUIRE(cfg_.tenants >= 1, "virt: tenants must be >= 1");
  GPC_REQUIRE(cfg_.slice > 0, "virt: slice must be > 0");
  cfg_.weights.resize(static_cast<std::size_t>(cfg_.tenants), 1.0);
  for (double w : cfg_.weights) {
    GPC_REQUIRE(w > 0, "virt: weights must be positive");
  }
  if (cfg_.quota_bytes == 0) {
    cfg_.quota_bytes = cfg_.phys_bytes / static_cast<std::size_t>(cfg_.tenants);
  }
  GPC_REQUIRE(cfg_.quota_bytes > 256,
              "virt: per-tenant quota too small for the null page");
  // Refuse to over-carve the physical DRAM: quotas are hard reservations,
  // not ballast — a tenant inside its quota must never hit a neighbour's
  // allocation pressure.
  GPC_REQUIRE(cfg_.quota_bytes * static_cast<std::size_t>(cfg_.tenants) <=
                  cfg_.phys_bytes,
              "virt: tenants * quota exceeds physical memory");

  tenants_.reserve(static_cast<std::size_t>(cfg_.tenants));
  for (int i = 0; i < cfg_.tenants; ++i) {
    tenants_.emplace_back(new TenantQueue(
        this, i, cfg_.weights[static_cast<std::size_t>(i)], cfg_.quota_bytes));
  }
}

VirtualDeviceManager::~VirtualDeviceManager() = default;

TenantQueue& VirtualDeviceManager::tenant(int id) {
  GPC_REQUIRE(id >= 0 && id < tenants(), "tenant id out of range");
  return *tenants_[static_cast<std::size_t>(id)];
}

std::size_t VirtualDeviceManager::quota(int id) {
  return tenant(id).quota();
}

std::vector<TenantStats> VirtualDeviceManager::stats() const {
  std::vector<TenantStats> out;
  out.reserve(tenants_.size());
  for (const auto& t : tenants_) out.push_back(t->stats());
  return out;
}

void VirtualDeviceManager::run_job(TenantQueue& t, Job& job) {
  std::unique_lock<std::mutex> lk(mu_);
  t.jobs_.push_back(&job);
  if (t.jobs_.size() == 1) runnable_.fetch_add(1, std::memory_order_relaxed);
  cv_.notify_all();

  while (!job.done) {
    if (!driving_) {
      // Become the driver: execute slices across ALL tenants in credit
      // order until our own job completes, then hand the role off. The
      // device is effectively this lock — one slice runs at a time, just
      // like the single simulated device the timing model prices.
      driving_ = true;
      drive(lk, job);
      driving_ = false;
      cv_.notify_all();
    } else {
      cv_.wait(lk, [&] { return job.done || !driving_; });
    }
  }
}

TenantQueue* VirtualDeviceManager::pick_next() {
  auto best = [this]() -> TenantQueue* {
    TenantQueue* b = nullptr;
    for (const auto& t : tenants_) {
      if (t->jobs_.empty()) continue;
      if (!b || t->credits_ > b->credits_) b = t.get();
    }
    return b;
  };
  TenantQueue* b = best();
  if (b && b->credits_ <= 0) {
    refill_credits();
    b = best();
  }
  return b;
}

void VirtualDeviceManager::refill_credits() {
  // Xen-credit-style refill: when every runnable tenant has exhausted its
  // credits, grant one scheduling round's worth — one slice per runnable
  // tenant — divided proportionally to weight. Debits are the actual
  // warp-instruction issues executed while contended, so long-run contended
  // steps converge to the weight ratios regardless of per-launch
  // granularity.
  double wsum = 0;
  int runnable = 0;
  for (const auto& t : tenants_) {
    if (t->jobs_.empty()) continue;
    wsum += t->weight_;
    ++runnable;
  }
  if (runnable == 0 || wsum <= 0) return;
  const double round = static_cast<double>(cfg_.slice) * runnable;
  for (const auto& t : tenants_) {
    if (t->jobs_.empty()) continue;
    const double grant = round * (t->weight_ / wsum);
    t->credits_ += grant;
    // Cap at two rounds so a tenant that ran shorter slices than granted
    // cannot bank unbounded credit and later monopolise the device.
    t->credits_ = std::min(t->credits_, 2 * grant);
  }
}

void VirtualDeviceManager::drive(std::unique_lock<std::mutex>& lk,
                                 const Job& until_done) {
  while (!until_done.done) {
    TenantQueue* t = pick_next();
    GPC_CHECK(t != nullptr, "virt scheduler: driver's job lost");
    run_slice(lk, *t, *t->jobs_.front());
  }
}

void VirtualDeviceManager::run_slice(std::unique_lock<std::mutex>& lk,
                                     TenantQueue& t, Job& j) {
  auto contended_now = [&] {
    return runnable_.load(std::memory_order_relaxed) >= 2 || cfg_.force_slice;
  };

  auto complete = [&](std::exception_ptr err) {
    // Called with mu_ held: commit completion and wake the submitter.
    j.error = std::move(err);
    j.done = true;
    t.jobs_.pop_front();
    if (t.jobs_.empty()) runnable_.fetch_sub(1, std::memory_order_relaxed);
    cv_.notify_all();
  };

  std::uint64_t consumed = 0;
  std::uint64_t contended_consumed = 0;
  t.slices_.fetch_add(1, std::memory_order_relaxed);

  if (tenants_.size() == 1 && !cfg_.force_slice && j.midgrid.victim < 0) {
    // Work-conserving fast path, single-tenant managers only (nothing can
    // ever contend): execute the whole launch exactly as the unvirtualized
    // path would — one sim::launch_kernel call, unmodified config. The
    // scheduler adds only this function's bookkeeping (the <=2% A/B bar).
    // Multi-tenant managers always take the chunked path below, because a
    // whole-grid chunk could not notice a neighbour arriving mid-launch.
    lk.unlock();
    std::exception_ptr err;
    try {
      j.acc = sim::launch_kernel(*j.spec, *j.runtime, *j.ck, j.cfg, j.args,
                                 *j.mem, j.textures);
      consumed = issue_steps(j.acc.stats.total);
    } catch (...) {
      err = std::current_exception();
    }
    lk.lock();
    t.steps_.fetch_add(consumed, std::memory_order_relaxed);  // uncontended
    complete(std::move(err));
    return;
  }

  // Sliced path: execute sub-grid chunks through the PR 5 split-launch
  // mechanism until the slice quantum is consumed or the job completes.
  // Chunks are runs of blocks within one x-row of the job's grid, so every
  // chunk is expressible as a (n,1,1) box at a grid_offset; kernels observe
  // logical CtaId/NCtaId via logical_grid, which is what makes a
  // preempted-and-resumed grid bit-identical to the unsliced launch.
  //
  // The quantum is only ENFORCED while contended, but contention is
  // re-sampled at every chunk boundary: an uncontended tenant keeps running
  // slice-sized chunks without yielding (work conservation), and a
  // neighbour that submits mid-launch is noticed within one slice's worth
  // of steps — not at the next launch boundary, where two ping-ponging
  // tenants would each always look uncontended and never interleave.
  const sim::Dim3 logical = j.cfg.logical();
  const long long gx = j.cfg.grid.x;
  const long long gy = j.cfg.grid.y;

  while (!j.done) {
    const bool contended = contended_now();
    const std::uint64_t budget =
        contended ? (cfg_.slice > consumed ? cfg_.slice - consumed
                                           : std::uint64_t{1})
                  : cfg_.slice;
    // Chunk size: calibrate on one block, then fit the remaining quantum
    // using the measured steps-per-block of this job's earlier chunks.
    long long chunk =
        j.est_steps_per_block > 0
            ? std::max<long long>(
                  1, static_cast<long long>(static_cast<double>(budget) /
                                            j.est_steps_per_block))
            : 1;
    chunk = std::min(chunk, j.total_blocks - j.next_block);
    // Clamp to the end of the current x-row so the chunk stays a box.
    const long long col = j.next_block % gx;
    chunk = std::min(chunk, gx - col);

    // Injected mid-grid fault: execute up to the victim block, then fail
    // the job at exactly that block — deterministic regardless of how the
    // grid was sliced.
    if (j.midgrid.victim >= j.next_block) {
      if (j.midgrid.victim == j.next_block) {
        complete(std::make_exception_ptr(
            DeviceFault(j.midgrid.detail + " (block " +
                        std::to_string(j.midgrid.victim) + "/" +
                        std::to_string(j.total_blocks) + ")")));
        break;
      }
      chunk = std::min(chunk, j.midgrid.victim - j.next_block);
    }

    sim::LaunchConfig sub = j.cfg;
    sub.grid = {static_cast<int>(chunk), 1, 1};
    const long long row = j.next_block / gx;
    sub.grid_offset.x = j.cfg.grid_offset.x + static_cast<int>(col);
    sub.grid_offset.y = j.cfg.grid_offset.y + static_cast<int>(row % gy);
    sub.grid_offset.z = j.cfg.grid_offset.z + static_cast<int>(row / gy);
    sub.logical_grid = logical;
    if (sub.step_budget == 0) sub.step_budget = cfg_.block_budget;

    lk.unlock();
    sim::LaunchResult res;
    std::exception_ptr err;
    try {
      res = sim::launch_kernel(*j.spec, *j.runtime, *j.ck, sub, j.args, *j.mem,
                               j.textures);
    } catch (...) {
      err = std::current_exception();
    }
    lk.lock();

    if (err) {
      // Fault isolation: the failure is parked on THIS tenant's job and
      // rethrown on its submitting thread; the scheduler itself never
      // unwinds, and no other tenant observes anything but time.
      complete(std::move(err));
      break;
    }

    const std::uint64_t chunk_steps = issue_steps(res.stats.total);
    consumed += chunk_steps;
    if (contended) contended_consumed += chunk_steps;
    j.est_steps_per_block = static_cast<double>(chunk_steps) /
                            static_cast<double>(chunk);

    sim::merge_partial(j.acc, std::move(res));

    j.next_block += chunk;
    if (j.next_block == j.total_blocks) {
      // Logical launch complete: price it ONCE from the merged statistics,
      // exactly as the unsliced launch would be priced — a launch split
      // into 100 slices is charged one launch overhead, not 100.
      j.acc.timing =
          sim::time_kernel(*j.spec, *j.runtime, *j.ck, j.cfg, j.acc.stats);
      complete(nullptr);
      break;
    }
    if (contended_now() && consumed >= cfg_.slice) {
      // Quantum exhausted mid-grid while contended: checkpoint (next_block)
      // and yield to the credit scheduler.
      t.preemptions_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }

  // Only steps executed while another tenant was runnable are debited.
  // Work done on an otherwise idle device (a neighbour between two of its
  // launches) costs nothing: debiting it would let a tenant that ran alone
  // for a few hundred thousand steps sink into a debt it then repays while
  // contended, starving it far below its weight.
  t.credits_ -= static_cast<double>(contended_consumed);
  t.steps_.fetch_add(consumed, std::memory_order_relaxed);
  t.contended_steps_.fetch_add(contended_consumed, std::memory_order_relaxed);
}

}  // namespace gpc::virt
