#include "sim/launch.h"

#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/thread_pool.h"
#include "resil/fault.h"
#include "resil/policy.h"
#include "sim/decode.h"

namespace gpc::sim {

LaunchResult launch_kernel(const arch::DeviceSpec& spec,
                           const arch::RuntimeSpec& runtime,
                           const compiler::CompiledKernel& ck,
                           const LaunchConfig& config,
                           std::span<const KernelArg> args, DeviceMemory& mem,
                           std::span<const TexBinding> textures) {
  GPC_REQUIRE(config.grid.count() > 0, "empty grid");
  GPC_REQUIRE(ck.num_textures <= static_cast<int>(textures.size()),
              "kernel " + ck.name() + " references unbound texture units");

  // Fault injection (resil). Decisions are drawn once per launch, up front,
  // so the fault sequence is a pure function of the plan's seeds and the
  // host-side launch order — never of block scheduling. Cost when no plan
  // is armed: one relaxed load.
  resil::MidGridFault midgrid;
  if (resil::FaultPlan& plan = resil::plan(); plan.armed()) {
    midgrid = resil::sample_launch_faults(plan, ck.name(), spec.short_name,
                                          config.grid.count());
  }

  // Resource validation happens before any execution — this is the
  // clEnqueueNDRangeKernel CL_OUT_OF_RESOURCES path.
  LaunchResult result;
  result.stats.sm_issue_weight.assign(spec.sm_count, 0.0);
  result.stats.blocks = static_cast<int>(config.grid.count());
  result.stats.threads_per_block = static_cast<int>(config.block.count());
  (void)compute_occupancy(spec, ck, config);

  const DecodedProgram& prog = decoded(ck);  // once per kernel, not per block

  // Fusion provenance for the prof counters export: the decode pass's
  // static fusion census.
  result.stats.static_ops = prog.fusion.total_ops;
  result.stats.static_fused_ops = prog.fusion.fused_ops;
  for (int p = 0; p < kNumFusedPatterns; ++p) {
    result.stats.static_fused_groups[p] = prog.fusion.groups[p];
  }

  // Per-launch knobs: programmatic settings OR-ed with / overridden by the
  // environment (re-read every launch so tests can toggle them).
  LaunchConfig cfg = config;
  cfg.sanitize = config.sanitize | sanitize_options_from_env();
  if (cfg.step_budget == 0) {
    // Per-launch watchdog (resil policy): GPC_WATCHDOG bounds every launch
    // that did not set its own budget, so a hung kernel becomes a
    // classified DeviceFault instead of a wall-clock stall.
    cfg.step_budget = resil::active_policy().watchdog_budget;
  }
  std::unique_ptr<Sanitizer> san;
  if (cfg.sanitize.any()) {
    san = std::make_unique<Sanitizer>(cfg.sanitize, ck.name());
  }
  cfg.aiwc = config.aiwc || aiwc::enabled_from_env();
  std::unique_ptr<aiwc::Collector> awc;
  if (cfg.aiwc) {
    // Static per-pc site table: the fusion-invariant (kind, op, type, flops)
    // facts the feature derivation keys on.
    std::vector<aiwc::SiteInfo> sites(prog.ops.size());
    for (std::size_t i = 0; i < prog.ops.size(); ++i) {
      const MicroOp& m = prog.ops[i];
      sites[i].kind = static_cast<std::uint8_t>(m.kind);
      sites[i].op = static_cast<std::uint8_t>(m.op);
      sites[i].type = static_cast<std::uint8_t>(m.type);
      sites[i].flops = static_cast<std::uint8_t>(m.flops);
    }
    awc = std::make_unique<aiwc::Collector>(
        std::move(sites), static_cast<std::uint64_t>(config.grid.count()),
        result.stats.threads_per_block, spec.warp_size,
        prog.fusion.total_ops, prog.fusion.fused_ops);
  }

  const long long nblocks = config.grid.count();
  // Blocks are attributed to SM buckets by their LOGICAL flat index, so a
  // grid executed as split sub-launches (resil retry ladder, virt
  // time-slicing) lands every block in the same bucket as the single full
  // launch would — merged sm_issue_weight, and hence the load-imbalance
  // term of the timing model, match the unsliced launch. For ordinary
  // launches logical == grid and offset == 0: identical to the plain index.
  const Dim3 logical = cfg.logical();
  const auto block_id = [&](long long flat) {
    // Split launches execute a sub-grid at a logical-grid offset.
    Dim3 bid;
    bid.x = static_cast<int>(flat % config.grid.x) + cfg.grid_offset.x;
    bid.y = static_cast<int>((flat / config.grid.x) % config.grid.y) +
            cfg.grid_offset.y;
    bid.z = static_cast<int>(flat / (static_cast<long long>(config.grid.x) *
                                     config.grid.y)) +
            cfg.grid_offset.z;
    return bid;
  };
  ThreadPool& pool = ThreadPool::shared();

  // Contention-free accumulation: each pool slot owns a BlockStats, merged
  // once below — no mutex on the per-block path. Every BlockStats field is
  // an integer count (flops too, as an exactly representable double), so
  // the merge is order-independent. SM weights are not integers; each
  // block's weight is kept and summed in block order, so they do not depend
  // on which thread ran which block either.
  const std::size_t nslots = pool.slots();
  std::vector<BlockStats> slot_stats(nslots);
  std::vector<double> block_weight(static_cast<std::size_t>(nblocks), 0.0);

  // A mid-grid fault aborts the launch at its victim block. Exactly the
  // blocks before the victim run first — their memory writes persist into a
  // retry, as on a device that faults mid-grid — and none after it, at every
  // thread count: the pool never races past the victim.
  const long long nrun = midgrid.victim >= 0 ? midgrid.victim : nblocks;
  pool.parallel_for_slotted(
      static_cast<std::size_t>(nrun),
      [&](std::size_t slot, std::size_t flat) {
        const Dim3 bid = block_id(static_cast<long long>(flat));
        // One arena per OS thread, reused across blocks and launches so the
        // register file / shared memory / scratch allocations amortise away.
        static thread_local ExecArena arena;
        BlockExecutor exec(spec, ck.fn, prog, args, mem, textures, cfg, bid,
                           arena, san.get(), awc.get());
        BlockStats bs = exec.run();
        block_weight[flat] = issue_cycles_for_attribution(bs, spec);
        slot_stats[slot].merge(bs);
      });
  if (midgrid.victim >= 0) {
    throw DeviceFault(midgrid.detail + " (block " +
                      std::to_string(midgrid.victim) + "/" +
                      std::to_string(nblocks) + ")");
  }

  for (const BlockStats& s : slot_stats) result.stats.total.merge(s);
  for (long long flat = 0; flat < nblocks; ++flat) {
    const Dim3 bid = block_id(flat);
    const long long logical_flat =
        (static_cast<long long>(bid.z) * logical.y + bid.y) * logical.x +
        bid.x;
    result.stats.sm_issue_weight[logical_flat % spec.sm_count] +=
        block_weight[flat];
  }

  result.timing = time_kernel(spec, runtime, ck, config, result.stats);
  if (san) result.sanitizer = san->report();
  if (awc) result.aiwc = awc->take();
  return result;
}

void merge_partial(LaunchResult& into, LaunchResult&& part) {
  if (into.stats.blocks == 0) {
    into = std::move(part);
    return;
  }
  into.stats.total.merge(part.stats.total);
  for (std::size_t i = 0; i < into.stats.sm_issue_weight.size() &&
                          i < part.stats.sm_issue_weight.size();
       ++i) {
    into.stats.sm_issue_weight[i] += part.stats.sm_issue_weight[i];
  }
  into.stats.blocks += part.stats.blocks;
  into.sanitizer.checks = into.sanitizer.checks | part.sanitizer.checks;
  for (auto& f : part.sanitizer.findings) {
    into.sanitizer.findings.push_back(std::move(f));
  }
  into.sanitizer.dropped += part.sanitizer.dropped;
  if (!into.aiwc) {
    into.aiwc = std::move(part.aiwc);
  } else if (part.aiwc) {
    into.aiwc->merge(*part.aiwc);
  }
}

}  // namespace gpc::sim
