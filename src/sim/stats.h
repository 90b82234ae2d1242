// Dynamic execution statistics collected by the interpreter and consumed by
// the timing model. BlockStats is accumulated single-threadedly per block;
// LaunchStats merges blocks (order-independent sums) plus per-SM attribution
// for load-imbalance modelling.
#pragma once

#include <cstdint>
#include <vector>

namespace gpc::sim {

struct BlockStats {
  // Warp-instruction issue counts by cost category.
  std::uint64_t alu_issues = 0;   // fp arithmetic and other full-rate ops
  std::uint64_t ialu_issues = 0;  // 32-bit integer/logic ops — these
                                  // co-issue with the fp pipe at half cost
  std::uint64_t agu_issues = 0;   // 64-bit address chains — quarter cost,
                                  // folded into the LSU address path
  std::uint64_t mad_issues = 0;   // mad/fma (GT200 co-issue candidate, 2 flops)
  std::uint64_t mul_issues = 0;   // fp mul (GT200 co-issue candidate)
  std::uint64_t sfu_issues = 0;   // transcendental / rcp / rsqrt / fp div
  std::uint64_t branch_issues = 0;
  std::uint64_t mem_issues = 0;   // global/local/tex ld/st warp instructions
  std::uint64_t shared_cycles = 0;  // bank-conflict-adjusted shared accesses
  std::uint64_t const_cycles = 0;   // broadcast=1, divergent=#distinct addrs
  std::uint64_t barrier_count = 0;

  // Memory system.
  std::uint64_t dram_read_bytes = 0;   // after coalescing and caches
  std::uint64_t dram_write_bytes = 0;
  std::uint64_t dram_transactions = 0;
  std::uint64_t useful_global_bytes = 0;  // requested by lanes (efficiency)
  std::uint64_t local_bytes = 0;          // .local traffic (spills/arrays)
  std::uint64_t tex_requests = 0;
  std::uint64_t tex_hits = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t atomic_serial_ops = 0;

  // Dynamic instruction mix: one bump per scheduler-issued warp instruction,
  // indexed by sim::XKind (16 buckets). Engine-invariant: the production
  // engine issues the same warp-instruction sequence as the min-PC oracle,
  // so these compare bit-for-bit (locked by tests/dispatch_test.cpp).
  // Exported per launch via GPC_PROF=counters.
  std::uint64_t xkind_issues[16] = {};

  // Superinstruction execution: groups dispatched fused, total and per
  // sim::FusedPattern. These are diagnostics of HOW the interpreter ran, not
  // of what the kernel did — they legitimately differ between the
  // production engine and the min-PC oracle (which never executes fused
  // groups). Cross-engine comparisons must exclude them.
  std::uint64_t fused_groups = 0;
  std::uint64_t fused_exec[4] = {};

  // Divergence structure diagnostics from the cohort scheduler (DESIGN.md
  // §15): branch splits, cohort merges, the peak number of simultaneously
  // live cohorts in one warp, and the deepest reconvergence-stack nesting
  // seen. Like fused_*, these describe HOW the interpreter ran — the min-PC
  // oracle reports zeros — so cross-engine comparisons must exclude them.
  // splits/merges sum across blocks; the two maxima merge by max.
  std::uint64_t cohort_splits = 0;
  std::uint64_t cohort_merges = 0;
  std::uint32_t cohort_max_live = 0;
  std::uint32_t div_depth_max = 0;

  double flops = 0;  // per-lane floating point operations executed

  void merge(const BlockStats& o) {
    alu_issues += o.alu_issues;
    ialu_issues += o.ialu_issues;
    agu_issues += o.agu_issues;
    mad_issues += o.mad_issues;
    mul_issues += o.mul_issues;
    sfu_issues += o.sfu_issues;
    branch_issues += o.branch_issues;
    mem_issues += o.mem_issues;
    shared_cycles += o.shared_cycles;
    const_cycles += o.const_cycles;
    barrier_count += o.barrier_count;
    dram_read_bytes += o.dram_read_bytes;
    dram_write_bytes += o.dram_write_bytes;
    dram_transactions += o.dram_transactions;
    useful_global_bytes += o.useful_global_bytes;
    local_bytes += o.local_bytes;
    tex_requests += o.tex_requests;
    tex_hits += o.tex_hits;
    l1_hits += o.l1_hits;
    atomic_serial_ops += o.atomic_serial_ops;
    for (int i = 0; i < 16; ++i) xkind_issues[i] += o.xkind_issues[i];
    fused_groups += o.fused_groups;
    for (int i = 0; i < 4; ++i) fused_exec[i] += o.fused_exec[i];
    cohort_splits += o.cohort_splits;
    cohort_merges += o.cohort_merges;
    if (o.cohort_max_live > cohort_max_live) cohort_max_live = o.cohort_max_live;
    if (o.div_depth_max > div_depth_max) div_depth_max = o.div_depth_max;
    flops += o.flops;
  }

  std::uint64_t dram_bytes() const { return dram_read_bytes + dram_write_bytes; }
};

struct LaunchStats {
  BlockStats total;
  /// Per-SM issue-weight attribution (sum of per-block issue weights routed
  /// round-robin); the timing model takes the max for load imbalance.
  std::vector<double> sm_issue_weight;
  int blocks = 0;
  int threads_per_block = 0;

  /// Fusion provenance of this launch, carried into the prof counters
  /// export: the decode pass's fusion census of the kernel
  /// (sim::FusionStats) — program length, micro-ops covered by fused
  /// groups, and groups per sim::FusedPattern. Like BlockStats::fused_*,
  /// these describe how the interpreter ran, not what the kernel computed.
  std::uint32_t static_ops = 0;
  std::uint32_t static_fused_ops = 0;
  std::uint32_t static_fused_groups[4] = {};
};

}  // namespace gpc::sim
