// Analytical timing model: converts execution statistics into kernel time.
//
// The model is roofline-style with explicit launch overhead:
//
//   T = T_launch + max(T_issue, T_dram / latency_hiding) + T_sync
//
//   T_issue : per-SM issue cycles (ALU/SFU/memory/shared/constant slots,
//             with GT200 mul+mad co-issue credit), load-imbalance via the
//             max over the round-robin block->SM attribution, divided by
//             the calibrated issue efficiency (DeviceSpec::flop_eff_*).
//   T_dram  : DRAM bytes actually moved (after coalescing and caches)
//             divided by TP_BW * calibrated streaming efficiency
//             (DeviceSpec::dram_eff_*).
//   latency_hiding : occupancy-dependent; low resident-warp counts expose
//             memory latency (relevant for small grids, e.g. BFS tails).
//   T_launch: runtime-specific enqueue-to-start latency; the CUDA/OpenCL
//             difference here is the paper's §IV-B.4 BFS finding.
#pragma once

#include "arch/device_spec.h"
#include "compiler/compiled_kernel.h"
#include "sim/interp.h"
#include "sim/stats.h"

namespace gpc::sim {

struct Occupancy {
  int blocks_per_sm = 0;
  int warps_per_block = 0;
  int resident_warps = 0;   // per SM
  double fraction = 0;      // resident / max warps
  const char* limiter = "";  // what capped it
  /// True when the launch only fit via degraded execution
  /// (LaunchConfig::degraded_exec): a per-block resource budget was
  /// exceeded and the device model ran the kernel in spill/emulation mode
  /// instead of aborting. The timing model charges kDegradedPenalty.
  bool degraded = false;
};

/// Slowdown applied to the issue- and memory-bound components of a launch
/// that only fits via degraded execution — the cost of spilling the excess
/// local store / register / code footprint to emulated storage.
inline constexpr double kDegradedPenalty = 4.0;

/// Computes the occupancy for a kernel+config on a device; throws
/// OutOfResources if even a single block does not fit (the Cell/BE "ABT"
/// path of Table VI). With config.degraded_exec set, per-block overflows
/// (local store, registers, code budget) clamp to a degraded occupancy
/// instead of throwing; only the hard work-group size limit still aborts.
Occupancy compute_occupancy(const arch::DeviceSpec& spec,
                            const compiler::CompiledKernel& ck,
                            const LaunchConfig& config);

struct KernelTiming {
  double seconds = 0;       // total, including launch overhead
  double launch_s = 0;
  double issue_s = 0;       // compute/issue bound component
  double dram_s = 0;        // memory bound component (after latency hiding)
  double latency_factor = 1;
  Occupancy occupancy;
};

KernelTiming time_kernel(const arch::DeviceSpec& spec,
                         const arch::RuntimeSpec& runtime,
                         const compiler::CompiledKernel& ck,
                         const LaunchConfig& config, const LaunchStats& stats);

/// Seconds one host<->device copy of `bytes` takes: PCIe time plus the
/// runtime's fixed per-copy overhead.
inline double time_transfer(const arch::DeviceSpec& spec,
                            const arch::RuntimeSpec& runtime,
                            std::size_t bytes) {
  return bytes / (spec.pcie_gb_per_s * 1e9) + runtime.transfer_overhead_s;
}

/// What a runtime accumulates over its launches and copies (event-style
/// timers). The timing-model components say where kernel_s went without
/// re-running under a profiler: launch overhead, issue-bound, memory-bound.
struct LaunchTotals {
  double kernel_s = 0;    // includes per-launch overhead (the BFS analysis)
  double transfer_s = 0;
  double launch_s = 0;
  double issue_s = 0;
  double dram_s = 0;
  int launches = 0;
  /// Occupancy of the most recent launch, including what limited it.
  Occupancy last_occupancy;

  void add(const KernelTiming& t) {
    kernel_s += t.seconds;
    launch_s += t.launch_s;
    issue_s += t.issue_s;
    dram_s += t.dram_s;
    last_occupancy = t.occupancy;
    ++launches;
  }
};

}  // namespace gpc::sim
