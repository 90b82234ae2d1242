// Kernel launch: resource validation, grid iteration, parallel block
// execution on the host thread pool, statistics merge, timing.
#pragma once

#include <span>
#include <vector>

#include "arch/device_spec.h"
#include "compiler/compiled_kernel.h"
#include "sim/interp.h"
#include "sim/memory.h"
#include "sim/stats.h"
#include "sim/timing.h"

namespace gpc::sim {

struct LaunchResult {
  LaunchStats stats;
  KernelTiming timing;
  /// Findings from the opt-in checking layer; `sanitizer.enabled()` is
  /// false (and the report empty) unless LaunchConfig::sanitize or
  /// GPC_SIM_SANITIZE asked for checks.
  SanitizerReport sanitizer;
  /// Raw workload-characterization features (gpc::aiwc); null unless
  /// LaunchConfig::aiwc or GPC_AIWC armed collection. Split/sliced launches
  /// merge sub-launch features in place (aiwc::Features::merge), so the
  /// merged object is bit-identical to one whole-grid launch.
  std::shared_ptr<aiwc::Features> aiwc;
};

/// Runs one kernel grid to completion (functionally) and prices it with the
/// timing model. Throws OutOfResources before touching memory when the
/// kernel does not fit the device (Table VI "ABT"), and DeviceFault on
/// illegal kernel behaviour.
LaunchResult launch_kernel(const arch::DeviceSpec& spec,
                           const arch::RuntimeSpec& runtime,
                           const compiler::CompiledKernel& ck,
                           const LaunchConfig& config,
                           std::span<const KernelArg> args, DeviceMemory& mem,
                           std::span<const TexBinding> textures = {});

/// Folds the result of a partial launch (a split half, a virt slice) into
/// `into` as if one launch had run: order-independent sums of the block
/// statistics, SM weights and block counts, the union of sanitizer checks
/// and findings, and merged AIWC features — so the merged result is
/// bit-identical to the whole-grid launch. An empty `into` (no blocks) takes
/// `part` as it is. Timing is not touched: the caller prices the merge.
void merge_partial(LaunchResult& into, LaunchResult&& part);

/// Internal: per-SM attribution weight of one block (exposed for tests).
double issue_cycles_for_attribution(const BlockStats& s,
                                    const arch::DeviceSpec& spec);

}  // namespace gpc::sim
