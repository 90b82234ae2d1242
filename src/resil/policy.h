// gpc::resil policy — what the launch paths *do* about faults.
//
// The injection layer (resil/fault.h) makes launches fail; this header
// decides the response. harness::DeviceSession consults the active policy on
// every failed operation:
//
//   * transient faults (TransientFault, DeviceFault, non-structural
//     OutOfResources) -> bounded retry with exponential backoff and
//     deterministic jitter (same SplitMix64 discipline as the fault plan, so
//     a replayed chaos run backs off identically);
//   * structural OutOfResources (the kernel genuinely does not fit the
//     device — probed against sim::compute_occupancy, which consumes no
//     injection samples) -> when degradation is enabled, either a
//     split-launch (half the grid per attempt, results merged) for
//     grid-shaped pressure, or degraded execution (the occupancy clamp +
//     emulation timing penalty of sim/timing.cpp) for per-block pressure;
//     the benchmark layer reports such completions as "DEG";
//   * runaway launches -> the per-launch watchdog arms PR 2's step budget
//     (GPC_WATCHDOG) so a hung kernel becomes a classified DeviceFault.
//
// Environment knobs (all off by default; parsed per query so tests can
// toggle them, with the strict common/config.h grammar):
//   GPC_RETRY="N[:base_us[:seed]]"  max retries, backoff base, jitter seed
//   GPC_DEGRADE=0|1                 enable split-launch + degraded exec
//   GPC_WATCHDOG=N                  per-launch step budget when none is set
#pragma once

#include <cstdint>
#include <optional>

namespace gpc::resil {

struct Policy {
  int max_retries = 0;           // 0 = fail on first error (the PR 2 paths)
  double backoff_base_us = 50;   // attempt k sleeps ~base * 2^k (+ jitter)
  std::uint64_t jitter_seed = 1;
  bool degrade = false;          // split-launch / degraded-exec fallbacks
  int max_split_depth = 4;       // split recursion bound (2^4 partial grids)
  std::uint64_t watchdog_budget = 0;  // steps/block; 0 = not configured
};

/// Parses GPC_RETRY / GPC_DEGRADE / GPC_WATCHDOG. A malformed value throws
/// InvalidArgument: a typo must not run with a policy nobody asked for.
Policy policy_from_env();

/// Programmatic override for tests and the chaos harness; nullopt restores
/// env-driven behaviour.
void set_policy_override(const std::optional<Policy>& p);

/// The override when set, else policy_from_env().
Policy active_policy();

/// Deterministic backoff: base_us * 2^attempt, jittered to [50%, 150%] by a
/// SplitMix64 draw of (jitter_seed, attempt, salt). Pure function — the
/// replay guarantee of the chaos soak depends on it.
double backoff_us(const Policy& p, int attempt, std::uint64_t salt);

/// Sleeps for backoff_us (clamped to 50 ms so chaos runs cannot stall).
void backoff_sleep(const Policy& p, int attempt, std::uint64_t salt);

}  // namespace gpc::resil
