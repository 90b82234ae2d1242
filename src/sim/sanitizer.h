// Opt-in device-side checking layer for the SIMT interpreter, modelled on
// the cuda-memcheck tool family:
//
//  * racecheck — shadow state on shared memory (last writer lane / step /
//    micro-op per word, last cross-lane reader per word) flagging the
//    hazards the paper's RdxS failure is made of: same-instruction lockstep
//    write-write conflicts and read-modify-write lost updates (how the
//    warp-leader fold breaks on a 64-wide wavefront), and barrier-free
//    dependencies between threads whose assumed 32-wide warp was split by a
//    narrower hardware warp (how the warp-synchronous scan breaks on the
//    serialising width-1 runtimes). Kernels that are correct under a
//    32-wide lockstep stay silent at warp 32.
//  * memcheck — per-allocation bounds on global memory via the allocation
//    table in DeviceMemory (the bump allocator's whole-heap check silently
//    accepts reads of a *neighbouring* buffer), plus reads of
//    never-written shared memory.
//  * synccheck — divergent barriers are reported with per-lane provenance
//    (which lanes arrived, where the missing ones are parked) instead of
//    faulting, so a launch can finish and surface every site.
//
// The layer is zero-cost when off: launches carry a null Sanitizer pointer
// and the interpreter's only overhead is one predictable branch per memory
// micro-op. Enable per launch via LaunchConfig::sanitize or process-wide
// via GPC_SIM_SANITIZE=race,mem,sync (see README).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace gpc::sim {

class DeviceMemory;

struct SanitizeOptions {
  bool race = false;
  bool mem = false;
  bool sync = false;

  bool any() const { return race || mem || sync; }
};

SanitizeOptions operator|(SanitizeOptions a, SanitizeOptions b);

/// Parses a GPC_SIM_SANITIZE-style spec: a comma-separated subset of
/// {race, mem, sync}, or "all" / "1" for everything. Null or empty means
/// everything off; any other token throws InvalidArgument.
SanitizeOptions parse_sanitize_spec(const char* spec);

/// Reads GPC_SIM_SANITIZE. Deliberately re-read per call (launch_kernel
/// calls it once per launch) so tests can toggle the variable at runtime.
SanitizeOptions sanitize_options_from_env();

enum class SanitizerTool : std::uint8_t { Racecheck, Memcheck, Synccheck };

const char* to_string(SanitizerTool t);

/// One distinct finding site. Findings are deduplicated by
/// (tool, kind, pc): repeated occurrences of the same hazard at the same
/// static micro-op bump `occurrences` instead of flooding the report.
struct SanitizerFinding {
  SanitizerTool tool = SanitizerTool::Racecheck;
  std::string kind;     // stable slug, e.g. "write-write-conflict"
  std::string message;  // human-readable, with lanes / addresses / PCs
  std::string kernel;
  std::int32_t pc = -1;       // micro-op index of the triggering access
  int block[3] = {0, 0, 0};   // block id of the first occurrence
  std::uint64_t occurrences = 1;
  /// For synccheck findings: lane-bitmask of the cohort that arrived at the
  /// faulting barrier (the lanes still live at that PC, not the warp's
  /// pre-split population). 0 when not applicable to the finding.
  std::uint64_t cohort_mask = 0;
};

struct SanitizerReport {
  SanitizeOptions checks;  // which checks ran (all false when off)
  std::vector<SanitizerFinding> findings;
  std::uint64_t dropped = 0;  // distinct sites beyond the per-launch cap

  bool enabled() const { return checks.any(); }
  bool clean() const { return findings.empty() && dropped == 0; }
  /// Human-readable dump (multi-line; empty string when clean).
  std::string to_string() const;
};

/// Launch-scoped finding collector, shared by all blocks of one launch.
/// Thread-safe; blocks execute on the host pool concurrently.
class Sanitizer {
 public:
  Sanitizer(SanitizeOptions opts, std::string kernel_name);

  const SanitizeOptions& options() const { return opts_; }
  const std::string& kernel() const { return kernel_; }

  /// Records one occurrence of a finding. `block` is the reporting block's
  /// id. The first occurrence per (tool, kind, pc) keeps its message and
  /// cohort mask.
  void record(SanitizerTool tool, const char* kind, std::int32_t pc,
              const int block[3], std::string message,
              std::uint64_t cohort_mask = 0);

  SanitizerReport report() const;

 private:
  static constexpr std::size_t kMaxFindings = 64;

  SanitizeOptions opts_;
  std::string kernel_;
  mutable std::mutex mutex_;
  std::vector<SanitizerFinding> findings_;
  std::uint64_t dropped_ = 0;
};

/// Per-block shadow state, owned by one BlockExecutor (blocks do not share
/// shared memory, so no locking on the access path; findings funnel into
/// the launch-wide Sanitizer). All lane ids below are block-flat thread
/// ids; `pc` is the micro-op index into the DecodedProgram.
class BlockSanitizer {
 public:
  BlockSanitizer(Sanitizer& collector, int warp_size,
                 std::size_t shared_bytes, int bx, int by, int bz);

  bool race_on() const { return collector_.options().race; }
  bool mem_on() const { return collector_.options().mem; }
  bool sync_on() const { return collector_.options().sync; }

  /// One lockstep shared-memory load instruction: n active lanes, lane i
  /// reading `size` bytes at byte offset addrs[i].
  void shared_load(const std::uint64_t* addrs, const int* lanes, int n,
                   int base_lane, int size, std::int32_t pc);

  /// One lockstep shared-memory store instruction (values gathered before
  /// any lane writes — the semantics lost updates emerge from).
  void shared_store(const std::uint64_t* addrs, const std::uint64_t* vals,
                    const int* lanes, int n, int base_lane, int size,
                    std::int32_t pc);

  /// Shared atomics serialise in hardware: they update the shadow (the
  /// word becomes initialized, with a known last writer) but are never
  /// themselves a conflict.
  void shared_atomic(const std::uint64_t* addrs, const int* lanes, int n,
                     int base_lane, int size, std::int32_t pc);

  /// Per-allocation bounds for a batch of global addresses (already
  /// validated against the whole heap by DeviceMemory::check).
  void global_batch(const DeviceMemory& mem, const std::uint64_t* addrs,
                    int n, int size, bool is_store, std::int32_t pc);

  /// Reports a divergent barrier with per-lane provenance. `arrived` is the
  /// lane-bitmask of the cohort actually at the barrier (live lanes only —
  /// exited lanes are not named). Returns true when synccheck is on, i.e.
  /// execution should tolerate the barrier (report-and-continue) instead of
  /// faulting.
  bool divergent_barrier(std::int32_t pc, std::uint64_t arrived,
                         const std::string& detail);

  /// Div/Rem with a zero divisor: the device silently produces 0, so with
  /// memcheck enabled the event is surfaced as a diagnostic finding (one
  /// per lane execution, deduplicated per static micro-op like every other
  /// finding) instead of being buried. No-op unless memcheck is on.
  void div_by_zero(std::int32_t pc);

  /// Block-wide barrier release: cross-instruction hazard tracking resets
  /// (a barrier orders every prior access before every later one).
  void barrier_release();

 private:
  struct Word {
    std::int32_t writer = -1;       // flat tid of last write; -1 = none
    std::int32_t write_pc = -1;
    std::uint32_t write_epoch = 0;  // barrier epoch of last write
    std::int32_t reader = -1;       // flat tid of last read since the write
    std::uint32_t read_epoch = 0;
    bool init = false;              // ever written (epoch-independent)
  };

  void report(SanitizerTool tool, const char* kind, std::int32_t pc,
              std::string message, std::uint64_t cohort_mask = 0);
  int warp_of(int flat_tid) const { return flat_tid / warp_size_; }
  /// True when a and b belong to the same ASSUMED 32-wide warp (the width
  /// warp-synchronous kernels are written against) but to different
  /// HARDWARE warps — i.e. warp_size < 32 split the assumed warp and a
  /// barrier-free dependency between them is no longer lockstep-ordered.
  /// Cross-warp dependencies between different assumed warps are out of
  /// scope (they would need a happens-before model and are exactly the
  /// scheduling-luck cases the paper's kernels rely on at width 32).
  bool split_warp(int a, int b) const {
    return warp_of(a) != warp_of(b) && a / 32 == b / 32;
  }

  Sanitizer& collector_;
  int warp_size_;
  int block_[3];
  std::vector<Word> words_;  // one per 4-byte shared-memory word
  std::uint32_t epoch_ = 1;
};

}  // namespace gpc::sim
