// SIMT interpreter: executes one work-group (thread block) of a compiled
// kernel over the device's hardware lockstep width.
//
// Execution model (this is where several of the paper's §V findings emerge):
//  * Work-items are grouped into hardware warps of DeviceSpec::warp_size
//    (32 on NVIDIA, 64 wavefronts on Cypress, 1 on the CPU/Cell runtimes,
//    where work-items run serially to the next barrier).
//  * Within a warp, lanes execute in lockstep with min-PC divergence
//    scheduling: each step executes the instruction at the smallest live PC
//    for exactly the lanes parked there, so divergent branches serialise and
//    reconverge naturally.
//  * Intra-warp memory visibility is per-instruction: all lanes of one
//    executed instruction read before any of them write the next one. A
//    read-modify-write performed by two simultaneously active lanes on the
//    same address therefore loses an update — which is precisely how the
//    RdxS warp-size-32 assumption breaks on a 64-wide wavefront (Table VI's
//    "FL"), and stale reads are how it breaks on the serialising CPU runtime.
//  * Barriers are work-group-wide; a barrier executed by a divergent warp
//    subset faults (illegal in CUDA/OpenCL, and a bug we want loud).
//
// Performance architecture (see DESIGN.md "Simulator performance
// architecture"): instructions execute from the pre-decoded micro-op stream
// (sim/decode.h), and every op's per-lane semantics is defined once, in
// sim/op_semantics.h. Two ways of running a block exist:
//  * the production engine (sim/interp_threaded.cpp): a warp whose live
//    lanes all share one PC runs on the convergent fast path — computed-goto
//    dispatch over contiguous, vectorizable lane loops with superinstruction
//    fusion. A diverged warp runs on the reconvergence-stack cohort
//    scheduler (DESIGN.md §15): lanes group into per-PC cohorts kept sorted
//    by pc, and the min-pc cohort executes straight-line through the same
//    computed-goto engine until it reaches the next cohort's pc, reproducing
//    the min-PC issue order exactly;
//  * the oracle: the per-step min-PC scheduler over exec_memory /
//    exec_compute, selected only by set_convergent_fast_path(false), which
//    the differential tests use to lock the production engine bit-for-bit.
// All block-local storage lives in a caller-owned ExecArena so repeated
// block executions reuse allocations.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "aiwc/aiwc.h"
#include "arch/device_spec.h"
#include "common/error.h"
#include "ir/function.h"
#include "sim/cache.h"
#include "sim/decode.h"
#include "sim/memory.h"
#include "sim/sanitizer.h"
#include "sim/stats.h"

namespace gpc::sim {

struct Dim3 {
  int x = 1, y = 1, z = 1;
  long long count() const {
    return static_cast<long long>(x) * y * z;
  }
};

struct LaunchConfig {
  Dim3 grid;
  Dim3 block;
  int dynamic_shared_bytes = 0;
  /// Checks to run for this launch, OR-ed with GPC_SIM_SANITIZE from the
  /// environment by launch_kernel. All off (the default) costs nothing.
  SanitizeOptions sanitize;
  /// Per-block instruction budget; 0 means the resilience watchdog
  /// (GPC_WATCHDOG, or the policy override), then the built-in ~8G-step
  /// runaway-kernel backstop.
  std::uint64_t step_budget = 0;
  /// Split-launch support (resil policy layer): this launch executes the
  /// sub-grid `grid` at block-id offset `grid_offset` of a logical grid of
  /// `logical_grid` blocks. Kernels observe logical coordinates (CtaId is
  /// offset, NCtaId reports logical_grid), so a grid halved by the policy
  /// layer computes exactly what the single full launch would. logical_grid
  /// all-zero (the default) means "not split": the grid is the whole launch.
  Dim3 grid_offset{0, 0, 0};
  Dim3 logical_grid{0, 0, 0};
  /// The NCtaId / grid-size values kernels should observe.
  const Dim3& logical() const {
    return logical_grid.x > 0 ? logical_grid : grid;
  }
  /// Degraded-execution mode (resil policy layer): per-block resource
  /// overflows (local store, registers, code budget) no longer abort at
  /// occupancy validation; the device model instead runs the kernel as if
  /// the runtime spilled/emulated the excess — occupancy clamps to one
  /// block per SM and the timing model charges an emulation penalty (see
  /// sim/timing.cpp). Functional results are unaffected. This is how Table
  /// VI's four Cell/BE ABTs complete as "DEG" when degradation is enabled.
  bool degraded_exec = false;
  /// Architecture-independent workload characterization (gpc::aiwc,
  /// DESIGN.md §16). OR-ed with GPC_AIWC from the environment by
  /// launch_kernel. Off (the default) costs one null test per hook site.
  bool aiwc = false;
};

/// One kernel argument, already encoded into a 64-bit slot per its type.
struct KernelArg {
  ir::Type type = ir::Type::U32;
  std::uint64_t raw = 0;

  static KernelArg ptr(std::uint64_t device_addr);
  static KernelArg s32(std::int32_t v);
  static KernelArg u32(std::uint32_t v);
  static KernelArg f32(float v);
};

/// A texture unit binding (CUDA path only).
struct TexBinding {
  std::uint64_t base = 0;
  std::uint64_t bytes = 0;
  ir::Type elem = ir::Type::F32;
};

/// Test hook selecting how blocks run: enabled (the default) is the
/// production engine; disabled runs every warp on the min-PC oracle, which
/// the differential tests compare against bit-for-bit. Takes effect at
/// BlockExecutor construction.
void set_convergent_fast_path(bool enabled);
bool convergent_fast_path_enabled();

/// Returns a stride-1 pointer to an operand's per-lane values: the register
/// row itself, or the immediate's read-only row of DecodedProgram::imm_rows
/// (kImmRowLanes wide, so lane lists may index it by lane id).
inline const std::uint64_t* lane_src(const MOp& o, const std::uint64_t* regs,
                                     int width,
                                     const std::uint64_t* imm_rows) {
  return o.reg >= 0
             ? regs + static_cast<std::size_t>(o.reg) * width
             : imm_rows + static_cast<std::size_t>(o.row) * kImmRowLanes;
}

/// One divergent-warp PC cohort: the set of lanes (bitmask over lane ids)
/// parked together at `pc`. The scheduler keeps cohorts sorted by pc with
/// DISTINCT pcs — equal-pc cohorts merge on insert — so running the front
/// cohort until it reaches the next cohort's pc reproduces the min-PC issue
/// order exactly. `rpc`/`depth` are reconvergence-stack metadata stamped at
/// branch splits (immediate post-dominators from DecodedProgram::rpc); they
/// feed the BlockStats cohort_*/div_depth_* diagnostics only and never
/// influence execution.
struct Cohort {
  std::int32_t pc = 0;
  std::int32_t rpc = -1;
  std::uint32_t depth = 0;
  std::uint64_t lanes = 0;
};

/// Block-local storage pooled across block executions. launch_kernel keeps
/// one arena per worker thread so the per-block register files, shared
/// memory, PC arrays, cache-model tags and scratch vectors are allocated
/// once per worker instead of once per block.
struct ExecArena {
  std::vector<std::int32_t> pc;      // per flat thread id; -1 = exited
  std::vector<std::uint64_t> regs;   // num_vregs * width, per warp
  std::vector<std::uint8_t> local;   // local_bytes * width, per warp
  std::vector<std::uint8_t> shared;
  std::vector<int> mask;             // divergent-path lane list
  std::vector<int> exec;             // guard-filtered lane list
  std::vector<Cohort> cohorts;       // cohort-scheduler work list
  std::vector<int> all_lanes;        // identity 0..warp_size-1
  // Per-lane memory scratch, sized to warp_size once per block.
  std::vector<std::uint64_t> addr, val, seg;
  CacheModel tex_cache;
  CacheModel l1_cache;

  // O(n) stamped scratch for account_shared / account_const: open-address
  // dedup keyed by epoch stamps (no clearing between instructions) plus
  // per-bank conflict degrees. Replaces the sort+unique per shared-memory
  // instruction that dominated convergent MxM profiles.
  std::vector<std::uint64_t> dedup_key;
  std::vector<std::uint64_t> dedup_stamp;
  std::vector<std::uint64_t> bank_stamp;
  std::vector<int> bank_count;
  // Degree-2 proof scratch: two remembered words per bank (2 * banks).
  std::vector<std::uint64_t> bank_word;
  std::uint64_t dedup_epoch = 0;
};

/// Executes one block. `caches` may be null when the device has no texture
/// cache / L1 (stats then count every access as a DRAM transaction).
class BlockExecutor {
 public:
  /// `sanitizer`, when non-null, enables the checking layer for this block
  /// (see sim/sanitizer.h); findings funnel into it from all blocks.
  BlockExecutor(const arch::DeviceSpec& spec, const ir::Function& fn,
                const DecodedProgram& prog, std::span<const KernelArg> args,
                DeviceMemory& mem, std::span<const TexBinding> textures,
                const LaunchConfig& config, Dim3 block_id, ExecArena& arena,
                Sanitizer* sanitizer = nullptr,
                aiwc::Collector* aiwc = nullptr);

  /// Runs the block to completion and returns its statistics.
  /// Throws DeviceFault on illegal kernel behaviour.
  BlockStats run();

 private:
  struct Warp {
    int base = 0;    // first flat thread id in the block
    int width = 0;   // live lanes (last warp may be partial)
    std::int32_t* pc = nullptr;      // [width], into ExecArena::pc
    std::uint64_t* regs = nullptr;   // [num_vregs * width]
    std::uint8_t* local = nullptr;   // [local_bytes * width]
    bool waiting = false;            // parked at a barrier
    // Convergent fast path: when true, all `width` lanes are live at `cpc`
    // and the pc[] array is kept in sync only at mode boundaries.
    bool converged = false;
    int cpc = 0;
    bool finished() const {
      for (int l = 0; l < width; ++l) {
        if (pc[l] >= 0) return false;
      }
      return true;
    }
  };

  // Why the front cohort stopped executing (sim/interp_threaded.cpp).
  enum class CohortStop : std::uint8_t {
    Limit,    // pc reached the next cohort's pc: merge / re-sort
    Split,    // guarded branch partially taken: push two cohorts
    Exited,   // all cohort lanes executed Exit
    Barrier,  // cohort arrived at a Bar: scheduler resolves it
  };

  // One straight-line cohort run through the goto engine. `lanes`/`n` name
  // the cohort's lanes (ascending ids); `pc` is the start pc on entry and
  // the stop pc on return; the run ends as soon as pc >= `limit` (the next
  // cohort's pc, or INT32_MAX for the last cohort). On Split the engine
  // fills `bra_pc` (the branch micro-op), `target`, `taken_mask` (lane-id
  // bits that took the branch) and leaves `pc` at the fallthrough.
  struct CohortRun {
    const int* lanes = nullptr;
    int n = 0;
    std::int32_t pc = 0;
    std::int32_t limit = 0;
    std::int32_t bra_pc = -1;
    std::int32_t target = -1;
    std::uint64_t taken_mask = 0;
  };

  void run_warp(Warp& w);
  // The production engine (sim/interp_threaded.cpp). kCohort=false is the
  // convergent fast path: runs the whole warp from w.cpc until it diverges,
  // parks at a barrier, or finishes (pc[] synced on return; `run` unused).
  // kCohort=true runs one divergent cohort straight-line (see CohortRun).
  template <bool kCohort>
  CohortStop engine_goto(Warp& w, CohortRun& run);
  // Divergent path, cohort scheduler: runs the warp until it reconverges
  // (returns true; caller re-enters the fast path), parks at a barrier, or
  // finishes (returns false). Bit-identical to looping step().
  bool run_divergent(Warp& w);
  // The oracle: executes one min-PC step; returns false when the warp
  // cannot make further progress right now (waiting or finished).
  bool step(Warp& w);

  // The oracle's per-lane guard test; the production engine counts the
  // predicate row instead (interp_threaded.cpp guard_count).
  bool guard_pass(const Warp& w, const MicroOp& m, int lane) const {
    if (m.guard < 0) return true;
    const bool p =
        (w.regs[static_cast<std::size_t>(m.guard) * w.width + lane] & 1) != 0;
    return m.guard_negated ? !p : p;
  }

  // Parameter load: broadcasts one kernel argument. Priced as one ALU
  // issue (register-file traffic). Inline, since every warp issues one per
  // parameter it reads.
  void ld_param(const Warp& w, const MicroOp& m, const int* lanes, int n) {
    GPC_CHECK(m.aux >= 0 && m.aux < static_cast<int>(args_.size()));
    std::uint64_t* const d =
        w.regs + static_cast<std::size_t>(m.dst) * w.width;
    const std::uint64_t v = args_[m.aux].raw;
    for (int i = 0; i < n; ++i) d[lanes[i]] = v;
    stats_.alu_issues++;
  }

  // Generic per-lane-list execution of one micro-op: the oracle runs every
  // op through these, the production engine its guarded, rare and
  // sanitized ones.
  void exec_memory(Warp& w, const MicroOp& m, const int* lanes, int n);
  void exec_compute(Warp& w, const MicroOp& m, const int* lanes, int n);
  // Runtime-typed compute fallback (XOp::ComputeOther).
  void exec_compute_other(const MicroOp& m, const int* lanes, int n,
                          std::uint64_t* d, const std::uint64_t* a,
                          const std::uint64_t* b, const std::uint64_t* c);
  // Issue-class + flop accounting of one warp instruction over n lanes;
  // fused handlers replay it per component.
  void count_issue(const MicroOp& m, int n) {
    switch (m.issue) {
      case IssueClass::Alu: stats_.alu_issues++; break;
      case IssueClass::IAlu: stats_.ialu_issues++; break;
      case IssueClass::Agu: stats_.agu_issues++; break;
      case IssueClass::Mad: stats_.mad_issues++; break;
      case IssueClass::Mul: stats_.mul_issues++; break;
      case IssueClass::Sfu: stats_.sfu_issues++; break;
    }
    stats_.flops += static_cast<double>(m.flops) * static_cast<double>(n);
  }
  std::uint64_t sreg_value(ir::SReg s, const Warp& w, int lane) const;

  void account_global(const std::uint64_t* addrs, int n, int size,
                      bool is_read);
  void account_shared(const std::uint64_t* addrs, int n);
  void account_const(const std::uint64_t* addrs, int n);

  void check_budget();
  /// Charges `extra` additional budget steps at once (fused groups charge
  /// their full component count before executing; components only write
  /// registers, so a trip mid-group discards the block's state exactly like
  /// a trip between the unfused components would).
  void check_budget_extra(std::uint64_t extra);

  /// Div/Rem-by-zero reporting behind the rows' divz(): the result is 0
  /// (GPU behaviour), and with the sanitizer's memcheck enabled the event is
  /// surfaced as a per-lane "div-by-zero" diagnostic instead of silently
  /// burying it.
  void note_div_by_zero(const MicroOp& m);

  /// Micro-op index of `m` within prog_.ops (the ops vector is contiguous),
  /// used as finding/fault provenance.
  std::int32_t mop_pc(const MicroOp& m) const;

  /// Human-readable description of a divergent barrier: which lanes arrived
  /// and where the remaining live lanes are parked.
  std::string divergence_detail(const Warp& w, const int* arrived, int n,
                                std::int32_t bar_pc) const;

  const arch::DeviceSpec& spec_;
  const ir::Function& fn_;
  const DecodedProgram& prog_;
  std::span<const KernelArg> args_;
  DeviceMemory& mem_;
  std::span<const TexBinding> textures_;
  LaunchConfig config_;
  Dim3 block_id_;
  ExecArena& arena_;

  std::vector<Warp> warps_;
  BlockStats stats_;
  std::uint64_t steps_ = 0;
  std::uint64_t budget_ = 0;
  bool fast_path_ = true;  // production engine; false runs the oracle
  std::unique_ptr<BlockSanitizer> bsan_;  // null when sanitizing is off
  std::unique_ptr<aiwc::BlockAiwc> baiwc_;  // null when aiwc is off
};

}  // namespace gpc::sim
