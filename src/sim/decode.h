// Pre-decoded micro-op stream.
//
// The interpreter used to re-derive, for every lane of every dynamic
// instruction, facts that are static per *static* instruction: operand kinds
// (register vs immediate), the encoded bit pattern of immediates, the memory
// access width, the issue-class the instruction charges, and its flop count.
// The decode pass flattens each ir::Instr into a MicroOp with all of that
// baked in, so BlockExecutor's hot loops reduce to "load slot or use
// pre-encoded immediate" plus one top-level dispatch on XKind.
//
// On top of XKind the decode pass assigns every micro-op a *widened*
// execution opcode (XOp) that bakes the operation AND the operating type
// into a single dense handler index — `FloatOp`+`Opcode::Add`+`F32` is one
// XOp — so the production engine (sim/interp_threaded.cpp) jumps straight
// to a type-specialised handler with no inner switches. A fusion pass then
// recognises the paper's Table V address idioms (the cvt/and/shl/add chains
// and mul/add pairs the OpenCL front end re-expands per address, and the
// setp/bra compare-and-branch) and marks each group head with a
// superinstruction XOp. Fusion never moves or removes micro-ops: interior
// ops stay in place with their ordinary XOp (branches into the middle of a
// group are excluded by construction, and the min-PC oracle runs each op's
// own XOp, see xop_for), so provenance (micro-op indices), branch targets, and
// the divergent path are untouched. Fused handlers replay the component
// ops' issue-class/flop/step accounting one by one, which is why every
// counter stays bit-identical to unfused execution.
//
// Decoding runs once per CompiledKernel (cached on it via
// compiler::KernelCache) rather than once per block or launch.
#pragma once

#include <cstdint>
#include <vector>

#include "compiler/compiled_kernel.h"
#include "ir/function.h"
#include "sim/op_semantics.h"

namespace gpc::sim {

/// Top-level execution dispatch, hoisting the Opcode/Space/Type re-switching
/// out of the per-step path. Memory kinds correspond to ir::Space.
enum class XKind : std::uint8_t {
  Bra,
  Exit,
  Bar,
  LdParam,
  MemGlobal,
  MemShared,
  MemLocal,
  MemConst,
  MemTex,
  ReadSReg,
  Mov,
  Cvt,
  SetP,
  SelP,
  FloatOp,  // generic float arithmetic (switch on op inside)
  IntOp,    // generic integer/predicate arithmetic
};

constexpr int kNumXKinds = 16;

/// Lower-snake-case kind name ("mem_shared", "float_op", ...) for the prof
/// counters export and the Table V fused-idiom report.
const char* to_string(XKind k);

/// Issue-class accounting bucket, precomputed from (op, type).
enum class IssueClass : std::uint8_t { Alu, IAlu, Agu, Mad, Mul, Sfu };

// ---------------------------------------------------------------------------
// Widened execution opcodes. The X-macro lists below generate both the XOp
// enum and, in interp_threaded.cpp, the computed-goto handler table — the
// two MUST stay generated from the same lists so indices and labels agree.

// Handlers that dispatch on something other than (op, type): control flow,
// memory (per state space), moves/selects, conversions (by float-ness of
// source and destination), compares (by operand type), a generic fallback
// for rare combinations (e.g. predicate-typed arithmetic), and the fused
// superinstructions.
#define GPC_XOP_BASIC(X)                                                  \
  X(Exit) X(Bar) X(Bra)                                                   \
  X(LdParam) X(MemGlobal) X(MemShared) X(MemLocal) X(MemConst) X(MemTex)  \
  X(ReadSReg) X(Mov) X(SelP)                                              \
  X(CvtFF) X(CvtFI) X(CvtIF) X(CvtII)                                     \
  X(SetpF32) X(SetpF64) X(SetpS32) X(SetpU32) X(SetpU64)                  \
  X(ComputeOther)                                                         \
  X(FusedAddrGen) X(FusedShlAdd) X(FusedMulAdd) X(FusedSetpBra)

// Float and integer arithmetic (sim/op_semantics.h rows): every float op
// exists as an F32 and an F64 handler, every integer op as an S32, U32 and
// U64 handler.
enum class XOp : std::uint16_t {
#define GPC_X(name) name,
  GPC_XOP_BASIC(GPC_X)
#undef GPC_X
#define GPC_X(name, ...) F32##name, F64##name,
  GPC_XOP_FLOAT_OPS(GPC_X)
#undef GPC_X
#define GPC_X(name, ...) S32##name, U32##name, U64##name,
  GPC_XOP_INT_OPS(GPC_X)
#undef GPC_X
  Count,
};

constexpr int kNumXOps = static_cast<int>(XOp::Count);

/// Superinstruction patterns recognised by the fusion pass (paper Table V:
/// the OpenCL front end re-expands address math per access — cvt/and/shl/add
/// chains and mul/add pairs — where the CUDA front end emits mad; setp/bra
/// is the ubiquitous compare-and-branch of both front ends).
enum class FusedPattern : std::uint8_t {
  AddrGen,  // cvt.u64 + and.u64 imm + shl.u64 imm + add.u64 (global address)
  ShlAdd,   // shl imm + add consuming it (shared/global address tail)
  MulAdd,   // mul + add consuming it (the mad idiom, int or float)
  SetpBra,  // setp + bra guarded on its predicate
};

constexpr int kNumFusedPatterns = 4;

const char* to_string(FusedPattern p);

/// Lanes per immediate row: the widest lockstep width (the HD5870's 64-wide
/// wavefront), so a row covers every lane id of every device's warps.
constexpr int kImmRowLanes = 64;

/// A resolved operand: a register slot or a pre-encoded immediate. The
/// immediate is encoded with the type the interpreter would have used at the
/// use site (e.g. U64 for global addresses, the instruction type for values),
/// so fetching it is a plain load with no enc/dec switch. The decode pass
/// also interns every immediate, and every absent operand (value 0), as a
/// read-only row of DecodedProgram::imm_rows, so lane loops read an
/// immediate through the same stride-1 pointer as a register row.
struct MOp {
  std::int32_t reg = -1;   // >= 0: virtual register index
  std::int32_t row = 0;    // reg < 0: imm's row in DecodedProgram::imm_rows
  std::uint64_t imm = 0;   // pre-encoded value when reg < 0
};

struct MicroOp {
  XKind kind = XKind::Exit;
  ir::Opcode op = ir::Opcode::Exit;
  ir::Type type = ir::Type::S32;
  ir::Type src_type = ir::Type::S32;  // Cvt source interpretation
  ir::CmpOp cmp = ir::CmpOp::Eq;
  ir::SReg sreg = ir::SReg::TidX;
  IssueClass issue = IssueClass::Alu;
  std::uint8_t msize = 0;     // size_of(type): memory access width
  std::uint8_t flops = 0;     // per-lane flop count
  bool type_is_float = false;
  bool guard_negated = false;
  /// Widened handler index for the production engine. For the head of a
  /// fused group this is the superinstruction XOp; interior ops keep their
  /// ordinary XOp (direct entry at an interior pc executes them unfused).
  XOp xop = XOp::Exit;
  /// Number of micro-ops covered by the fused group this op heads (>= 2),
  /// or 0 when the op is not a fusion head.
  std::uint8_t fused_len = 0;
  FusedPattern fused_pattern = FusedPattern::AddrGen;  // valid iff fused_len
  std::int32_t dst = -1;
  std::int32_t guard = -1;    // guard predicate vreg (-1 = unconditional)
  std::int32_t target = -1;   // Bra target
  std::int32_t aux = -1;      // Param index / Tex unit
  MOp a, b, c;
};

/// Static fusion census of one decoded program (consumed by the prof
/// counters exporter and bench/table05_ptx_stats, where the CUDA-vs-OpenCL
/// idiom gap of the paper's Table V becomes directly countable).
struct FusionStats {
  std::uint32_t groups[kNumFusedPatterns] = {};
  std::uint32_t fused_ops = 0;  // micro-ops inside fused groups (incl. heads)
  std::uint32_t total_ops = 0;  // program length
  std::uint32_t total_groups() const {
    std::uint32_t s = 0;
    for (std::uint32_t g : groups) s += g;
    return s;
  }
};

struct DecodedProgram final : compiler::KernelCache {
  std::vector<MicroOp> ops;  // 1:1 with ir::Function::body
  FusionStats fusion;
  /// Immediate post-dominator of each micro-op over the micro-op CFG
  /// (-1 = reconverges only at the virtual exit node, or the op cannot
  /// reach exit). Computed once per kernel. The cohort scheduler stamps
  /// rpc[branch_pc] on every divergent split as the expected reconvergence
  /// point; it feeds the divergence-depth/cohort diagnostics only — merging
  /// itself is order-based (sorted cohorts, min-pc first), so execution
  /// never depends on this table.
  std::vector<std::int32_t> rpc;
  /// kImmRowLanes copies of each distinct immediate value, one row per
  /// value, indexed by MOp::row. Row 0 is always the zero row, so a
  /// default-constructed (absent) operand reads 0.
  std::vector<std::uint64_t> imm_rows;
};

/// The op's own widened handler index: (kind, op, type) collapsed into one
/// dense XOp, ignoring fusion (a fusion head's MicroOp::xop names its
/// superinstruction instead). Combinations outside the typed rows (e.g.
/// predicate-typed logic) map to ComputeOther, the runtime-typed fallback.
XOp xop_for(const MicroOp& m);

/// Decodes one function (exposed for tests; most callers want `decoded`).
/// Runs the superinstruction fusion pass unless `fuse` is false (tests use
/// an unfused decode as the reference when locking fusion semantics).
DecodedProgram decode(const ir::Function& fn, bool fuse = true);

/// Returns the decode cache for `ck`, building and attaching it on first
/// use. Thread-safe; the returned reference lives as long as any
/// CompiledKernel sharing the cache.
const DecodedProgram& decoded(const compiler::CompiledKernel& ck);

}  // namespace gpc::sim
