// The production engine: computed-goto dispatch over the widened XOp table.
//
// engine_goto jumps through one table indexed by the widened XOp (generated
// from the same X-macro rows as the enum, sim/decode.h and
// sim/op_semantics.h, so indices and labels agree by construction). Every
// arithmetic, compare and convert handler is instantiated from its
// op_semantics.h row — the same row the min-PC oracle's exec_compute
// (sim/interp.cpp) evaluates — so the two ways of running a block share one
// definition of each op and differ only in scheduling, lane loops and
// fusion. Superinstruction heads (sim/decode.h fusion pass) jump to fused
// handlers that execute the whole group in one lane loop while replaying the
// component ops' issue-class / flop / step / XKind accounting one by one, so
// every counter the timing model and the differential tests read is
// bit-identical to unfused execution.
//
// Two instantiations exist:
//   * engine_goto<false>, the convergent fast path: all `width` lanes are
//     live at one pc, and handler loops run over the contiguous lane range
//     [0, width) with stride-1 operand pointers (an immediate reads its
//     read-only DecodedProgram::imm_rows row, built once at decode), the
//     shape the compiler auto-vectorizes. A partially taken branch
//     materialises per-lane pcs and hands the warp to the cohort scheduler.
//   * engine_goto<true>, one divergent cohort (interp.cpp run_divergent,
//     DESIGN.md §15): lanes come from the cohort's sorted lane list, the run
//     stops at CohortRun::limit (the next cohort's pc) instead of running to
//     a control event, and branches/barriers/exits return a CohortStop to
//     the reconvergence-stack scheduler instead of materialising per-lane
//     pcs.
//
// Per-instruction fixed costs are kept off the lane loops: guards are a
// count over the predicate row (a lane list is built only when some lanes
// fail), and shared and global ld/st run specialised three-pass handlers
// over arena scratch sized once per block.

#include "sim/interp.h"

#include <cstring>
#include <string>

#include "common/error.h"
#include "resil/fault.h"
#include "sim/op_semantics.h"
#include "sim/value_codec.h"

namespace gpc::sim {

using ir::Type;

namespace {

// Fused-group bodies. All components are unguarded register defs verified by
// the fusion pass; every intermediate dst is written so the register file is
// indistinguishable from unfused execution at every group boundary (and a
// later divergence / preempt / resume sees identical state).

/// op0 dst0, a, b ; op1 dst1, x, y where x and/or y is dst0 — the shl+add
/// and mul+add idioms. Both components evaluate their own rows, and the
/// freshly encoded dst0 is forwarded into op1 exactly as the register file
/// would hand it over: for floats, two roundings, never a contracted fma.
/// op1 keeps its operand order (IEEE addition is value-commutative but not
/// payload-commutative for NaNs).
template <bool kList, class Row0, class Row1, Type kT, class DivZ>
inline void fused_pair(const DivZ& divz, const MicroOp& c0,
                       const MicroOp& c1, std::uint64_t* regs, int width,
                       const int* lanes, int n, const std::uint64_t* imm) {
  const std::uint64_t* pa = lane_src(c0.a, regs, width, imm);
  const std::uint64_t* pb = lane_src(c0.b, regs, width, imm);
  const bool chain_is_a = c1.a.reg == c0.dst;
  const MOp& oth = chain_is_a ? c1.b : c1.a;
  const bool ochain = oth.reg == c0.dst;
  const std::uint64_t* po =
      ochain ? nullptr : lane_src(oth, regs, width, imm);
  std::uint64_t* pd0 = regs + static_cast<std::size_t>(c0.dst) * width;
  std::uint64_t* pd1 = regs + static_cast<std::size_t>(c1.dst) * width;
  for (int i = 0; i < n; ++i) {
    const int l = kList ? lanes[i] : i;
    const std::uint64_t e0 = Row0::template lane<kT>(divz, pa[l], pb[l], 0);
    const std::uint64_t o = ochain ? e0 : po[l];
    pd0[l] = e0;
    pd1[l] = chain_is_a ? Row1::template lane<kT>(divz, e0, o, 0)
                        : Row1::template lane<kT>(divz, o, e0, 0);
  }
}

/// cvt.u64 d0, src ; and.u64 d1, d0, imm ; shl.u64 d2, d1, imm ;
/// add.u64 d3, ·, · over the four micro-ops at `c`. The add's second
/// operand may itself name a register an earlier component just redefined;
/// the in-flight value is forwarded in that case.
template <bool kList, Type kSrc, class DivZ>
inline void fused_addr_gen(const DivZ& divz, const MicroOp* c,
                           std::uint64_t* regs, int width, const int* lanes,
                           int n, const std::uint64_t* imm) {
  const cvt::II widen{kSrc, Type::U64};
  const std::uint64_t mask = c[1].b.imm;
  const std::uint64_t sh = c[2].b.imm;
  const std::uint64_t* psrc = lane_src(c[0].a, regs, width, imm);
  const MOp& oth = (c[3].a.reg == c[2].dst) ? c[3].b : c[3].a;
  int osel = 0;
  const std::uint64_t* po = nullptr;
  if (oth.reg == c[2].dst) {
    osel = 3;
  } else if (oth.reg == c[1].dst) {
    osel = 2;
  } else if (oth.reg == c[0].dst) {
    osel = 1;
  } else {
    po = lane_src(oth, regs, width, imm);
  }
  std::uint64_t* pd0 = regs + static_cast<std::size_t>(c[0].dst) * width;
  std::uint64_t* pd1 = regs + static_cast<std::size_t>(c[1].dst) * width;
  std::uint64_t* pd2 = regs + static_cast<std::size_t>(c[2].dst) * width;
  std::uint64_t* pd3 = regs + static_cast<std::size_t>(c[3].dst) * width;
  for (int i = 0; i < n; ++i) {
    const int l = kList ? lanes[i] : i;
    const std::uint64_t v0 = widen(psrc[l]);
    const std::uint64_t v1 = iop::And::lane<Type::U64>(divz, v0, mask, 0);
    const std::uint64_t v2 = iop::Shl::lane<Type::U64>(divz, v1, sh, 0);
    const std::uint64_t vo =
        osel == 0 ? po[l] : osel == 1 ? v0 : osel == 2 ? v1 : v2;
    pd0[l] = v0;
    pd1[l] = v1;
    pd2[l] = v2;
    pd3[l] = iop::Add::lane<Type::U64>(divz, v2, vo, 0);
  }
}

/// Number of lanes whose guard passes: bit 0 of the predicate row, flipped
/// by `negated`, summed over the lanes — a branch-free, vectorizable count.
template <bool kList>
inline int guard_count(const std::uint64_t* pred, std::uint64_t negated,
                       const int* lanes, int n) {
  int pass = 0;
  for (int i = 0; i < n; ++i) {
    pass += static_cast<int>((pred[kList ? lanes[i] : i] ^ negated) & 1);
  }
  return pass;
}

}  // namespace

// ---------------------------------------------------------------------------
// The engine.

// Budget / bounds / dynamic-mix accounting per scheduler-issued warp
// instruction, then dispatch: guarded non-control ops take the generic
// guard-filter path; everything else jumps through the XOp table. The cohort
// limit check comes first — reaching the next cohort's PC ends the run before
// the op there is issued, so no budget/xkind accounting happens for it (the
// scheduler issues it for the merged lane set next).
#define GPC_DISPATCH()                                                     \
  do {                                                                     \
    if constexpr (kCohort) {                                               \
      if (pc >= run.limit) {                                               \
        run.pc = pc;                                                       \
        return CohortStop::Limit;                                          \
      }                                                                    \
    }                                                                      \
    GPC_CHECK(pc < nops, "pc ran past end of " + fn_.name);                \
    if (++steps_ > budget_) [[unlikely]] {                                 \
      resil::note_watchdog_trip();                                         \
      throw DeviceFault("kernel exceeded instruction budget in " +         \
                        fn_.name);                                         \
    }                                                                      \
    m = ops + pc;                                                          \
    stats_.xkind_issues[static_cast<int>(m->kind)]++;                      \
    if (baiwc) [[unlikely]] baiwc->issue(pc, n);                           \
    if (m->guard >= 0 && m->kind > XKind::Bar) goto L_guarded;             \
    goto* table[static_cast<std::uint16_t>(m->xop)];                       \
  } while (false)

// One compute handler: issue accounting, then `body` over the destination
// row d when the op writes a register, then the next op. GPC_A/B/C are the
// stride-1 operand rows.
#define GPC_COMPUTE(body)                                                  \
  {                                                                        \
    count_issue(*m, n);                                                    \
    if (m->dst >= 0) {                                                     \
      std::uint64_t* const d =                                             \
          regs + static_cast<std::size_t>(m->dst) * width;                 \
      body;                                                                \
    }                                                                      \
    ++pc;                                                                  \
    GPC_DISPATCH();                                                        \
  }
#define GPC_A lane_src(m->a, regs, width, imm)
#define GPC_B lane_src(m->b, regs, width, imm)
#define GPC_C lane_src(m->c, regs, width, imm)
#define GPC_ROW(Row, T)                                                    \
  GPC_COMPUTE((row_lanes<kCohort, Row, T>(divz, all, n, d, GPC_A, GPC_B,   \
                                          GPC_C)))

template <bool kCohort>
BlockExecutor::CohortStop BlockExecutor::engine_goto(Warp& w, CohortRun& run) {
  // Generated from the same X-macro rows as the XOp enum: table[i] is the
  // handler for XOp(i) by construction.
  static const void* const table[kNumXOps] = {
#define GPC_X(name) &&L_##name,
      GPC_XOP_BASIC(GPC_X)
#undef GPC_X
#define GPC_X(name, ...) &&L_F32##name, &&L_F64##name,
          GPC_XOP_FLOAT_OPS(GPC_X)
#undef GPC_X
#define GPC_X(name, ...) &&L_S32##name, &&L_U32##name, &&L_U64##name,
              GPC_XOP_INT_OPS(GPC_X)
#undef GPC_X
  };

  const MicroOp* const ops = prog_.ops.data();
  const int nops = static_cast<int>(prog_.ops.size());
  // In cohort mode the active lane set is the scheduler's (sorted,
  // non-contiguous) lane list; converged runs cover the full warp width and
  // hand the identity list to the generic per-lane-list paths.
  const int n = kCohort ? run.n : w.width;
  const int width = w.width;
  const int* const all = kCohort ? run.lanes : arena_.all_lanes.data();
  int* const exec = arena_.exec.data();
  std::uint64_t* const regs = w.regs;
  const std::uint64_t* const imm = prog_.imm_rows.data();
  std::uint64_t* const ad = arena_.addr.data();  // memory handlers' addresses
  int pc = kCohort ? run.pc : w.cpc;
  const MicroOp* m = nullptr;
  // Hoisted: the dispatch macro tests this per instruction; a local lets the
  // compiler keep it in a register across the opaque handler calls instead
  // of reloading the member through `this` every dispatch.
  aiwc::BlockAiwc* const baiwc = baiwc_.get();
  const auto divz = [&] {
    note_div_by_zero(*m);
    return 0;
  };

  GPC_DISPATCH();

  // ---- Control flow ------------------------------------------------------

L_Exit:
  if constexpr (kCohort) {
    // The scheduler retires this cohort's lanes (it owns pc[]).
    run.pc = pc;
    return CohortStop::Exited;
  } else {
    for (int l = 0; l < n; ++l) w.pc[l] = -1;
    return CohortStop::Exited;  // finished; converged stays set
  }

L_Bar:
  if constexpr (kCohort) {
    // The scheduler owns the divergence check, pc[] sync and barrier
    // accounting — it can see the cohorts that are NOT here. The xkind
    // bump for the Bar already happened at dispatch, matching min-PC's
    // bump-then-check order.
    run.pc = pc;
    return CohortStop::Barrier;
  } else {
    // All live lanes are here by construction — never divergent here.
    stats_.barrier_count++;
    ++pc;
    for (int l = 0; l < n; ++l) w.pc[l] = pc;
    w.cpc = pc;
    w.waiting = true;
    return CohortStop::Barrier;
  }

L_Bra : {
  stats_.branch_issues++;
  if (m->guard < 0) {
    if (baiwc) [[unlikely]] baiwc->branch(pc, n, n);
    pc = m->target;
    GPC_DISPATCH();
  }
  const std::uint64_t* const pred =
      regs + static_cast<std::size_t>(m->guard) * width;
  const std::uint64_t neg = m->guard_negated;
  int taken = 0;
  std::uint64_t tmask = 0;
  if constexpr (kCohort) {
    // One pass: the mask doubles as the split payload (splits are the
    // common outcome on this path, unlike the converged engine).
    for (int i = 0; i < n; ++i) {
      const int l = all[i];
      const std::uint64_t t = (pred[l] ^ neg) & 1;
      tmask |= t << l;
      taken += static_cast<int>(t);
    }
  } else {
    taken = guard_count<false>(pred, neg, all, n);
  }
  if (baiwc) [[unlikely]] baiwc->branch(pc, taken, n);
  if (taken == n) {
    pc = m->target;
    GPC_DISPATCH();
  }
  // A partial-taken branch whose target IS the fallthrough never splits:
  // both sides land on pc+1 (min-PC would see one cohort there too).
  if (taken == 0 || (kCohort && m->target == pc + 1)) {
    ++pc;
    GPC_DISPATCH();
  }
  if constexpr (kCohort) {
    // The cohort splits: report both sides to the reconvergence stack.
    run.bra_pc = pc;
    run.target = m->target;
    run.taken_mask = tmask;
    run.pc = pc + 1;
    return CohortStop::Split;
  } else {
    // The warp splits: hand the per-lane PCs to the cohort scheduler.
    for (int l = 0; l < n; ++l) {
      w.pc[l] = ((pred[l] ^ neg) & 1) != 0 ? m->target : pc + 1;
    }
    w.converged = false;
    return CohortStop::Split;
  }
}

  // ---- Guarded non-control ops: generic filter path ----------------------

L_guarded : {
  const std::uint64_t* const pred =
      regs + static_cast<std::size_t>(m->guard) * width;
  const std::uint64_t neg = m->guard_negated;
  const int nexec = guard_count<kCohort>(pred, neg, all, n);
  if (nexec == n) {
    // Every lane passes — the dominant case for boundary-guard predication
    // (interior blocks of St2D/Sobel never clip). The guard only filters
    // lanes, so the unguarded handler is semantically and accounting-wise
    // identical on the full lane set. Fused heads are always unguarded
    // (decode.cpp), so m->xop here is never a superinstruction.
    goto* table[static_cast<std::uint16_t>(m->xop)];
  }
  if (nexec > 0) {
    int k = 0;
    for (int i = 0; i < n; ++i) {
      const int l = kCohort ? all[i] : i;
      if (((pred[l] ^ neg) & 1) != 0) exec[k++] = l;
    }
    if (m->kind <= XKind::MemTex) {
      exec_memory(w, *m, exec, nexec);
    } else {
      exec_compute(w, *m, exec, nexec);
    }
  } else {
    stats_.alu_issues++;  // predicated-off issue still consumes a slot
  }
  ++pc;
  GPC_DISPATCH();
}

  // ---- Memory (other state spaces share the batched implementation) -----

L_LdParam:
  ld_param(w, *m, all, n);
  ++pc;
  GPC_DISPATCH();

L_MemLocal:
L_MemTex:
  exec_memory(w, *m, all, n);
  ++pc;
  GPC_DISPATCH();

L_MemGlobal : {
  // Specialised path for plain global traffic (every benchmark's inputs
  // and outputs; the generic exec_memory re-fetches each operand per lane):
  // unguarded or all-pass 4- and 8-byte ld/st with no sanitizer and no
  // AIWC collector runs in three passes — gather the addresses, one batch
  // check that all of them are aligned and below the bump pointer, then
  // relaxed atomic loads or stores and the coalescing account. A lane that
  // fails the check sends the whole instruction to exec_memory, which
  // throws the exact out-of-bounds / misaligned fault or raises the dirty
  // extent over a legal store past the bump pointer. Atomics always take
  // exec_memory.
  const MicroOp& mm = *m;
  const int size = mm.msize;
  if (!bsan_ && !baiwc && (size == 4 || size == 8) &&
      (mm.op == ir::Opcode::St ||
       (mm.op == ir::Opcode::Ld && mm.dst >= 0))) {
    const std::uint64_t* const pa = lane_src(mm.a, regs, width, imm);
    for (int i = 0; i < n; ++i) ad[i] = pa[kCohort ? all[i] : i];
    if (mem_.all_below_top(ad, n, size)) [[likely]] {
      const bool is_read = mm.op == ir::Opcode::Ld;
      if (is_read) {
        std::uint64_t* const pd =
            regs + static_cast<std::size_t>(mm.dst) * width;
        const bool s32 = mm.type == Type::S32;
        for (int i = 0; i < n; ++i) {
          std::uint64_t raw = mem_.load_unchecked(ad[i], size);
          if (s32) raw = enc_int(Type::S32, static_cast<std::int32_t>(raw));
          pd[kCohort ? all[i] : i] = raw;
        }
      } else {
        const std::uint64_t* const pb = lane_src(mm.b, regs, width, imm);
        for (int i = 0; i < n; ++i) {
          mem_.store_unchecked(ad[i], pb[kCohort ? all[i] : i], size);
        }
      }
      account_global(ad, n, size, is_read);
      ++pc;
      GPC_DISPATCH();
    }
  }
  exec_memory(w, mm, all, n);
  ++pc;
  GPC_DISPATCH();
}

L_MemConst : {
  // Immediate constant-bank load: the OpenCL front end materialises every
  // literal as an ld.const with an immediate address, so this runs at
  // register-mov frequency. One bounds check, one load, broadcast —
  // replicating the generic path (which account_const prices as one
  // broadcast cycle) without the per-lane gather.
  const MicroOp& mm = *m;
  if (mm.op == ir::Opcode::Ld && mm.dst >= 0 && mm.a.reg < 0) {
    const std::uint64_t a = mm.a.imm;
    if (past_limit(a, mm.msize, fn_.const_data.size())) [[unlikely]] {
      exec_memory(w, mm, all, n);  // throws the exact fault message
    }
    std::uint64_t raw = 0;
    std::memcpy(&raw, fn_.const_data.data() + a, mm.msize);
    if (mm.type == Type::S32) {
      raw = enc_int(Type::S32, static_cast<std::int32_t>(raw));
    }
    std::uint64_t* const pd = regs + static_cast<std::size_t>(mm.dst) * width;
    for (int i = 0; i < n; ++i) {
      const int l = kCohort ? all[i] : i;
      pd[l] = raw;
    }
    stats_.const_cycles += 1;  // uniform address: broadcast, one cycle
    ++pc;
    GPC_DISPATCH();
  }
  exec_memory(w, mm, all, n);
  ++pc;
  GPC_DISPATCH();
}

L_MemShared : {
  // Specialised path for the dominant shared-memory traffic (tiled kernels
  // issue two ld.shared per unrolled inner-loop step — the generic
  // exec_memory was 70% of the convergent-MxM profile): unguarded 4-byte
  // ld/st with no sanitizer attached runs in three vectorizable passes —
  // gather+check, load-or-store, conflict accounting. Anything else
  // (atomics, other widths, sanitizer on, a faulting lane) falls back to
  // exec_memory, which replays the checks and throws the exact fault.
  const MicroOp& mm = *m;
  if (!bsan_ && !baiwc && mm.msize == 4 &&
      (mm.op == ir::Opcode::St ||
       (mm.op == ir::Opcode::Ld && mm.dst >= 0))) {
    const std::uint64_t* pa = lane_src(mm.a, regs, width, imm);
    // Against limit - 4, not a + 4 > limit, which wraps near 2^64.
    const std::uint64_t limit = arena_.shared.size();
    const std::uint64_t last = limit - 4;
    std::uint64_t bad = static_cast<std::uint64_t>(limit < 4);
    for (int i = 0; i < n; ++i) {
      const int l = kCohort ? all[i] : i;
      const std::uint64_t a = pa[l];
      ad[i] = a;
      bad |= static_cast<std::uint64_t>(a > last) | (a & 3);
    }
    if (bad != 0) [[unlikely]] {
      exec_memory(w, mm, all, n);  // throws with the faulting offset
    }
    std::uint8_t* const sh = arena_.shared.data();
    if (mm.op == ir::Opcode::Ld) {
      std::uint64_t* const pd =
          regs + static_cast<std::size_t>(mm.dst) * width;
      if (mm.type == Type::S32) {
        for (int i = 0; i < n; ++i) {
          const int l = kCohort ? all[i] : i;
          std::uint32_t raw;
          std::memcpy(&raw, sh + ad[i], 4);
          pd[l] = enc_int(Type::S32, static_cast<std::int32_t>(raw));
        }
      } else {
        for (int i = 0; i < n; ++i) {
          const int l = kCohort ? all[i] : i;
          std::uint32_t raw;
          std::memcpy(&raw, sh + ad[i], 4);
          pd[l] = raw;
        }
      }
    } else {
      const std::uint64_t* pb = lane_src(mm.b, regs, width, imm);
      for (int i = 0; i < n; ++i) {
        const int l = kCohort ? all[i] : i;
        const std::uint32_t v = static_cast<std::uint32_t>(pb[l]);
        std::memcpy(sh + ad[i], &v, 4);
      }
    }
    account_shared(ad, n);
    ++pc;
    GPC_DISPATCH();
  }
  exec_memory(w, mm, all, n);
  ++pc;
  GPC_DISPATCH();
}

  // ---- Compute -------------------------------------------------------------

L_ReadSReg : {
  // Special-register reads are hot in index-heavy kernels (every thread
  // computes its tid first). In the converged engine the lane set is the
  // identity, so flat ids are consecutive: TidX and LaneId reduce to an
  // increment-with-wrap (one divide per warp, not per lane), and everything
  // except TidX/TidY/TidZ/LaneId is warp-uniform and broadcasts one value.
  // A cohort's lane ids are NOT consecutive — the wrap trick would misnumber
  // them — so a cohort takes the generic per-lane path.
  if constexpr (kCohort) goto L_ComputeOther;
  const MicroOp& mm = *m;
  count_issue(mm, n);
  if (mm.dst >= 0) {
    std::uint64_t* const pd = regs + static_cast<std::size_t>(mm.dst) * width;
    const ir::SReg s = mm.sreg;
    if (s == ir::SReg::TidX || s == ir::SReg::LaneId) {
      const std::int64_t mod =
          (s == ir::SReg::TidX) ? config_.block.x : spec_.warp_size;
      std::int64_t v = w.base % mod;
      for (int l = 0; l < n; ++l) {
        pd[l] = enc_int(Type::S32, v);
        if (++v == mod) v = 0;
      }
    } else if (s == ir::SReg::TidY || s == ir::SReg::TidZ) {
      for (int l = 0; l < n; ++l) {
        pd[l] = enc_int(Type::S32,
                        static_cast<std::int64_t>(sreg_value(s, w, l)));
      }
    } else {
      const std::uint64_t v =
          enc_int(Type::S32, static_cast<std::int64_t>(sreg_value(s, w, 0)));
      for (int l = 0; l < n; ++l) pd[l] = v;
    }
  }
  ++pc;
  GPC_DISPATCH();
}

L_ComputeOther:
  exec_compute(w, *m, all, n);
  ++pc;
  GPC_DISPATCH();

L_Mov:
  GPC_COMPUTE((lanes_apply<kCohort>(all, n, d, mov_lane, GPC_A)))
L_SelP:
  GPC_COMPUTE(
      (lanes_apply<kCohort>(all, n, d, selp_lane, GPC_A, GPC_B, GPC_C)))
#define GPC_X(name, expr)                                                  \
  L_Cvt##name : GPC_COMPUTE((lanes_apply<kCohort>(                         \
                    all, n, d, cvt::name{m->src_type, m->type}, GPC_A)))
  GPC_CVT_OPS(GPC_X)
#undef GPC_X
#define GPC_X(T)                                                           \
  L_Setp##T : GPC_COMPUTE((setp_typed<kCohort, Type::T>(m->cmp, all, n, d, \
                                                        GPC_A, GPC_B)))
  GPC_X(F32) GPC_X(F64) GPC_X(S32) GPC_X(U32) GPC_X(U64)
#undef GPC_X
#define GPC_X(name, expr)                                                  \
  L_F32##name : GPC_ROW(fop::name, Type::F32)                              \
  L_F64##name : GPC_ROW(fop::name, Type::F64)
  GPC_XOP_FLOAT_OPS(GPC_X)
#undef GPC_X
#define GPC_X(name, expr64, expr32)                                        \
  L_S32##name : GPC_ROW(iop::name, Type::S32)                              \
  L_U32##name : GPC_ROW(iop::name, Type::U32)                              \
  L_U64##name : GPC_ROW(iop::name, Type::U64)
  GPC_XOP_INT_OPS(GPC_X)
#undef GPC_X

  // ---- Superinstructions ---------------------------------------------------

L_FusedAddrGen : {
  // cvt.u64 d0, src ; and.u64 d1, d0, imm ; shl.u64 d2, d1, imm ;
  // add.u64 d3, ·, · — the OpenCL front end's per-access global address.
  const MicroOp& c0 = ops[pc];
  const MicroOp& c1 = ops[pc + 1];
  const MicroOp& c2 = ops[pc + 2];
  const MicroOp& c3 = ops[pc + 3];
  check_budget_extra(3);
  stats_.xkind_issues[static_cast<int>(c1.kind)]++;
  stats_.xkind_issues[static_cast<int>(c2.kind)]++;
  stats_.xkind_issues[static_cast<int>(c3.kind)]++;
  if (baiwc) [[unlikely]] {
    baiwc->issue(pc + 1, n);
    baiwc->issue(pc + 2, n);
    baiwc->issue(pc + 3, n);
  }
  count_issue(c0, n);
  count_issue(c1, n);
  count_issue(c2, n);
  count_issue(c3, n);
  stats_.fused_groups++;
  stats_.fused_exec[static_cast<int>(FusedPattern::AddrGen)]++;
  if (c0.src_type == Type::S32) {
    fused_addr_gen<kCohort, Type::S32>(divz, ops + pc, regs, width, all, n,
                                       imm);
  } else {
    fused_addr_gen<kCohort, Type::U32>(divz, ops + pc, regs, width, all, n,
                                       imm);
  }
  pc += 4;
  GPC_DISPATCH();
}

L_FusedShlAdd : {
  const MicroOp& c0 = ops[pc];
  const MicroOp& c1 = ops[pc + 1];
  check_budget_extra(1);
  stats_.xkind_issues[static_cast<int>(c1.kind)]++;
  if (baiwc) [[unlikely]] baiwc->issue(pc + 1, n);
  count_issue(c0, n);
  count_issue(c1, n);
  stats_.fused_groups++;
  stats_.fused_exec[static_cast<int>(FusedPattern::ShlAdd)]++;
  switch (c0.type) {
#define GPC_X(T)                                                           \
  case Type::T:                                                            \
    fused_pair<kCohort, iop::Shl, iop::Add, Type::T>(                      \
        divz, c0, c1, regs, width, all, n, imm);                           \
    break;
    GPC_X(S32) GPC_X(U32) default : GPC_X(U64)
#undef GPC_X
  }
  pc += 2;
  GPC_DISPATCH();
}

L_FusedMulAdd : {
  const MicroOp& c0 = ops[pc];
  const MicroOp& c1 = ops[pc + 1];
  check_budget_extra(1);
  stats_.xkind_issues[static_cast<int>(c1.kind)]++;
  if (baiwc) [[unlikely]] baiwc->issue(pc + 1, n);
  count_issue(c0, n);
  count_issue(c1, n);
  stats_.fused_groups++;
  stats_.fused_exec[static_cast<int>(FusedPattern::MulAdd)]++;
  switch (c0.type) {
#define GPC_X(ns, T)                                                       \
  case Type::T:                                                            \
    fused_pair<kCohort, ns::Mul, ns::Add, Type::T>(                        \
        divz, c0, c1, regs, width, all, n, imm);                           \
    break;
    GPC_X(fop, F32) GPC_X(fop, F64) GPC_X(iop, S32) GPC_X(iop, U32)
    default : GPC_X(iop, U64)
#undef GPC_X
  }
  pc += 2;
  GPC_DISPATCH();
}

L_FusedSetpBra : {
  // setp d, a, b ; @d bra target — compare-and-branch. The predicate is a
  // real register write; the branch decision replays guard_pass semantics.
  const MicroOp& c0 = ops[pc];
  const MicroOp& c1 = ops[pc + 1];
  check_budget_extra(1);
  stats_.xkind_issues[static_cast<int>(c1.kind)]++;
  if (baiwc) [[unlikely]] baiwc->issue(pc + 1, n);
  count_issue(c0, n);
  stats_.branch_issues++;
  stats_.fused_groups++;
  stats_.fused_exec[static_cast<int>(FusedPattern::SetpBra)]++;
  std::uint64_t* const pd = regs + static_cast<std::size_t>(c0.dst) * width;
  const std::uint64_t* const pa = lane_src(c0.a, regs, width, imm);
  const std::uint64_t* const pb = lane_src(c0.b, regs, width, imm);
  switch (c0.type) {
#define GPC_X(T)                                                           \
  case Type::T:                                                            \
    setp_typed<kCohort, Type::T>(c0.cmp, all, n, pd, pa, pb);              \
    break;
    GPC_X(F32) GPC_X(F64) GPC_X(S32) GPC_X(U32) default : GPC_X(U64)
#undef GPC_X
  }
  const std::uint64_t neg = c1.guard_negated;
  const int taken = guard_count<kCohort>(pd, neg, all, n);
  if (baiwc) [[unlikely]] baiwc->branch(pc + 1, taken, n);
  if (taken == n) {
    pc = c1.target;
    GPC_DISPATCH();
  }
  if (taken == 0 || (kCohort && c1.target == pc + 2)) {
    pc += 2;
    GPC_DISPATCH();
  }
  if constexpr (kCohort) {
    std::uint64_t tmask = 0;
    for (int i = 0; i < n; ++i) {
      tmask |= ((pd[all[i]] ^ neg) & 1) << all[i];
    }
    run.bra_pc = pc + 1;  // the Bra component's PC, for the rpc table
    run.target = c1.target;
    run.taken_mask = tmask;
    run.pc = pc + 2;
    return CohortStop::Split;
  } else {
    for (int l = 0; l < n; ++l) {
      w.pc[l] = ((pd[l] ^ neg) & 1) != 0 ? c1.target : pc + 2;
    }
    w.converged = false;
    return CohortStop::Split;
  }
}

}

#undef GPC_ROW
#undef GPC_C
#undef GPC_B
#undef GPC_A
#undef GPC_COMPUTE
#undef GPC_DISPATCH

template BlockExecutor::CohortStop BlockExecutor::engine_goto<false>(
    Warp& w, CohortRun& run);
template BlockExecutor::CohortStop BlockExecutor::engine_goto<true>(
    Warp& w, CohortRun& run);

}  // namespace gpc::sim
