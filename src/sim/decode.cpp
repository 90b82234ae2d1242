#include "sim/decode.h"

#include <mutex>
#include <unordered_map>

#include "common/error.h"
#include "sim/value_codec.h"

namespace gpc::sim {

using ir::Instr;
using ir::Opcode;
using ir::Operand;
using ir::Space;
using ir::Type;

namespace {

/// Mirrors BlockExecutor's historical operand() encoding for immediates so
/// a pre-encoded MOp fetch is bit-identical to the old per-lane switch.
MOp make_operand(const Operand& o, Type t) {
  MOp m;
  switch (o.kind) {
    case Operand::Kind::Reg:
      m.reg = o.reg;
      break;
    case Operand::Kind::ImmInt:
      m.imm = enc_int(t, o.ival);
      break;
    case Operand::Kind::ImmFloat:
      m.imm = ir::is_float(t) ? enc_float(t, o.fval)
                              : enc_int(t, static_cast<std::int64_t>(o.fval));
      break;
    case Operand::Kind::None:
      break;
  }
  return m;
}

}  // namespace

XOp xop_for(const MicroOp& m) {
  switch (m.kind) {
    case XKind::Bra: return XOp::Bra;
    case XKind::Exit: return XOp::Exit;
    case XKind::Bar: return XOp::Bar;
    case XKind::LdParam: return XOp::LdParam;
    case XKind::MemGlobal: return XOp::MemGlobal;
    case XKind::MemShared: return XOp::MemShared;
    case XKind::MemLocal: return XOp::MemLocal;
    case XKind::MemConst: return XOp::MemConst;
    case XKind::MemTex: return XOp::MemTex;
    case XKind::ReadSReg: return XOp::ReadSReg;
    case XKind::Mov: return XOp::Mov;
    case XKind::SelP: return XOp::SelP;
    case XKind::Cvt: {
      // First letter = source domain, second = destination domain.
      const bool sf = ir::is_float(m.src_type);
      return m.type_is_float ? (sf ? XOp::CvtFF : XOp::CvtIF)
                             : (sf ? XOp::CvtFI : XOp::CvtII);
    }
    case XKind::SetP:
      switch (m.type) {
        case Type::F32: return XOp::SetpF32;
        case Type::F64: return XOp::SetpF64;
        case Type::S32: return XOp::SetpS32;
        case Type::U32: return XOp::SetpU32;
        case Type::U64: return XOp::SetpU64;
        default: return XOp::ComputeOther;
      }
    case XKind::FloatOp:
      if (m.type != Type::F32 && m.type != Type::F64) break;
      switch (m.op) {
#define GPC_X(name, ...)                                                  \
  case Opcode::name:                                                      \
    return m.type == Type::F32 ? XOp::F32##name : XOp::F64##name;
        GPC_XOP_FLOAT_OPS(GPC_X)
#undef GPC_X
        default: break;
      }
      break;
    case XKind::IntOp:
      if (m.type != Type::S32 && m.type != Type::U32 && m.type != Type::U64) {
        break;
      }
      switch (m.op) {
#define GPC_X(name, ...)                                                  \
  case Opcode::name:                                                      \
    return m.type == Type::S32   ? XOp::S32##name                         \
           : m.type == Type::U32 ? XOp::U32##name                         \
                                 : XOp::U64##name;
        GPC_XOP_INT_OPS(GPC_X)
#undef GPC_X
        default: break;
      }
      break;
  }
  return XOp::ComputeOther;
}

namespace {

// ---------------------------------------------------------------------------
// Superinstruction fusion (paper Table V idioms). Fusion is IN PLACE: the
// head op gets the superinstruction XOp plus a fused_len; interior ops keep
// their ordinary XOp and all their fields, so direct entry at an interior pc
// (branch target, divergent re-entry, preempt/resume) executes them unfused
// and bit-identically. Groups require every component to be an unguarded
// register-writing compute op (the SetpBra tail Bra excepted — its guard IS
// the fused predicate) and no branch to target a group interior.

bool unguarded_def(const MicroOp& m) { return m.guard < 0 && m.dst >= 0; }

bool reads_reg(const MicroOp& m, std::int32_t reg) {
  return m.a.reg == reg || m.b.reg == reg;
}

void fuse(DecodedProgram& prog) {
  std::vector<MicroOp>& ops = prog.ops;
  const int n = static_cast<int>(ops.size());
  std::vector<bool> btarget(static_cast<std::size_t>(n) + 1, false);
  for (const MicroOp& m : ops) {
    if (m.kind == XKind::Bra && m.target >= 0 && m.target <= n) {
      btarget[m.target] = true;
    }
  }
  const auto interior_free = [&](int head, int len) {
    for (int k = head + 1; k < head + len; ++k) {
      if (btarget[k]) return false;
    }
    return true;
  };
  const auto mark = [&](int head, int len, FusedPattern p, XOp xop) {
    ops[head].xop = xop;
    ops[head].fused_len = static_cast<std::uint8_t>(len);
    ops[head].fused_pattern = p;
    prog.fusion.groups[static_cast<int>(p)]++;
    prog.fusion.fused_ops += static_cast<std::uint32_t>(len);
  };

  int i = 0;
  while (i < n) {
    // AddrGen: cvt.u64 <32-bit int> / and.u64 imm / shl.u64 imm / add.u64 —
    // the per-access global-address chain the OpenCL front end re-expands
    // (Table V); the CUDA front end's mad.u64 makes it a non-idiom there.
    if (i + 4 <= n) {
      const MicroOp& c0 = ops[i];
      const MicroOp& c1 = ops[i + 1];
      const MicroOp& c2 = ops[i + 2];
      const MicroOp& c3 = ops[i + 3];
      if (c0.kind == XKind::Cvt && c0.type == Type::U64 &&
          (c0.src_type == Type::S32 || c0.src_type == Type::U32) &&
          unguarded_def(c0) &&
          c1.kind == XKind::IntOp && c1.op == Opcode::And &&
          c1.type == Type::U64 && unguarded_def(c1) &&
          c1.a.reg == c0.dst && c1.b.reg < 0 &&
          c2.kind == XKind::IntOp && c2.op == Opcode::Shl &&
          c2.type == Type::U64 && unguarded_def(c2) &&
          c2.a.reg == c1.dst && c2.b.reg < 0 &&
          c3.kind == XKind::IntOp && c3.op == Opcode::Add &&
          c3.type == Type::U64 && unguarded_def(c3) &&
          reads_reg(c3, c2.dst) && interior_free(i, 4)) {
        mark(i, 4, FusedPattern::AddrGen, XOp::FusedAddrGen);
        i += 4;
        continue;
      }
    }
    if (i + 2 <= n) {
      const MicroOp& c0 = ops[i];
      const MicroOp& c1 = ops[i + 1];
      // setp / @p bra: the ubiquitous compare-and-branch of both front ends.
      if (c0.kind == XKind::SetP && unguarded_def(c0) &&
          c0.xop != XOp::ComputeOther &&
          c1.kind == XKind::Bra && c1.guard == c0.dst &&
          interior_free(i, 2)) {
        mark(i, 2, FusedPattern::SetpBra, XOp::FusedSetpBra);
        i += 2;
        continue;
      }
      // shl imm + add: shared/global address tail.
      if (c0.kind == XKind::IntOp && c0.op == Opcode::Shl &&
          unguarded_def(c0) && c0.xop != XOp::ComputeOther &&
          c0.b.reg < 0 &&
          c1.kind == XKind::IntOp && c1.op == Opcode::Add &&
          c1.type == c0.type && unguarded_def(c1) &&
          reads_reg(c1, c0.dst) && interior_free(i, 2)) {
        mark(i, 2, FusedPattern::ShlAdd, XOp::FusedShlAdd);
        i += 2;
        continue;
      }
      // mul + add consuming it: the mad idiom, integer or float. The fused
      // handler replays mul-then-add (two roundings for float) — it does NOT
      // contract to an actual fma, so results stay bit-identical.
      if ((c0.kind == XKind::IntOp || c0.kind == XKind::FloatOp) &&
          c0.op == Opcode::Mul && unguarded_def(c0) &&
          c0.xop != XOp::ComputeOther &&
          c1.kind == c0.kind && c1.op == Opcode::Add &&
          c1.type == c0.type && unguarded_def(c1) &&
          reads_reg(c1, c0.dst) && interior_free(i, 2)) {
        mark(i, 2, FusedPattern::MulAdd, XOp::FusedMulAdd);
        i += 2;
        continue;
      }
    }
    ++i;
  }
}

// ---------------------------------------------------------------------------
// Immediate post-dominators (Cooper-Harvey-Kennedy iteration over the
// reverse micro-op CFG, rooted at a virtual exit node). The cohort
// scheduler stamps prog.rpc[branch_pc] on every divergent split as the pc
// where the halves are expected to reconverge, which is what makes the
// divergence-depth diagnostics cheap (depth pops when a merged cohort
// reaches its stamped rpc). Merging itself is order-based — the sorted
// cohort list reproduces min-PC issue order exactly — so a conservative or
// missing rpc (-1) can never change execution, only the metrics.

void compute_rpc(DecodedProgram& prog) {
  const int n = static_cast<int>(prog.ops.size());
  prog.rpc.assign(static_cast<std::size_t>(n), -1);
  if (n == 0) return;
  const int exit_node = n;  // virtual sink; running off the end lands here

  // Successors over micro-op pcs (at most 2 each). Unguarded Bra: {target};
  // guarded Bra: {fallthrough, target}; Exit (guards are ignored by every
  // engine): {exit}; everything else: {pc + 1}.
  const auto successors = [&](int i, int out[2]) {
    const MicroOp& m = prog.ops[static_cast<std::size_t>(i)];
    int cnt = 0;
    const auto push = [&](int s) {
      if (s < 0 || s > n) s = exit_node;
      if (cnt == 1 && out[0] == s) return;
      out[cnt++] = s;
    };
    if (m.kind == XKind::Exit) {
      push(exit_node);
    } else if (m.kind == XKind::Bra) {
      if (m.guard >= 0) push(i + 1);
      push(m.target);
    } else {
      push(i + 1);
    }
    return cnt;
  };

  std::vector<std::vector<std::int32_t>> preds(
      static_cast<std::size_t>(n) + 1);
  for (int i = 0; i < n; ++i) {
    int out[2];
    const int cnt = successors(i, out);
    for (int k = 0; k < cnt; ++k) preds[out[k]].push_back(i);
  }

  // Postorder of the reverse CFG from the exit node (iterative DFS over
  // predecessor edges). Nodes that cannot reach exit keep po = -1.
  std::vector<std::int32_t> order;
  std::vector<std::int32_t> po(static_cast<std::size_t>(n) + 1, -1);
  {
    std::vector<std::int32_t> stack{exit_node};
    std::vector<std::uint8_t> expanded(static_cast<std::size_t>(n) + 1, 0);
    std::vector<bool> seen(static_cast<std::size_t>(n) + 1, false);
    seen[exit_node] = true;
    while (!stack.empty()) {
      const int v = stack.back();
      if (!expanded[v]) {
        expanded[v] = 1;
        for (const std::int32_t p : preds[v]) {
          if (!seen[p]) {
            seen[p] = true;
            stack.push_back(p);
          }
        }
      } else {
        stack.pop_back();
        if (po[v] < 0) {
          po[v] = static_cast<std::int32_t>(order.size());
          order.push_back(v);
        }
      }
    }
  }

  std::vector<std::int32_t> idom(static_cast<std::size_t>(n) + 1, -1);
  idom[exit_node] = exit_node;
  const auto intersect = [&](std::int32_t a, std::int32_t b) {
    while (a != b) {
      while (po[a] < po[b]) a = idom[a];
      while (po[b] < po[a]) b = idom[b];
    }
    return a;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    // Reverse postorder of the reverse CFG, root skipped.
    for (int oi = static_cast<int>(order.size()) - 1; oi >= 0; --oi) {
      const int v = order[oi];
      if (v == exit_node) continue;
      int out[2];
      const int cnt = successors(v, out);
      std::int32_t nd = -1;
      for (int k = 0; k < cnt; ++k) {
        const int s = out[k];
        if (po[s] < 0 || idom[s] < 0) continue;
        nd = nd < 0 ? s : intersect(nd, s);
      }
      if (nd >= 0 && idom[v] != nd) {
        idom[v] = nd;
        changed = true;
      }
    }
  }
  for (int i = 0; i < n; ++i) {
    if (idom[i] >= 0 && idom[i] != exit_node) {
      prog.rpc[static_cast<std::size_t>(i)] = idom[i];
    }
  }
}

IssueClass issue_class(const Instr& in) {
  switch (in.op) {
    case Opcode::Mad:
    case Opcode::Fma:
      return ir::is_float(in.type) ? IssueClass::Mad : IssueClass::Alu;
    case Opcode::Mul:
      return ir::is_float(in.type) ? IssueClass::Mul : IssueClass::Alu;
    default:
      if (in.is_sfu()) return IssueClass::Sfu;
      if (ir::is_float(in.type)) return IssueClass::Alu;
      if (in.type == Type::U64) return IssueClass::Agu;
      return IssueClass::IAlu;
  }
}

MicroOp decode_one(const Instr& in) {
  MicroOp m;
  m.op = in.op;
  m.type = in.type;
  m.src_type = in.src_type;
  m.cmp = in.cmp;
  m.sreg = in.sreg;
  m.msize = static_cast<std::uint8_t>(ir::size_of(in.type));
  m.type_is_float = ir::is_float(in.type);
  m.dst = in.dst;
  m.guard = in.guard;
  m.guard_negated = in.guard_negated;
  m.target = in.target;

  const Type t = in.type;
  if (in.op == Opcode::Bra) {
    m.kind = XKind::Bra;
    return m;
  }
  if (in.op == Opcode::Exit) {
    m.kind = XKind::Exit;
    return m;
  }
  if (in.op == Opcode::Bar) {
    m.kind = XKind::Bar;
    return m;
  }
  if (in.is_memory()) {
    switch (in.space) {
      case Space::Param:
        m.kind = XKind::LdParam;
        m.aux = static_cast<std::int32_t>(in.a.ival);
        return m;
      case Space::Global:
        m.kind = XKind::MemGlobal;
        m.a = make_operand(in.a, Type::U64);
        m.b = make_operand(in.b, t);
        return m;
      case Space::Shared:
        m.kind = XKind::MemShared;
        m.a = make_operand(in.a, Type::U32);
        m.b = make_operand(in.b, t);
        return m;
      case Space::Local:
        m.kind = XKind::MemLocal;
        m.a = make_operand(in.a, Type::U32);
        m.b = make_operand(in.b, t);
        return m;
      case Space::Const:
        m.kind = XKind::MemConst;
        m.a = make_operand(in.a, Type::U32);
        return m;
      case Space::Texture:
        m.kind = XKind::MemTex;
        m.a = make_operand(in.a, Type::S32);
        m.aux = in.tex_unit;
        return m;
      case Space::Reg:
        break;
    }
    throw InternalError("bad memory space in decode");
  }

  // Compute instructions: operands use the instruction type except Cvt's
  // source. Issue class and flop count are static per instruction.
  m.issue = issue_class(in);
  m.flops = static_cast<std::uint8_t>(ir::flop_count(in));
  switch (in.op) {
    case Opcode::ReadSReg:
      m.kind = XKind::ReadSReg;
      return m;
    case Opcode::Mov:
      m.kind = XKind::Mov;
      m.a = make_operand(in.a, t);
      return m;
    case Opcode::Cvt:
      m.kind = XKind::Cvt;
      m.a = make_operand(in.a, in.src_type);
      return m;
    case Opcode::SetP:
      m.kind = XKind::SetP;
      m.a = make_operand(in.a, t);
      m.b = make_operand(in.b, t);
      return m;
    case Opcode::SelP:
      m.kind = XKind::SelP;
      m.a = make_operand(in.a, t);
      m.b = make_operand(in.b, t);
      m.c = make_operand(in.c, t);
      return m;
    default:
      m.kind = ir::is_float(t) ? XKind::FloatOp : XKind::IntOp;
      m.a = make_operand(in.a, t);
      m.b = make_operand(in.b, t);
      m.c = make_operand(in.c, t);
      return m;
  }
}

/// Gives every non-register operand of the program its immediate row: one
/// kImmRowLanes-wide row per distinct encoded value, the zero row first.
void intern_immediates(DecodedProgram& prog) {
  std::unordered_map<std::uint64_t, std::int32_t> rows;
  const auto row_of = [&](std::uint64_t v) {
    const auto [it, fresh] =
        rows.try_emplace(v, static_cast<std::int32_t>(rows.size()));
    if (fresh) prog.imm_rows.insert(prog.imm_rows.end(), kImmRowLanes, v);
    return it->second;
  };
  row_of(0);
  for (MicroOp& m : prog.ops) {
    for (MOp* o : {&m.a, &m.b, &m.c}) {
      if (o->reg < 0) o->row = row_of(o->imm);
    }
  }
}

}  // namespace

const char* to_string(XKind k) {
  switch (k) {
    case XKind::Bra: return "bra";
    case XKind::Exit: return "exit";
    case XKind::Bar: return "bar";
    case XKind::LdParam: return "ld_param";
    case XKind::MemGlobal: return "mem_global";
    case XKind::MemShared: return "mem_shared";
    case XKind::MemLocal: return "mem_local";
    case XKind::MemConst: return "mem_const";
    case XKind::MemTex: return "mem_tex";
    case XKind::ReadSReg: return "read_sreg";
    case XKind::Mov: return "mov";
    case XKind::Cvt: return "cvt";
    case XKind::SetP: return "setp";
    case XKind::SelP: return "selp";
    case XKind::FloatOp: return "float_op";
    case XKind::IntOp: return "int_op";
  }
  return "?";
}

const char* to_string(FusedPattern p) {
  switch (p) {
    case FusedPattern::AddrGen: return "addr_gen";
    case FusedPattern::ShlAdd: return "shl_add";
    case FusedPattern::MulAdd: return "mul_add";
    case FusedPattern::SetpBra: return "setp_bra";
  }
  return "?";
}

DecodedProgram decode(const ir::Function& fn, bool fuse_idioms) {
  DecodedProgram prog;
  prog.ops.reserve(fn.body.size());
  for (const Instr& in : fn.body) {
    MicroOp m = decode_one(in);
    m.xop = xop_for(m);
    prog.ops.push_back(m);
  }
  intern_immediates(prog);
  prog.fusion.total_ops = static_cast<std::uint32_t>(prog.ops.size());
  if (fuse_idioms) fuse(prog);
  compute_rpc(prog);
  return prog;
}

const DecodedProgram& decoded(const compiler::CompiledKernel& ck) {
  static std::mutex mutex;
  std::lock_guard<std::mutex> lock(mutex);
  if (const auto* hit = dynamic_cast<const DecodedProgram*>(ck.sim_cache.get())) {
    return *hit;
  }
  auto fresh = std::make_shared<DecodedProgram>(decode(ck.fn));
  const DecodedProgram* raw = fresh.get();
  ck.sim_cache = std::move(fresh);
  return *raw;
}

}  // namespace gpc::sim
