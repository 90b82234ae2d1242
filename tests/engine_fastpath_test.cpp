// Differential tests for the production engine's per-instruction fast
// paths (sim/interp_threaded.cpp): the global ld/st handler, guard counts,
// immediate rows and the bank-conflict proof. Each hand-built kernel runs
// on the min-PC oracle, which takes the generic per-lane exec_memory /
// exec_compute paths, and on the production engine; outputs, every
// BlockStats counter, fault messages, the dirty extent, sanitizer findings
// and AIWC features must agree, and outputs must match host values.
// Labelled "dispatch", and rerun at GPC_SIM_THREADS=1 and 4 under
// "determinism".
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "arch/device_spec.h"
#include "common/error.h"
#include "common/rng.h"
#include "compiler/compiled_kernel.h"
#include "ir/function.h"
#include "sim/interp.h"
#include "sim/launch.h"

namespace gpc {
namespace {

using ir::CmpOp;
using ir::Opcode;
using ir::Operand;
using ir::Space;
using ir::Type;

enum class Engine { Oracle, Production };

class EngineGuard {
 public:
  explicit EngineGuard(Engine e) : prev_(sim::convergent_fast_path_enabled()) {
    sim::set_convergent_fast_path(e == Engine::Production);
  }
  ~EngineGuard() { sim::set_convergent_fast_path(prev_); }

 private:
  bool prev_;
};

void expect_stats_equal(const sim::BlockStats& a, const sim::BlockStats& b) {
  EXPECT_EQ(a.alu_issues, b.alu_issues);
  EXPECT_EQ(a.ialu_issues, b.ialu_issues);
  EXPECT_EQ(a.agu_issues, b.agu_issues);
  EXPECT_EQ(a.mad_issues, b.mad_issues);
  EXPECT_EQ(a.mul_issues, b.mul_issues);
  EXPECT_EQ(a.sfu_issues, b.sfu_issues);
  EXPECT_EQ(a.branch_issues, b.branch_issues);
  EXPECT_EQ(a.mem_issues, b.mem_issues);
  EXPECT_EQ(a.shared_cycles, b.shared_cycles);
  EXPECT_EQ(a.const_cycles, b.const_cycles);
  EXPECT_EQ(a.barrier_count, b.barrier_count);
  EXPECT_EQ(a.dram_read_bytes, b.dram_read_bytes);
  EXPECT_EQ(a.dram_write_bytes, b.dram_write_bytes);
  EXPECT_EQ(a.dram_transactions, b.dram_transactions);
  EXPECT_EQ(a.useful_global_bytes, b.useful_global_bytes);
  EXPECT_EQ(a.local_bytes, b.local_bytes);
  EXPECT_EQ(a.tex_requests, b.tex_requests);
  EXPECT_EQ(a.tex_hits, b.tex_hits);
  EXPECT_EQ(a.l1_hits, b.l1_hits);
  EXPECT_EQ(a.atomic_serial_ops, b.atomic_serial_ops);
  for (int k = 0; k < sim::kNumXKinds; ++k) {
    EXPECT_EQ(a.xkind_issues[k], b.xkind_issues[k])
        << sim::to_string(static_cast<sim::XKind>(k));
  }
  EXPECT_EQ(a.flops, b.flops);
}

// ---------------------------------------------------------------------------
// A small IR assembler: every parameter is a 64-bit pointer or an s32.

class Asm {
 public:
  explicit Asm(const char* name) : fb_(name) {}

  /// Declares a pointer parameter and loads it into a register.
  int ptr_param() { return param(Type::U64, /*is_pointer=*/true); }
  int s32_param() { return param(Type::S32, /*is_pointer=*/false); }

  int op(Opcode o, Type t, Operand a, Operand b = Operand::none(),
         Operand c = Operand::none()) {
    ir::Instr in;
    in.op = o;
    in.type = t;
    in.dst = fb_.new_reg();
    in.a = a;
    in.b = b;
    in.c = c;
    fb_.emit(in);
    return in.dst;
  }
  int sreg(ir::SReg s) {
    ir::Instr in;
    in.op = Opcode::ReadSReg;
    in.sreg = s;
    in.dst = fb_.new_reg();
    fb_.emit(in);
    return in.dst;
  }
  int setp(CmpOp cmp, Type t, Operand a, Operand b) {
    ir::Instr in;
    in.op = Opcode::SetP;
    in.type = t;
    in.cmp = cmp;
    in.dst = fb_.new_reg();
    in.a = a;
    in.b = b;
    fb_.emit(in);
    return in.dst;
  }
  /// The 64-bit global id ctaid.x * ntid.x + tid.x.
  int global_id64() {
    const int id = op(Opcode::Mad, Type::S32, r(sreg(ir::SReg::CtaIdX)),
                      r(sreg(ir::SReg::NTidX)), r(sreg(ir::SReg::TidX)));
    ir::Instr cvt;
    cvt.op = Opcode::Cvt;
    cvt.type = Type::U64;
    cvt.src_type = Type::S32;
    cvt.dst = fb_.new_reg();
    cvt.a = r(id);
    fb_.emit(cvt);
    return cvt.dst;
  }
  /// base + index * scale, all U64.
  int elem(int base, int index64, int scale) {
    return op(Opcode::Add, Type::U64, r(base),
              r(op(Opcode::Mul, Type::U64, r(index64), Operand::imm(scale))));
  }
  int ld(Space s, Type t, int addr, int guard = -1, bool negated = false) {
    ir::Instr in;
    in.op = Opcode::Ld;
    in.space = s;
    in.type = t;
    in.dst = fb_.new_reg();
    in.a = r(addr);
    in.guard = guard;
    in.guard_negated = negated;
    fb_.emit(in);
    return in.dst;
  }
  void st(Space s, Type t, int addr, Operand value, int guard = -1,
          bool negated = false) {
    ir::Instr in;
    in.op = Opcode::St;
    in.space = s;
    in.type = t;
    in.a = r(addr);
    in.b = value;
    in.guard = guard;
    in.guard_negated = negated;
    fb_.emit(in);
  }
  int label() { return fb_.new_label(); }
  void bind(int label) { fb_.bind_label(label); }
  void bra(int label, int guard) { fb_.emit_branch(label, guard); }
  void shared(int bytes) { fb_.add_shared(bytes, 4); }
  void local(int bytes) { fb_.add_local(bytes, 4); }
  void const_bytes(int bytes) { fb_.add_const_data(nullptr, bytes, 4); }

  compiler::CompiledKernel finish() {
    fb_.emit(ir::Instr{});  // Exit
    compiler::CompiledKernel ck;
    ck.fn = fb_.finish();
    ck.ptx = ck.fn;
    return ck;
  }

  static Operand r(int reg) { return Operand::vreg(reg); }

 private:
  int param(Type t, bool is_pointer) {
    const int idx = fb_.add_param({"p" + std::to_string(nparams_), t,
                                   is_pointer, Space::Global});
    ++nparams_;
    ir::Instr ld;
    ld.op = Opcode::Ld;
    ld.space = Space::Param;
    ld.type = t;
    ld.dst = fb_.new_reg();
    ld.a = Operand::imm(idx);
    fb_.emit(ld);
    return ld.dst;
  }

  ir::FunctionBuilder fb_;
  int nparams_ = 0;
};

Operand r(int reg) { return Asm::r(reg); }

// ---------------------------------------------------------------------------
// One launch: device buffers of 64-bit words (inputs uploaded, outputs
// zeroed), pointer arguments in buffer order followed by s32 arguments.

struct Launch {
  const arch::DeviceSpec* device = &arch::gtx480();
  int grid = 1;
  int block = 32;
  std::vector<std::vector<std::uint64_t>> buffers;
  std::vector<std::int32_t> ints;
  sim::SanitizeOptions sanitize;
  bool aiwc = false;
};

struct Outcome {
  std::vector<std::vector<std::uint64_t>> buffers;
  sim::BlockStats stats;
  std::string fault;
  std::size_t dirty_extent = 0;
  std::string findings;
  std::uint64_t aiwc_digest = 0;
  std::vector<std::uint64_t> addrs;  // device address of each buffer
};

Outcome run(const compiler::CompiledKernel& ck, const Launch& l, Engine e) {
  EngineGuard guard(e);
  sim::DeviceMemory mem(1 << 20);
  Outcome o;
  std::vector<sim::KernelArg> args;
  for (const auto& b : l.buffers) {
    const std::uint64_t a = mem.alloc(b.size() * 8);
    mem.write(a, b.data(), b.size() * 8);
    o.addrs.push_back(a);
    args.push_back(sim::KernelArg::ptr(a));
  }
  for (const std::int32_t v : l.ints) args.push_back(sim::KernelArg::s32(v));
  sim::LaunchConfig cfg;
  cfg.grid = {l.grid, 1, 1};
  cfg.block = {l.block, 1, 1};
  cfg.sanitize = l.sanitize;
  cfg.aiwc = l.aiwc;
  try {
    const auto res = sim::launch_kernel(*l.device, arch::cuda_runtime(), ck,
                                        cfg, args, mem);
    o.stats = res.stats.total;
    o.findings = res.sanitizer.to_string();
    if (res.aiwc) o.aiwc_digest = res.aiwc->digest();
  } catch (const DeviceFault& f) {
    o.fault = f.what();
  }
  o.dirty_extent = mem.dirty_extent();
  for (std::size_t i = 0; i < l.buffers.size(); ++i) {
    o.buffers.emplace_back(l.buffers[i].size());
    mem.read(o.addrs[i], o.buffers[i].data(), l.buffers[i].size() * 8);
  }
  return o;
}

/// Runs on both engines, checks that they agree, returns the production
/// outcome.
Outcome run_both(const compiler::CompiledKernel& ck, const Launch& l) {
  const Outcome want = run(ck, l, Engine::Oracle);
  Outcome got = run(ck, l, Engine::Production);
  EXPECT_EQ(got.buffers, want.buffers);
  expect_stats_equal(got.stats, want.stats);
  EXPECT_EQ(got.fault, want.fault);
  EXPECT_EQ(got.dirty_extent, want.dirty_extent);
  EXPECT_EQ(got.findings, want.findings);
  EXPECT_EQ(got.aiwc_digest, want.aiwc_digest);
  return got;
}

std::int32_t lo32(std::uint64_t w) { return static_cast<std::int32_t>(w); }

// ---------------------------------------------------------------------------
// Global ld/st

/// out64[g] = ld.s32(in32 + 4g) + ld.u64(in64 + 8g), added as raw 64-bit
/// registers (so the S32 load's sign extension is visible), and
/// out32[g] = the s32 value again through a 4-byte store. With `guarded`,
/// every access is guarded by g < limit (an s32 parameter), written as
/// @!(g >= limit) when `negated`.
compiler::CompiledKernel global_copy_kernel(bool guarded,
                                            bool negated = false) {
  Asm a("global_copy");
  const int in32 = a.ptr_param(), in64 = a.ptr_param();
  const int out64 = a.ptr_param(), out32 = a.ptr_param();
  const int limit = a.s32_param();
  const int g = a.global_id64();
  int p = -1;
  if (guarded) {
    p = a.setp(negated ? CmpOp::Ge : CmpOp::Lt, Type::U64, r(g),
               r(a.op(Opcode::Cvt, Type::U64, r(limit))));
  }
  const int v32 =
      a.ld(Space::Global, Type::S32, a.elem(in32, g, 4), p, negated);
  const int v64 =
      a.ld(Space::Global, Type::U64, a.elem(in64, g, 8), p, negated);
  const int sum = a.op(Opcode::Add, Type::U64, r(v32), r(v64));
  a.st(Space::Global, Type::U64, a.elem(out64, g, 8), r(sum), p, negated);
  a.st(Space::Global, Type::S32, a.elem(out32, g, 4), r(v32), p, negated);
  return a.finish();
}

/// Packs s32 values two per 64-bit word (little-endian), as a device array.
std::vector<std::uint64_t> pack32(const std::vector<std::int32_t>& v) {
  std::vector<std::uint64_t> w((v.size() + 1) / 2, 0);
  std::memcpy(w.data(), v.data(), v.size() * 4);
  return w;
}

std::vector<std::int32_t> unpack32(const std::vector<std::uint64_t>& w,
                                   std::size_t n) {
  std::vector<std::int32_t> v(n);
  std::memcpy(v.data(), w.data(), n * 4);
  return v;
}

Launch global_copy_launch(const arch::DeviceSpec& dev, int block, int grid,
                          int limit) {
  const int n = block * grid;
  std::vector<std::int32_t> in32(n);
  std::vector<std::uint64_t> in64(n);
  Rng rng(7);
  for (int i = 0; i < n; ++i) {
    in32[i] = static_cast<std::int32_t>(rng.next_u32());  // half negative
    in64[i] = rng.next_u64();
  }
  Launch l;
  l.device = &dev;
  l.block = block;
  l.grid = grid;
  l.buffers = {pack32(in32), in64, std::vector<std::uint64_t>(n, 0),
               std::vector<std::uint64_t>((n + 1) / 2, 0)};
  l.ints = {limit};
  return l;
}

void expect_global_copy(const Launch& l, const Outcome& o, int limit) {
  const int n = l.block * l.grid;
  const auto in32 = unpack32(l.buffers[0], n);
  const auto out32 = unpack32(o.buffers[3], n);
  for (int g = 0; g < n; ++g) {
    const bool on = g < limit;
    const std::uint64_t want64 =
        on ? static_cast<std::uint64_t>(static_cast<std::int64_t>(in32[g])) +
                 l.buffers[1][g]
           : 0;
    EXPECT_EQ(o.buffers[2][g], want64) << "lane " << g;
    EXPECT_EQ(out32[g], on ? in32[g] : 0) << "lane " << g;
  }
}

TEST(EngineFastPath, GlobalLoadStoreBothWidthsMatchOracleAndHost) {
  const auto ck = global_copy_kernel(/*guarded=*/false);
  struct Shape {
    const arch::DeviceSpec& dev;
    int block;
  };
  // Full and partial last warps at 32 and 64 lanes.
  const Shape shapes[] = {{arch::gtx480(), 64}, {arch::gtx480(), 40},
                          {arch::gtx280(), 32}, {arch::hd5870(), 64},
                          {arch::hd5870(), 100}};
  for (const Shape& s : shapes) {
    SCOPED_TRACE(s.dev.name + " block " + std::to_string(s.block));
    const Launch l = global_copy_launch(s.dev, s.block, 2, 1 << 30);
    const Outcome o = run_both(ck, l);
    EXPECT_EQ(o.fault, "");
    expect_global_copy(l, o, 1 << 30);
  }
}

TEST(EngineFastPath, GuardedGlobalAccessesMatchOracle) {
  for (const bool negated : {false, true}) {
    const auto ck = global_copy_kernel(/*guarded=*/true, negated);
    // Every lane passes (the unguarded handler), some pass (the lane-list
    // path), none pass (predicated-off issues).
    for (const int limit : {1 << 30, 45, 5, 0}) {
      SCOPED_TRACE("limit " + std::to_string(limit) +
                   (negated ? " negated" : ""));
      const Launch l = global_copy_launch(arch::gtx480(), 40, 2, limit);
      const Outcome o = run_both(ck, l);
      EXPECT_EQ(o.fault, "");
      expect_global_copy(l, o, limit);
    }
  }
}

/// Lane `bad` of block 0 accesses in[g] + delta (bytes); every other lane
/// accesses in[g]. `store` picks st.u32 of the lane id over ld.u32.
compiler::CompiledKernel one_bad_lane_kernel(bool store, Type t) {
  Asm a("one_bad_lane");
  const int in = a.ptr_param(), out = a.ptr_param();
  const int bad = a.s32_param(), delta = a.s32_param();
  const int g = a.global_id64();
  const int is_bad = a.setp(CmpOp::Eq, Type::U64, r(g),
                            r(a.op(Opcode::Cvt, Type::U64, r(bad))));
  // Asm::op leaves a Cvt's src_type at S32, what the s32 parameters need.
  const int delta64 = a.op(Opcode::Cvt, Type::U64, r(delta));
  const int off = a.op(Opcode::SelP, Type::U64, r(is_bad), r(delta64),
                       Operand::imm(0));
  const int size = ir::size_of(t);
  const int addr = a.op(Opcode::Add, Type::U64, r(a.elem(in, g, size)),
                        r(off));
  if (store) {
    a.st(Space::Global, t, addr, r(g));
  } else {
    a.st(Space::Global, t, a.elem(out, g, size),
         r(a.ld(Space::Global, t, addr)));
  }
  return a.finish();
}

TEST(EngineFastPath, FaultingLaneGivesTheSameMessage) {
  for (const bool store : {false, true}) {
    for (const Type t : {Type::U32, Type::U64}) {
      const auto ck = one_bad_lane_kernel(store, t);
      struct Case {
        std::int32_t delta;
        const char* want;
      };
      // The first buffer sits at address 256, so lane 7's element is at
      // 256 + 7 * size; `wrap` moves it to 2^64 - size, where addr + size
      // wraps to 0.
      const int size = ir::size_of(t);
      const std::int32_t wrap = -(256 + 8 * size);
      const Case cases[] = {
          {1 << 21, "global access out of bounds: addr="},  // past the heap
          {-(1 << 21), "global access out of bounds: addr="},
          {wrap, "global access out of bounds: addr="},
          {2, "misaligned global access: addr="},
      };
      for (const Case& c : cases) {
        SCOPED_TRACE(std::string(store ? "st" : "ld") + " size " +
                     std::to_string(size) + " delta " +
                     std::to_string(c.delta));
        Launch l;
        l.block = 32;
        l.buffers = {std::vector<std::uint64_t>(32, 5),
                     std::vector<std::uint64_t>(32, 0)};
        l.ints = {7, c.delta};
        const Outcome o = run_both(ck, l);
        EXPECT_EQ(o.fault.rfind(c.want, 0), 0u) << o.fault;
        EXPECT_NE(o.fault.find(" size=" + std::to_string(size)),
                  std::string::npos)
            << o.fault;
      }
    }
  }
}

/// A 4-byte access to a 128-byte shared, local or constant array: lane
/// `bad` uses offset `delta` (an s32, sign-extended to 64 bits), every
/// other lane offset 4 * tid. Loads copy the word to out[g].
compiler::CompiledKernel on_chip_kernel(Space space, bool store) {
  Asm a("on_chip");
  if (space == Space::Shared) a.shared(128);
  if (space == Space::Local) a.local(128);
  if (space == Space::Const) a.const_bytes(128);
  const int out = a.ptr_param();
  const int bad = a.s32_param(), delta = a.s32_param();
  const int g = a.global_id64();
  const int is_bad = a.setp(CmpOp::Eq, Type::U64, r(g),
                            r(a.op(Opcode::Cvt, Type::U64, r(bad))));
  const int tid64 = a.op(Opcode::Cvt, Type::U64, r(a.sreg(ir::SReg::TidX)));
  const int addr = a.op(
      Opcode::SelP, Type::U64, r(is_bad),
      r(a.op(Opcode::Cvt, Type::U64, r(delta))),
      r(a.op(Opcode::Mul, Type::U64, r(tid64), Operand::imm(4))));
  if (store) {
    a.st(space, Type::U32, addr, r(g));
  } else {
    a.st(Space::Global, Type::U32, a.elem(out, g, 4),
         r(a.ld(space, Type::U32, addr)));
  }
  return a.finish();
}

TEST(EngineFastPath, OnChipOffsetNearTwoToTheSixtyFourFaults) {
  // Offset -4 is 2^64 - 4 once sign-extended: offset + 4 wraps to 0, so a
  // check that forms the sum would let the lane touch the 4 bytes before
  // the array.
  struct Case {
    Space space;
    bool store;
    const char* want;  // the message up to the offset
  };
  const Case cases[] = {
      {Space::Shared, false, "shared access out of bounds in on_chip: offset "},
      {Space::Shared, true, "shared access out of bounds in on_chip: offset "},
      {Space::Local, false, "local access out of bounds in on_chip"},
      {Space::Local, true, "local access out of bounds in on_chip"},
      {Space::Const, false, "constant access out of bounds in on_chip"},
  };
  for (const Case& c : cases) {
    const auto ck = on_chip_kernel(c.space, c.store);
    for (const std::int32_t delta : {-4, -8, 128, 126}) {
      SCOPED_TRACE(std::string(c.want) + (c.store ? " st" : " ld") +
                   " delta " + std::to_string(delta));
      Launch l;
      l.block = 32;
      l.buffers = {std::vector<std::uint64_t>(16, 0)};
      l.ints = {7, delta};
      const Outcome o = run_both(ck, l);
      std::string want = c.want;
      if (c.space == Space::Shared) {
        want += std::to_string(static_cast<std::uint64_t>(
            static_cast<std::int64_t>(delta)));
      }
      EXPECT_EQ(o.fault, want);
    }
    // In bounds, every lane: no fault.
    Launch l;
    l.block = 32;
    l.buffers = {std::vector<std::uint64_t>(16, 0)};
    l.ints = {7, 124};
    EXPECT_EQ(run_both(ck, l).fault, "") << c.want;
  }
}

TEST(EngineFastPath, LegalStorePastTheBumpPointerRaisesTheDirtyExtent) {
  const auto ck = one_bad_lane_kernel(/*store=*/true, Type::U32);
  Launch l;
  l.block = 32;
  l.buffers = {std::vector<std::uint64_t>(16, 0),
               std::vector<std::uint64_t>(16, 0)};
  const std::int32_t delta = 64 << 10;  // unallocated, inside the heap
  l.ints = {7, delta};
  const Outcome o = run_both(ck, l);
  ASSERT_EQ(o.fault, "");
  const std::uint64_t stray = o.addrs[0] + 7 * 4 + delta;
  EXPECT_EQ(o.dirty_extent, stray + 4);
  // The other lanes stored in place; lane 7's slot stayed 0.
  const auto in = unpack32(o.buffers[0], 32);
  for (int g = 0; g < 32; ++g) EXPECT_EQ(in[g], g == 7 ? 0 : g) << g;
}

TEST(EngineFastPath, LegalLoadPastTheBumpPointerReadsZero) {
  const auto ck = one_bad_lane_kernel(/*store=*/false, Type::U64);
  Launch l;
  l.block = 32;
  l.buffers = {std::vector<std::uint64_t>(32, 9),
               std::vector<std::uint64_t>(32, 1)};
  l.ints = {7, 64 << 10};
  const Outcome o = run_both(ck, l);
  ASSERT_EQ(o.fault, "");
  for (int g = 0; g < 32; ++g) {
    EXPECT_EQ(o.buffers[1][g], g == 7 ? 0u : 9u) << g;
  }
}

TEST(EngineFastPath, SanitizerAndAiwcSeeTheSameAccesses) {
  // One lane reads one element past in32's allocation (alignment padding,
  // still inside the heap): memcheck reports it, nothing faults.
  const auto ck = one_bad_lane_kernel(/*store=*/false, Type::U32);
  Launch l;
  l.block = 40;
  l.buffers = {std::vector<std::uint64_t>(20, 3),
               std::vector<std::uint64_t>(20, 0)};
  l.ints = {39, 4};
  const Outcome plain = run(ck, l, Engine::Production);
  l.sanitize.mem = true;
  l.sanitize.race = true;
  l.aiwc = true;
  const Outcome checked = run_both(ck, l);
  EXPECT_EQ(checked.fault, "");
  EXPECT_NE(checked.findings.find("global-oob"), std::string::npos)
      << checked.findings;
  EXPECT_NE(checked.aiwc_digest, 0u);
  // The checking layers change neither results nor counters.
  EXPECT_EQ(checked.buffers, plain.buffers);
  expect_stats_equal(checked.stats, plain.stats);
}

// ---------------------------------------------------------------------------
// Immediate rows

/// Immediates in the a, b and c slots of integer, float and select ops,
/// optionally behind a divergent branch so a cohort (a sparse lane list)
/// reads the rows by lane id. Each result goes to out[k * n + g] as the raw
/// 64-bit register.
compiler::CompiledKernel immediates_kernel(bool divergent) {
  Asm a("immediates");
  const int out = a.ptr_param();
  const int n = a.s32_param();
  const int g = a.global_id64();
  const int tid = a.sreg(ir::SReg::TidX);
  const int skip = a.label();
  if (divergent) {
    // Lanes with tid % 3 == 0 skip everything.
    const int rem = a.op(Opcode::Rem, Type::S32, r(tid), Operand::imm(3));
    a.bra(skip, a.setp(CmpOp::Eq, Type::S32, r(rem), Operand::imm(0)));
  }
  const int fx = a.op(Opcode::Cvt, Type::F32, r(tid));
  const int lt17 = a.setp(CmpOp::Lt, Type::S32, r(tid), Operand::imm(17));
  const int results[] = {
      a.op(Opcode::Sub, Type::S32, Operand::imm(100), r(tid)),          // a
      a.op(Opcode::Sub, Type::S32, r(tid), Operand::imm(7)),            // b
      a.op(Opcode::Mad, Type::S32, r(tid), r(tid), Operand::imm(-1000)),  // c
      a.op(Opcode::SelP, Type::S32, r(lt17), Operand::imm(-3),
           Operand::imm(9)),                                            // b, c
      a.op(Opcode::Fma, Type::F32, r(fx), Operand::immf(2.5),
           Operand::immf(-1.0)),                                        // b, c
      a.op(Opcode::Mov, Type::U64, Operand::imm(0x123456789abcll)),
      a.op(Opcode::Add, Type::U32, r(tid), Operand::imm(0)),
  };
  const int n64 = a.op(Opcode::Cvt, Type::U64, r(n));
  for (int k = 0; k < static_cast<int>(std::size(results)); ++k) {
    const int slot = a.op(
        Opcode::Add, Type::U64, r(g),
        r(a.op(Opcode::Mul, Type::U64, r(n64), Operand::imm(k))));
    a.st(Space::Global, Type::U64, a.elem(out, slot, 8), r(results[k]));
  }
  a.bind(skip);
  return a.finish();
}

TEST(EngineFastPath, ImmediatesInEverySlotOnWideAndPartialWarps) {
  struct Shape {
    const arch::DeviceSpec& dev;
    int block;
  };
  const Shape shapes[] = {{arch::hd5870(), 64}, {arch::hd5870(), 100},
                          {arch::gtx480(), 40}};
  for (const bool divergent : {false, true}) {
    const auto ck = immediates_kernel(divergent);
    for (const Shape& s : shapes) {
      SCOPED_TRACE(s.dev.name + " block " + std::to_string(s.block) +
                   (divergent ? " divergent" : " converged"));
      const int n = s.block * 2;
      Launch l;
      l.device = &s.dev;
      l.block = s.block;
      l.grid = 2;
      l.buffers = {std::vector<std::uint64_t>(7 * n, ~0ull)};
      l.ints = {n};
      const Outcome o = run_both(ck, l);
      ASSERT_EQ(o.fault, "");
      const auto& out = o.buffers[0];
      for (int g = 0; g < n; ++g) {
        const int t = g % s.block;
        if (divergent && t % 3 == 0) {
          for (int k = 0; k < 7; ++k) EXPECT_EQ(out[k * n + g], ~0ull);
          continue;
        }
        EXPECT_EQ(lo32(out[0 * n + g]), 100 - t) << g;
        EXPECT_EQ(lo32(out[1 * n + g]), t - 7) << g;
        EXPECT_EQ(lo32(out[2 * n + g]), t * t - 1000) << g;
        EXPECT_EQ(lo32(out[3 * n + g]), t < 17 ? -3 : 9) << g;
        float f;
        const std::uint32_t bits = static_cast<std::uint32_t>(out[4 * n + g]);
        std::memcpy(&f, &bits, 4);
        EXPECT_EQ(f, static_cast<float>(t) * 2.5f - 1.0f) << g;  // exact
        EXPECT_EQ(out[5 * n + g], 0x123456789abcull) << g;
        EXPECT_EQ(lo32(out[6 * n + g]), t) << g;
      }
    }
  }
}

TEST(EngineFastPath, ImmediateRowsAreInternedOncePerValue) {
  const auto ck = immediates_kernel(/*divergent=*/true);
  const sim::DecodedProgram& prog = sim::decoded(ck);
  ASSERT_EQ(prog.imm_rows.size() % sim::kImmRowLanes, 0u);
  const std::size_t rows = prog.imm_rows.size() / sim::kImmRowLanes;
  std::set<std::uint64_t> values;
  for (std::size_t row = 0; row < rows; ++row) {
    const std::uint64_t v = prog.imm_rows[row * sim::kImmRowLanes];
    for (int l = 0; l < sim::kImmRowLanes; ++l) {
      EXPECT_EQ(prog.imm_rows[row * sim::kImmRowLanes + l], v);
    }
    EXPECT_TRUE(values.insert(v).second) << "value interned twice: " << v;
  }
  EXPECT_EQ(prog.imm_rows[0], 0u) << "row 0 must be the zero row";
  for (const sim::MicroOp& m : prog.ops) {
    for (const sim::MOp* o : {&m.a, &m.b, &m.c}) {
      if (o->reg >= 0) continue;
      ASSERT_LT(static_cast<std::size_t>(o->row), rows);
      EXPECT_EQ(prog.imm_rows[static_cast<std::size_t>(o->row) *
                              sim::kImmRowLanes],
                o->imm);
    }
  }
}

// ---------------------------------------------------------------------------
// Shared-memory bank conflicts

/// Each lane loads word idx[g] of a 4 KB shared array: the instruction's
/// conflict degree is the one shared_cycles count of the launch.
compiler::CompiledKernel shared_gather_kernel() {
  Asm a("shared_gather");
  a.shared(4096);
  const int idx = a.ptr_param(), out = a.ptr_param();
  const int g = a.global_id64();
  const int word = a.ld(Space::Global, Type::U32, a.elem(idx, g, 4));
  const int addr = a.op(Opcode::Shl, Type::U32, r(word), Operand::imm(2));
  a.st(Space::Global, Type::U32, a.elem(out, g, 4),
       r(a.ld(Space::Shared, Type::U32, addr)));
  return a.finish();
}

/// The stamped count: the most DISTINCT words any one bank holds.
std::uint64_t reference_degree(const std::vector<std::uint32_t>& words,
                               int banks) {
  std::map<int, std::set<std::uint32_t>> per_bank;
  for (const std::uint32_t w : words) per_bank[w % banks].insert(w);
  std::uint64_t degree = 1;
  for (const auto& [bank, distinct] : per_bank) {
    degree = std::max<std::uint64_t>(degree, distinct.size());
  }
  return degree;
}

TEST(EngineFastPath, ConflictDegreeMatchesTheStampedCount) {
  const auto ck = shared_gather_kernel();
  // GT200 first: 16 banks under a 32-lane warp, where a stride-1 run is
  // degree 2.
  for (const arch::DeviceSpec* dev :
       {&arch::gtx280(), &arch::gtx480(), &arch::hd5870()}) {
    const int banks = dev->shared_banks;
    const int warp = dev->warp_size;
    Rng rng(20111);
    std::map<std::uint64_t, int> seen;  // degree (3 = three or more) -> sets
    for (int set = 0; set < 120; ++set) {
      // Up to `spread` distinct words per bank over a full or a partial
      // warp: spread 1 gives degree 1 (with broadcasts), 2 gives degree 2,
      // larger spreads give degree 3 and above.
      const int spread = 1 + set % 6;
      const int lanes = set % 5 == 4 ? warp * 3 / 5 : warp;
      std::vector<std::uint32_t> words(lanes);
      for (int l = 0; l < lanes; ++l) {
        words[l] = rng.next_below(banks) + banks * rng.next_below(spread);
      }
      if (set % 7 == 0) {  // a run of consecutive words from any base
        const std::uint32_t base = rng.next_below(200);
        for (int l = 0; l < lanes; ++l) words[l] = base + l;
      } else if (set % 11 == 0) {  // a broadcast
        std::fill(words.begin(), words.end(), rng.next_below(200));
      }
      const std::uint64_t want = reference_degree(words, banks);
      ++seen[std::min<std::uint64_t>(want, 3)];
      SCOPED_TRACE(dev->name + " set " + std::to_string(set) + " degree " +
                   std::to_string(want));
      std::vector<std::uint64_t> idx((lanes + 1) / 2, 0);
      std::memcpy(idx.data(), words.data(), lanes * 4);
      Launch l;
      l.device = dev;
      l.block = lanes;
      l.buffers = {idx, std::vector<std::uint64_t>((lanes + 1) / 2, 0)};
      const Outcome o = run_both(ck, l);
      ASSERT_EQ(o.fault, "");
      EXPECT_EQ(o.stats.shared_cycles, want);
    }
    EXPECT_GT(seen[1], 0) << dev->name;
    EXPECT_GT(seen[2], 0) << dev->name;
    EXPECT_GT(seen[3], 0) << dev->name;
  }
}

}  // namespace
}  // namespace gpc
