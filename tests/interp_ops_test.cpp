// Exhaustive-ish coverage of interpreter operation semantics: every opcode
// the front-ends can emit, executed on-device and compared against host
// arithmetic, plus atomics, type conversions and integer edge cases.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "arch/device_spec.h"
#include "compiler/pipeline.h"
#include "kernel/builder.h"
#include "sim/interp.h"
#include "sim/launch.h"
#include "sim/op_semantics.h"

namespace gpc {
namespace {

using kernel::KernelBuilder;
using kernel::KernelDef;
using kernel::Unroll;
using kernel::Val;
using kernel::Var;

// Runs a single-thread kernel writing one s32 result per output slot.
std::vector<std::int32_t> run_s32(const KernelDef& def, arch::Toolchain tc,
                                  int outputs,
                                  std::vector<sim::KernelArg> extra = {}) {
  auto ck = compiler::compile(def, tc);
  sim::DeviceMemory mem(1 << 20);
  const auto out = mem.alloc(static_cast<std::size_t>(outputs) * 4);
  std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(out)};
  for (auto& a : extra) args.push_back(a);
  sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {1, 1, 1};
  sim::launch_kernel(arch::gtx480(), arch::cuda_runtime(), ck, cfg, args, mem);
  std::vector<std::int32_t> got(outputs);
  mem.read(out, got.data(), static_cast<std::size_t>(outputs) * 4);
  return got;
}

class BothToolchains : public ::testing::TestWithParam<arch::Toolchain> {};
INSTANTIATE_TEST_SUITE_P(TC, BothToolchains,
                         ::testing::Values(arch::Toolchain::Cuda,
                                           arch::Toolchain::OpenCl),
                         [](const auto& i) {
                           return std::string(arch::to_string(i.param));
                         });

TEST_P(BothToolchains, IntegerArithmeticEdgeCases) {
  KernelBuilder kb("intops");
  auto out = kb.ptr_param("out", ir::Type::S32);
  Val a = kb.s32_param("a");  // runtime values defeat constant folding
  Val b = kb.s32_param("b");
  int slot = 0;
  auto emit = [&](Val v) { kb.st(out, kb.c32(slot++), v); };
  emit(a + b);
  emit(a - b);
  emit(a * b);
  emit(a / b);
  emit(a % b);
  emit(kb.min_(a, b));
  emit(kb.max_(a, b));
  emit(kb.abs_(b));
  emit(a & b);
  emit(a | b);
  emit(a ^ b);
  emit(a << 3);
  emit(a >> 2);       // arithmetic shift on negative values
  emit(-a);
  emit(kb.select(a < b, kb.c32(111), kb.c32(222)));
  emit((a / (b - b + 1)) * 0 + a / kb.c32(0));  // s32 div-by-zero -> 0
  auto def = kb.finish();

  const int av = -1000, bv = 7;
  std::vector<sim::KernelArg> extra = {sim::KernelArg::s32(av),
                                       sim::KernelArg::s32(bv)};
  const auto got = run_s32(def, GetParam(), 16, extra);
  const std::int32_t want[] = {
      av + bv, av - bv,  av * bv, av / bv, av % bv, std::min(av, bv),
      std::max(av, bv), std::abs(bv), av & bv, av | bv, av ^ bv,
      av << 3, av >> 2, -av, 111, 0};
  for (int i = 0; i < 16; ++i) EXPECT_EQ(got[i], want[i]) << "slot " << i;
}

TEST_P(BothToolchains, UnsignedComparisonsAndShifts) {
  KernelBuilder kb("uops");
  auto out = kb.ptr_param("out", ir::Type::S32);
  Val a = kb.u32_param("a");
  Val b = kb.u32_param("b");
  int slot = 0;
  auto emitp = [&](Val pred) {
    kb.st(out, kb.c32(slot++), kb.select(pred, kb.c32(1), kb.c32(0)));
  };
  emitp(a < b);   // unsigned: 0xFFFFFFF0 < 2 is false
  emitp(a > b);
  auto def = kb.finish();
  std::vector<sim::KernelArg> extra = {sim::KernelArg::u32(0xFFFFFFF0u),
                                       sim::KernelArg::u32(2u)};
  const auto got = run_s32(def, GetParam(), 2, extra);
  EXPECT_EQ(got[0], 0);
  EXPECT_EQ(got[1], 1);
}

TEST_P(BothToolchains, FloatOpsMatchHost) {
  KernelBuilder kb("fops");
  auto out = kb.ptr_param("out", ir::Type::F32);
  Val x = kb.f32_param("x");
  int slot = 0;
  auto emit = [&](Val v) { kb.st(out, kb.c32(slot++), v); };
  emit(kb.sqrt_(x));
  emit(kb.rsqrt_(x));
  emit(kb.rcp_(x));
  emit(kb.exp2_(x));
  emit(kb.log2_(x));
  emit(kb.abs_(-x));
  emit(kb.min_(x, kb.cf(2.0)));
  emit(kb.max_(x, kb.cf(2.0)));
  auto def = kb.finish();

  for (auto tc : {GetParam()}) {
    auto ck = compiler::compile(def, tc);
    sim::DeviceMemory mem(1 << 20);
    const auto out_addr = mem.alloc(64);
    const float xv = 2.7182818f;
    std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(out_addr),
                                        sim::KernelArg::f32(xv)};
    sim::LaunchConfig cfg;
    cfg.grid = {1, 1, 1};
    cfg.block = {1, 1, 1};
    sim::launch_kernel(arch::gtx480(), arch::cuda_runtime(), ck, cfg, args,
                       mem);
    std::vector<float> got(8);
    mem.read(out_addr, got.data(), 32);
    const float want[] = {std::sqrt(xv),      1.0f / std::sqrt(xv),
                          1.0f / xv,          std::exp2(xv),
                          std::log2(xv),      xv,
                          2.0f,               xv};
    for (int i = 0; i < 8; ++i) {
      EXPECT_NEAR(got[i], want[i], 1e-5f * std::fabs(want[i]) + 1e-6f)
          << "slot " << i;
    }
  }
}

TEST_P(BothToolchains, CastsRoundTowardZero) {
  KernelBuilder kb("casts");
  auto out = kb.ptr_param("out", ir::Type::S32);
  Val x = kb.f32_param("x");
  kb.st(out, kb.c32(0), kb.cast(x, ir::Type::S32));
  kb.st(out, kb.c32(1), kb.cast(-x, ir::Type::S32));
  kb.st(out, kb.c32(2),
        kb.cast(kb.cast(kb.s32_param("i"), ir::Type::F32), ir::Type::S32));
  auto def = kb.finish();
  std::vector<sim::KernelArg> extra = {sim::KernelArg::f32(3.99f),
                                       sim::KernelArg::s32(-123)};
  const auto got = run_s32(def, GetParam(), 3, extra);
  EXPECT_EQ(got[0], 3);
  EXPECT_EQ(got[1], -3);
  EXPECT_EQ(got[2], -123);
}

TEST_P(BothToolchains, GlobalAtomicsAccumulateAcrossBlocks) {
  KernelBuilder kb("atom");
  auto counter = kb.ptr_param("counter", ir::Type::S32);
  auto fsum = kb.ptr_param("fsum", ir::Type::F32);
  kb.atomic_add(counter, kb.c32(0), kb.c32(1));
  kb.atomic_add(fsum, kb.c32(0), kb.cf(0.5));
  auto def = kb.finish();
  auto ck = compiler::compile(def, GetParam());

  sim::DeviceMemory mem(1 << 20);
  const auto c = mem.alloc(16);
  const auto f = mem.alloc(16);
  sim::LaunchConfig cfg;
  cfg.grid = {32, 1, 1};
  cfg.block = {64, 1, 1};
  std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(c),
                                      sim::KernelArg::ptr(f)};
  sim::launch_kernel(arch::gtx480(), arch::cuda_runtime(), ck, cfg, args, mem);
  std::int32_t count = 0;
  mem.read(c, &count, 4);
  EXPECT_EQ(count, 32 * 64);
  float sum = 0;
  mem.read(f, &sum, 4);
  EXPECT_FLOAT_EQ(sum, 32 * 64 * 0.5f);
}

TEST_P(BothToolchains, SharedAtomicsSerialiseWithinBlock) {
  KernelBuilder kb("satom");
  auto out = kb.ptr_param("out", ir::Type::S32);
  auto cnt = kb.shared_array("cnt", ir::Type::S32, 1);
  kb.if_(kb.tid_x() == 0, [&] { kb.sts(cnt, kb.c32(0), kb.c32(0)); });
  kb.barrier();
  kb.atomic_add_shared(cnt, kb.c32(0), kb.c32(1));
  kb.barrier();
  kb.if_(kb.tid_x() == 0,
         [&] { kb.st(out, kb.ctaid_x(), kb.lds(cnt, kb.c32(0))); });
  auto def = kb.finish();
  auto ck = compiler::compile(def, GetParam());
  sim::DeviceMemory mem(1 << 20);
  const auto out_addr = mem.alloc(64);
  sim::LaunchConfig cfg;
  cfg.grid = {4, 1, 1};
  cfg.block = {96, 1, 1};
  std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(out_addr)};
  // Unlike the lockstep-lost-update idiom, atomics are correct even on the
  // 64-wide wavefront device.
  sim::launch_kernel(arch::hd5870(), arch::opencl_runtime(), ck, cfg, args,
                     mem);
  std::vector<std::int32_t> got(4);
  mem.read(out_addr, got.data(), 16);
  for (int b = 0; b < 4; ++b) EXPECT_EQ(got[b], 96) << "block " << b;
}

TEST_P(BothToolchains, WhileLoopWithDataDependentTripCount) {
  // Collatz-ish: count steps until 1. Divergent trip counts across lanes.
  KernelBuilder kb("collatz");
  auto out = kb.ptr_param("out", ir::Type::S32);
  Var n = kb.var_s32("n");
  Var steps = kb.var_s32("steps");
  kb.set(n, kb.tid_x() + 2);
  kb.set(steps, kb.c32(0));
  kb.while_(Val(n) != 1, [&] {
    kb.if_else(
        (Val(n) & 1) == 0, [&] { kb.set(n, Val(n) >> 1); },
        [&] { kb.set(n, 3 * Val(n) + 1); });
    kb.set(steps, Val(steps) + 1);
  });
  kb.st(out, kb.tid_x(), steps);
  auto def = kb.finish();
  auto ck = compiler::compile(def, GetParam());
  sim::DeviceMemory mem(1 << 20);
  const auto out_addr = mem.alloc(32 * 4);
  sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {32, 1, 1};
  std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(out_addr)};
  sim::launch_kernel(arch::gtx480(), arch::cuda_runtime(), ck, cfg, args, mem);
  std::vector<std::int32_t> got(32);
  mem.read(out_addr, got.data(), 128);
  for (int t = 0; t < 32; ++t) {
    int n = t + 2, steps = 0;
    while (n != 1) {
      n = (n % 2 == 0) ? n / 2 : 3 * n + 1;
      ++steps;
    }
    EXPECT_EQ(got[t], steps) << "lane " << t;
  }
}

TEST(Interpreter, ConstantArraysAreReadOnlyData) {
  KernelBuilder kb("constarr");
  auto out = kb.ptr_param("out", ir::Type::S32);
  const int table[5] = {10, 20, 30, 40, 50};
  auto ca = kb.const_array_s32("table", table);
  kb.st(out, kb.tid_x(), kb.ldc(ca, kb.tid_x()));
  auto def = kb.finish();
  auto ck = compiler::compile(def, arch::Toolchain::Cuda);
  sim::DeviceMemory mem(1 << 20);
  const auto out_addr = mem.alloc(64);
  sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {5, 1, 1};
  std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(out_addr)};
  sim::launch_kernel(arch::gtx480(), arch::cuda_runtime(), ck, cfg, args, mem);
  std::vector<std::int32_t> got(5);
  mem.read(out_addr, got.data(), 20);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(got[i], table[i]);
}

TEST(Interpreter, PrivateArraysArePerThread) {
  KernelBuilder kb("priv");
  auto out = kb.ptr_param("out", ir::Type::S32);
  auto scratch = kb.private_array("scratch", ir::Type::S32, 4);
  Val tid = kb.tid_x();
  Var i = kb.var_s32("i");
  kb.for_(i, 0, kb.c32(4), 1, kernel::Unroll::none(),
          [&] { kb.stp(scratch, Val(i), tid * 10 + Val(i)); });
  Var sum = kb.var_s32("sum");
  kb.set(sum, kb.c32(0));
  kb.for_(i, 0, kb.c32(4), 1, kernel::Unroll::none(),
          [&] { kb.set(sum, Val(sum) + kb.ldp(scratch, Val(i))); });
  kb.st(out, tid, sum);
  auto def = kb.finish();
  auto ck = compiler::compile(def, arch::Toolchain::OpenCl);
  EXPECT_EQ(ck.local_bytes_per_thread(), 16);
  sim::DeviceMemory mem(1 << 20);
  const auto out_addr = mem.alloc(64 * 4);
  sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {64, 1, 1};
  std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(out_addr)};
  sim::launch_kernel(arch::gtx480(), arch::cuda_runtime(), ck, cfg, args, mem);
  std::vector<std::int32_t> got(64);
  mem.read(out_addr, got.data(), 256);
  for (int t = 0; t < 64; ++t) {
    EXPECT_EQ(got[t], 4 * (t * 10) + 0 + 1 + 2 + 3) << "thread " << t;
  }
}

// F64 transcendentals must evaluate at double precision: the interpreter
// used to narrow the operand to float before std::sin/std::cos regardless of
// the instruction type. Built at the IR level because the front-ends only
// emit f32 math. F32 keeps its float-precision (SFU-style) semantics.
TEST(FloatOps, SinCosUseDoublePrecisionForF64) {
  const double x = 1.0;  // sin(1.0) differs between float and double eval

  ir::FunctionBuilder fb("f64_trig");
  fb.add_param({"out", ir::Type::U64, /*is_pointer=*/true, ir::Space::Global});
  const int r_ptr = fb.new_reg();
  const int r_x = fb.new_reg();
  const int r_sin = fb.new_reg();
  const int r_cos = fb.new_reg();
  const int r_addr = fb.new_reg();
  auto instr = [](ir::Opcode op, ir::Type t, int dst, ir::Operand a,
                  ir::Operand b = ir::Operand::none()) {
    ir::Instr in;
    in.op = op;
    in.type = t;
    in.dst = dst;
    in.a = a;
    in.b = b;
    return in;
  };
  {
    ir::Instr ld;
    ld.op = ir::Opcode::Ld;
    ld.space = ir::Space::Param;
    ld.type = ir::Type::U64;
    ld.dst = r_ptr;
    ld.a = ir::Operand::imm(0);
    fb.emit(ld);
  }
  fb.emit(instr(ir::Opcode::Mov, ir::Type::F64, r_x, ir::Operand::immf(x)));
  fb.emit(instr(ir::Opcode::Sin, ir::Type::F64, r_sin, ir::Operand::vreg(r_x)));
  fb.emit(instr(ir::Opcode::Cos, ir::Type::F64, r_cos, ir::Operand::vreg(r_x)));
  auto store = [&](int addr_reg, int val_reg) {
    ir::Instr st;
    st.op = ir::Opcode::St;
    st.space = ir::Space::Global;
    st.type = ir::Type::F64;
    st.a = ir::Operand::vreg(addr_reg);
    st.b = ir::Operand::vreg(val_reg);
    fb.emit(st);
  };
  store(r_ptr, r_sin);
  fb.emit(instr(ir::Opcode::Add, ir::Type::U64, r_addr,
                ir::Operand::vreg(r_ptr), ir::Operand::imm(8)));
  store(r_addr, r_cos);
  fb.emit(ir::Instr{});  // Exit

  compiler::CompiledKernel ck;
  ck.fn = fb.finish();
  ck.ptx = ck.fn;

  sim::DeviceMemory mem(1 << 20);
  const auto out = mem.alloc(16);
  sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {1, 1, 1};
  std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(out)};
  sim::launch_kernel(arch::gtx480(), arch::cuda_runtime(), ck, cfg, args, mem);

  double got[2];
  mem.read(out, got, 16);
  EXPECT_EQ(got[0], std::sin(x));
  EXPECT_EQ(got[1], std::cos(x));
  // The old float-narrowing behaviour is measurably different.
  EXPECT_NE(got[0],
            static_cast<double>(std::sin(static_cast<float>(x))));
}

// ---------------------------------------------------------------------------
// Divergent-cohort op coverage: ops whose production handlers have a
// dedicated cohort path (special-register reads, guarded shared memory)
// must produce exact per-lane values when the executing cohort's lane set is
// sparse and non-consecutive — on the production engine and the oracle.

/// Saves and restores the engine selection around a test body.
class AllSchedulersLoop {
 public:
  AllSchedulersLoop() : prev_fast_(sim::convergent_fast_path_enabled()) {}
  ~AllSchedulersLoop() { sim::set_convergent_fast_path(prev_fast_); }

  /// Runs fn once per engine: the min-PC oracle, then production.
  void run(const std::function<void(const std::string&)>& fn) {
    sim::set_convergent_fast_path(false);
    fn("oracle");
    sim::set_convergent_fast_path(true);
    fn("production");
  }

 private:
  bool prev_fast_;
};

TEST_P(BothToolchains, SpecialRegisterReadsInsideDivergentRegion) {
  // Odd lanes re-read tid/lane/ctaid/ntid AFTER the warp has split, so the
  // cohort engine's ReadSReg path computes them for a sparse lane set
  // (every other lane). Two blocks of two warps check the base offsets.
  KernelBuilder kb("divsreg");
  auto out = kb.ptr_param("out", ir::Type::S32);
  Val t = kb.tid_x();
  kb.if_else(
      (t & 1) == 1,
      [&] {
        kb.st(out, kb.global_id_x(),
              kb.ctaid_x() * 1000000 + kb.tid_x() * 1000 + kb.lane_id() +
                  kb.ntid_x() * 100000);
      },
      [&] { kb.st(out, kb.global_id_x(), 0 - t); });
  auto def = kb.finish();

  const int threads = 64, blocks = 2, warp = 32;
  AllSchedulersLoop loop;
  loop.run([&](const std::string& sched) {
    SCOPED_TRACE(sched);
    auto ck = compiler::compile(def, GetParam());
    sim::DeviceMemory mem(1 << 20);
    const auto d_out = mem.alloc(blocks * threads * 4);
    sim::LaunchConfig cfg;
    cfg.grid = {blocks, 1, 1};
    cfg.block = {threads, 1, 1};
    std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(d_out)};
    sim::launch_kernel(arch::gtx480(), arch::cuda_runtime(), ck, cfg, args,
                       mem);
    std::vector<std::int32_t> got(blocks * threads);
    mem.read(d_out, got.data(), got.size() * 4);
    for (int b = 0; b < blocks; ++b) {
      for (int tid = 0; tid < threads; ++tid) {
        const int g = b * threads + tid;
        const std::int32_t want =
            (tid & 1) == 1 ? b * 1000000 + tid * 1000 + tid % warp +
                                 threads * 100000
                           : -tid;
        EXPECT_EQ(got[g], want) << "block " << b << " tid " << tid;
      }
    }
  });
}

TEST_P(BothToolchains, SharedMemorySwapUnderDivergentGuard) {
  // Odd lanes double their even neighbour's staged value while the warp is
  // split: the shared-load/store handlers run with a sparse cohort, and the
  // barriers around the swap must see the reconverged warp.
  KernelBuilder kb("divshared");
  auto out = kb.ptr_param("out", ir::Type::S32);
  auto s = kb.shared_array("s", ir::Type::S32, 64);
  Val t = kb.tid_x();
  kb.sts(s, t, t * 7 + 1);
  kb.barrier();
  kb.if_((t & 1) == 1, [&] { kb.sts(s, t, kb.lds(s, t ^ 1) * 2); });
  kb.barrier();
  kb.st(out, kb.global_id_x(), kb.lds(s, t));
  auto def = kb.finish();

  const int threads = 64;
  AllSchedulersLoop loop;
  loop.run([&](const std::string& sched) {
    SCOPED_TRACE(sched);
    auto ck = compiler::compile(def, GetParam());
    sim::DeviceMemory mem(1 << 20);
    const auto d_out = mem.alloc(2 * threads * 4);
    sim::LaunchConfig cfg;
    cfg.grid = {2, 1, 1};
    cfg.block = {threads, 1, 1};
    std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(d_out)};
    sim::launch_kernel(arch::gtx480(), arch::cuda_runtime(), ck, cfg, args,
                       mem);
    std::vector<std::int32_t> got(2 * threads);
    mem.read(d_out, got.data(), got.size() * 4);
    for (int g = 0; g < 2 * threads; ++g) {
      const int tid = g % threads;
      const std::int32_t want =
          (tid & 1) == 1 ? ((tid ^ 1) * 7 + 1) * 2 : tid * 7 + 1;
      EXPECT_EQ(got[g], want) << "global id " << g;
    }
  });
}

// ---------------------------------------------------------------------------
// Op semantics, row by row. The production engine and the min-PC oracle are
// both instantiated from the rows of sim/op_semantics.h, so the engine
// differential (tests/dispatch_test.cpp) cannot catch a wrong row. Every
// float row at F32/F64 and every integer row at S32/U32/U64 runs here as a
// single IR instruction against literal host-computed values, on both
// engines, once convergent and once with the warp split on lane parity (the
// production engine then runs the op on a sparse cohort lane list).

using ir::Opcode;
using ir::Type;

std::uint64_t bf32(float v) { return std::bit_cast<std::uint32_t>(v); }
std::uint64_t bf64(double v) { return std::bit_cast<std::uint64_t>(v); }
std::uint64_t bs32(std::int32_t v) { return static_cast<std::uint32_t>(v); }

/// One lane's operands and expected result, as raw register bits of the
/// op's type (32-bit types in the low half).
struct OpCase {
  std::uint64_t a = 0, b = 0, c = 0;
  std::uint64_t want = 0;
};

/// Runs `op.t d, a, b, c` with one lane per case (lane i loads case i's
/// operands from global memory) and returns each lane's raw result bits.
std::vector<std::uint64_t> run_op(Opcode op, Type t,
                                  const std::vector<OpCase>& cases,
                                  bool divergent) {
  ir::FunctionBuilder fb("op_row");
  fb.add_param({"in", Type::U64, /*is_pointer=*/true, ir::Space::Global});
  fb.add_param({"out", Type::U64, /*is_pointer=*/true, ir::Space::Global});
  const auto emit = [&](Opcode o, Type ty, ir::Operand a,
                        ir::Operand b = ir::Operand::none()) {
    ir::Instr in;
    in.op = o;
    in.type = ty;
    in.dst = fb.new_reg();
    in.a = a;
    in.b = b;
    fb.emit(in);
    return in.dst;
  };
  const auto ld = [&](ir::Space space, Type ty, ir::Operand addr) {
    ir::Instr in;
    in.op = Opcode::Ld;
    in.space = space;
    in.type = ty;
    in.dst = fb.new_reg();
    in.a = addr;
    fb.emit(in);
    return in.dst;
  };
  const auto reg = [](int r) { return ir::Operand::vreg(r); };
  const int in_ptr = ld(ir::Space::Param, Type::U64, ir::Operand::imm(0));
  const int out_ptr = ld(ir::Space::Param, Type::U64, ir::Operand::imm(1));
  ir::Instr tid;
  tid.op = Opcode::ReadSReg;
  tid.sreg = ir::SReg::TidX;
  tid.dst = fb.new_reg();
  fb.emit(tid);
  ir::Instr widen;
  widen.op = Opcode::Cvt;
  widen.type = Type::U64;
  widen.src_type = Type::S32;
  widen.dst = fb.new_reg();
  widen.a = reg(tid.dst);
  fb.emit(widen);
  const int t64 = widen.dst;
  const int base = emit(Opcode::Add, Type::U64, reg(in_ptr),
                        reg(emit(Opcode::Mul, Type::U64, reg(t64),
                                 ir::Operand::imm(24))));
  int operand[3];
  for (int k = 0; k < 3; ++k) {
    operand[k] = ld(ir::Space::Global, t,
                    reg(emit(Opcode::Add, Type::U64, reg(base),
                             ir::Operand::imm(8 * k))));
  }
  ir::Instr row;
  row.op = op;
  row.type = t;
  row.dst = fb.new_reg();
  row.a = reg(operand[0]);
  row.b = reg(operand[1]);
  row.c = reg(operand[2]);
  if (divergent) {
    ir::Instr even;
    even.op = Opcode::SetP;
    even.type = Type::U64;
    even.cmp = ir::CmpOp::Eq;
    even.dst = fb.new_reg();
    even.a = reg(emit(Opcode::And, Type::U64, reg(t64), ir::Operand::imm(1)));
    even.b = ir::Operand::imm(0);
    fb.emit(even);
    const int on_even = fb.new_label();
    const int join = fb.new_label();
    fb.emit_branch(on_even, even.dst);
    fb.emit(row);
    fb.emit_branch(join);
    fb.bind_label(on_even);
    fb.emit(row);
    fb.bind_label(join);
  } else {
    fb.emit(row);
  }
  ir::Instr st;
  st.op = Opcode::St;
  st.space = ir::Space::Global;
  st.type = t;
  st.a = reg(emit(Opcode::Add, Type::U64, reg(out_ptr),
                  reg(emit(Opcode::Mul, Type::U64, reg(t64),
                           ir::Operand::imm(8)))));
  st.b = reg(row.dst);
  fb.emit(st);
  fb.emit(ir::Instr{});  // Exit

  compiler::CompiledKernel ck;
  ck.fn = fb.finish();
  ck.ptx = ck.fn;

  const int lanes = static_cast<int>(cases.size());
  std::vector<std::uint64_t> in(3 * cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    in[3 * i] = cases[i].a;
    in[3 * i + 1] = cases[i].b;
    in[3 * i + 2] = cases[i].c;
  }
  std::vector<std::uint64_t> out(cases.size(), 0);
  sim::DeviceMemory mem(1 << 20);
  const auto d_in = mem.alloc(in.size() * 8);
  const auto d_out = mem.alloc(out.size() * 8);
  mem.write(d_in, in.data(), in.size() * 8);
  mem.write(d_out, out.data(), out.size() * 8);
  sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {lanes, 1, 1};
  std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(d_in),
                                      sim::KernelArg::ptr(d_out)};
  sim::launch_kernel(arch::gtx480(), arch::cuda_runtime(), ck, cfg, args,
                     mem);
  mem.read(d_out, out.data(), out.size() * 8);
  return out;
}

using RowTable = std::map<std::pair<Opcode, Type>, std::vector<OpCase>>;

RowTable float_row_cases() {
  RowTable t;
  // a = b = 1 + 2^-12: a*b = 1 + 2^-11 + 2^-24 exactly, which f32 rounds
  // (tie to even) to 1 + 2^-11. GT200 mad rounds the product to f32 first,
  // so adding c = -(1 + 2^-11) cancels to 0; fma keeps the 2^-24.
  const float xf = 1.0f + 0x1p-12f, cf = -(1.0f + 0x1p-11f);
  const double xd = 1.0 + 0x1p-12, cd = -(1.0 + 0x1p-11);
  t[{Opcode::Add, Type::F32}] = {{bf32(1.5f), bf32(2.25f), 0, bf32(3.75f)},
                                 {bf32(1e8f), bf32(1.0f), 0, bf32(1e8f)}};
  t[{Opcode::Add, Type::F64}] = {{bf64(1.5), bf64(2.25), 0, bf64(3.75)},
                                 {bf64(1e8), bf64(1.0), 0, bf64(100000001.0)}};
  t[{Opcode::Sub, Type::F32}] = {{bf32(1.5f), bf32(2.25f), 0, bf32(-0.75f)}};
  t[{Opcode::Sub, Type::F64}] = {{bf64(1.5), bf64(2.25), 0, bf64(-0.75)}};
  t[{Opcode::Mul, Type::F32}] = {{bf32(1.5f), bf32(-2.0f), 0, bf32(-3.0f)},
                                 {bf32(xf), bf32(xf), 0, bf32(1.0f + 0x1p-11f)}};
  t[{Opcode::Mul, Type::F64}] = {
      {bf64(1.5), bf64(-2.0), 0, bf64(-3.0)},
      {bf64(xd), bf64(xd), 0, bf64(1.0 + 0x1p-11 + 0x1p-24)}};
  // Division by zero (either sign) yields 0 on the device, not inf.
  t[{Opcode::Div, Type::F32}] = {{bf32(1.0f), bf32(4.0f), 0, bf32(0.25f)},
                                 {bf32(3.0f), bf32(0.0f), 0, bf32(0.0f)},
                                 {bf32(3.0f), bf32(-0.0f), 0, bf32(0.0f)}};
  t[{Opcode::Div, Type::F64}] = {{bf64(1.0), bf64(4.0), 0, bf64(0.25)},
                                 {bf64(3.0), bf64(0.0), 0, bf64(0.0)},
                                 {bf64(3.0), bf64(-0.0), 0, bf64(0.0)}};
  t[{Opcode::Mad, Type::F32}] = {
      {bf32(2.0f), bf32(3.0f), bf32(1.0f), bf32(7.0f)},
      {bf32(xf), bf32(xf), bf32(cf), bf32(0.0f)}};
  // F64 mad rounds its product to f32 too: 1 + 2^-30 becomes 1.0f.
  t[{Opcode::Mad, Type::F64}] = {
      {bf64(2.0), bf64(3.0), bf64(1.0), bf64(7.0)},
      {bf64(xd), bf64(xd), bf64(cd), bf64(0.0)},
      {bf64(1.0 + 0x1p-30), bf64(1.0), bf64(0.0), bf64(1.0)}};
  t[{Opcode::Fma, Type::F32}] = {
      {bf32(2.0f), bf32(3.0f), bf32(1.0f), bf32(7.0f)},
      {bf32(xf), bf32(xf), bf32(cf), bf32(0x1p-24f)}};
  t[{Opcode::Fma, Type::F64}] = {
      {bf64(2.0), bf64(3.0), bf64(1.0), bf64(7.0)},
      {bf64(xd), bf64(xd), bf64(cd), bf64(0x1p-24)},
      {bf64(1.0 + 0x1p-30), bf64(1.0), bf64(0.0), bf64(1.0 + 0x1p-30)}};
  t[{Opcode::Neg, Type::F32}] = {{bf32(2.5f), 0, 0, bf32(-2.5f)}};
  t[{Opcode::Neg, Type::F64}] = {{bf64(2.5), 0, 0, bf64(-2.5)}};
  t[{Opcode::Abs, Type::F32}] = {{bf32(-2.5f), 0, 0, bf32(2.5f)}};
  t[{Opcode::Abs, Type::F64}] = {{bf64(-2.5), 0, 0, bf64(2.5)}};
  t[{Opcode::Min, Type::F32}] = {{bf32(-1.0f), bf32(2.0f), 0, bf32(-1.0f)},
                                 {bf32(3.0f), bf32(2.0f), 0, bf32(2.0f)}};
  t[{Opcode::Min, Type::F64}] = {{bf64(-1.0), bf64(2.0), 0, bf64(-1.0)},
                                 {bf64(3.0), bf64(2.0), 0, bf64(2.0)}};
  t[{Opcode::Max, Type::F32}] = {{bf32(-1.0f), bf32(2.0f), 0, bf32(2.0f)},
                                 {bf32(3.0f), bf32(2.0f), 0, bf32(3.0f)}};
  t[{Opcode::Max, Type::F64}] = {{bf64(-1.0), bf64(2.0), 0, bf64(2.0)},
                                 {bf64(3.0), bf64(2.0), 0, bf64(3.0)}};
  t[{Opcode::Sqrt, Type::F32}] = {
      {bf32(2.0f), 0, 0, bf32(static_cast<float>(std::sqrt(2.0)))}};
  t[{Opcode::Sqrt, Type::F64}] = {{bf64(2.0), 0, 0, bf64(std::sqrt(2.0))}};
  t[{Opcode::Rsqrt, Type::F32}] = {
      {bf32(4.0f), 0, 0, bf32(0.5f)},
      {bf32(2.0f), 0, 0, bf32(static_cast<float>(1.0 / std::sqrt(2.0)))}};
  t[{Opcode::Rsqrt, Type::F64}] = {
      {bf64(4.0), 0, 0, bf64(0.5)},
      {bf64(2.0), 0, 0, bf64(1.0 / std::sqrt(2.0))}};
  t[{Opcode::Rcp, Type::F32}] = {
      {bf32(4.0f), 0, 0, bf32(0.25f)},
      {bf32(3.0f), 0, 0, bf32(static_cast<float>(1.0 / 3.0))}};
  t[{Opcode::Rcp, Type::F64}] = {{bf64(4.0), 0, 0, bf64(0.25)},
                                 {bf64(3.0), 0, 0, bf64(1.0 / 3.0)}};
  // Other f32 ops evaluate in double and round once; f32 sin/cos evaluate
  // at float precision, f64 at double precision.
  t[{Opcode::Sin, Type::F32}] = {{bf32(0.5f), 0, 0, bf32(std::sin(0.5f))}};
  t[{Opcode::Sin, Type::F64}] = {{bf64(0.5), 0, 0, bf64(std::sin(0.5))}};
  t[{Opcode::Cos, Type::F32}] = {{bf32(0.5f), 0, 0, bf32(std::cos(0.5f))}};
  t[{Opcode::Cos, Type::F64}] = {{bf64(0.5), 0, 0, bf64(std::cos(0.5))}};
  t[{Opcode::Ex2, Type::F32}] = {{bf32(3.0f), 0, 0, bf32(8.0f)},
                                 {bf32(0.5f), 0, 0, bf32(static_cast<float>(std::exp2(0.5)))}};
  t[{Opcode::Ex2, Type::F64}] = {{bf64(3.0), 0, 0, bf64(8.0)},
                                 {bf64(0.5), 0, 0, bf64(std::exp2(0.5))}};
  t[{Opcode::Lg2, Type::F32}] = {{bf32(8.0f), 0, 0, bf32(3.0f)}};
  t[{Opcode::Lg2, Type::F64}] = {{bf64(8.0), 0, 0, bf64(3.0)}};
  return t;
}

RowTable int_row_cases() {
  constexpr std::int32_t kMin32 = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax32 = std::numeric_limits<std::int32_t>::max();
  constexpr std::uint64_t kTop64 = 1ull << 63;
  constexpr std::uint64_t kAll64 = ~0ull;
  RowTable t;
  // Add/Sub/Mul/Mad/Neg wrap at the type's width.
  t[{Opcode::Add, Type::S32}] = {{bs32(-5), bs32(3), 0, bs32(-2)},
                                 {bs32(kMax32), bs32(1), 0, bs32(kMin32)}};
  t[{Opcode::Add, Type::U32}] = {{0xFFFFFFFFu, 1, 0, 0}, {7, 8, 0, 15}};
  t[{Opcode::Add, Type::U64}] = {{kAll64, 1, 0, 0}, {kTop64, kTop64, 0, 0}};
  t[{Opcode::Sub, Type::S32}] = {{bs32(3), bs32(5), 0, bs32(-2)},
                                 {bs32(kMin32), bs32(1), 0, bs32(kMax32)}};
  t[{Opcode::Sub, Type::U32}] = {{0, 1, 0, 0xFFFFFFFFu}};
  t[{Opcode::Sub, Type::U64}] = {{0, 1, 0, kAll64}};
  t[{Opcode::Mul, Type::S32}] = {{bs32(-3), bs32(7), 0, bs32(-21)},
                                 {bs32(0x10000), bs32(0x10000), 0, 0}};
  t[{Opcode::Mul, Type::U32}] = {{0x10000, 0x10001, 0, 0x10000},
                                 {0xFFFFFFFFu, 0xFFFFFFFFu, 0, 1}};
  t[{Opcode::Mul, Type::U64}] = {{1ull << 32, 1ull << 32, 0, 0},
                                 {kAll64, kAll64, 0, 1}};
  // MulHi: the high half of the double-width product, signed or unsigned.
  t[{Opcode::MulHi, Type::S32}] = {
      {bs32(-2), bs32(3), 0, bs32(-1)},
      {bs32(kMin32), bs32(kMin32), 0, bs32(0x40000000)}};
  t[{Opcode::MulHi, Type::U32}] = {{0xFFFFFFFFu, 2, 0, 1},
                                   {0xFFFFFFFFu, 0xFFFFFFFFu, 0, 0xFFFFFFFEu}};
  t[{Opcode::MulHi, Type::U64}] = {{kTop64, 4, 0, 2},
                                   {kAll64, kAll64, 0, kAll64 - 1}};
  // Div/Rem truncate toward zero; by zero they yield 0.
  t[{Opcode::Div, Type::S32}] = {{bs32(-7), bs32(2), 0, bs32(-3)},
                                 {bs32(7), bs32(0), 0, 0},
                                 {bs32(kMin32), bs32(-1), 0, bs32(kMin32)}};
  t[{Opcode::Div, Type::U32}] = {{0xFFFFFFFEu, 2, 0, 0x7FFFFFFFu},
                                 {7, 0, 0, 0}};
  t[{Opcode::Div, Type::U64}] = {{kTop64, 2, 0, kTop64 >> 1}, {7, 0, 0, 0}};
  t[{Opcode::Rem, Type::S32}] = {{bs32(-7), bs32(2), 0, bs32(-1)},
                                 {bs32(7), bs32(0), 0, 0}};
  t[{Opcode::Rem, Type::U32}] = {{0xFFFFFFFFu, 10, 0, 5}, {7, 0, 0, 0}};
  t[{Opcode::Rem, Type::U64}] = {{kAll64, 10, 0, 5}, {7, 0, 0, 0}};
  t[{Opcode::Mad, Type::S32}] = {{bs32(3), bs32(4), bs32(-20), bs32(-8)}};
  t[{Opcode::Mad, Type::U32}] = {{0xFFFFFFFFu, 2, 3, 1}};
  t[{Opcode::Mad, Type::U64}] = {{kAll64, 2, 3, 1}};
  t[{Opcode::Neg, Type::S32}] = {{bs32(5), 0, 0, bs32(-5)},
                                 {bs32(kMin32), 0, 0, bs32(kMin32)}};
  t[{Opcode::Neg, Type::U32}] = {{1, 0, 0, 0xFFFFFFFFu}};
  t[{Opcode::Neg, Type::U64}] = {{1, 0, 0, kAll64}};
  // Abs of an unsigned value is the value itself.
  t[{Opcode::Abs, Type::S32}] = {{bs32(-5), 0, 0, bs32(5)},
                                 {bs32(kMin32), 0, 0, bs32(kMin32)}};
  t[{Opcode::Abs, Type::U32}] = {{0xFFFFFFFBu, 0, 0, 0xFFFFFFFBu}};
  t[{Opcode::Abs, Type::U64}] = {{kAll64, 0, 0, kAll64}};
  // Min/Max compare signed for S32, unsigned for U32/U64.
  t[{Opcode::Min, Type::S32}] = {{bs32(-1), bs32(1), 0, bs32(-1)}};
  t[{Opcode::Min, Type::U32}] = {{0xFFFFFFFFu, 1, 0, 1}};
  t[{Opcode::Min, Type::U64}] = {{kTop64, 1, 0, 1}};
  t[{Opcode::Max, Type::S32}] = {{bs32(-1), bs32(1), 0, bs32(1)}};
  t[{Opcode::Max, Type::U32}] = {{0xFFFFFFFFu, 1, 0, 0xFFFFFFFFu}};
  t[{Opcode::Max, Type::U64}] = {{kTop64, 1, 0, kTop64}};
  t[{Opcode::And, Type::S32}] = {{bs32(-4), bs32(7), 0, bs32(4)}};
  t[{Opcode::And, Type::U32}] = {{0xF0F0F0F0u, 0xFF00FF00u, 0, 0xF000F000u}};
  t[{Opcode::And, Type::U64}] = {{kAll64, kTop64 | 5, 0, kTop64 | 5}};
  t[{Opcode::Or, Type::S32}] = {{bs32(-8), bs32(3), 0, bs32(-5)}};
  t[{Opcode::Or, Type::U32}] = {{0xF0000000u, 0x0000000Fu, 0, 0xF000000Fu}};
  t[{Opcode::Or, Type::U64}] = {{kTop64, 1, 0, kTop64 | 1}};
  t[{Opcode::Xor, Type::S32}] = {{bs32(-1), bs32(5), 0, bs32(-6)}};
  t[{Opcode::Xor, Type::U32}] = {{0xFFFF0000u, 0xFF00FF00u, 0, 0x00FFFF00u}};
  t[{Opcode::Xor, Type::U64}] = {{kAll64, kTop64, 0, kTop64 - 1}};
  t[{Opcode::Not, Type::S32}] = {{bs32(0), 0, 0, bs32(-1)}};
  t[{Opcode::Not, Type::U32}] = {{0x0F0F0F0Fu, 0, 0, 0xF0F0F0F0u}};
  t[{Opcode::Not, Type::U64}] = {{0, 0, 0, kAll64}};
  // Shift counts are masked to the type's width.
  t[{Opcode::Shl, Type::S32}] = {{bs32(1), bs32(31), 0, bs32(kMin32)},
                                 {bs32(1), bs32(33), 0, bs32(2)}};
  t[{Opcode::Shl, Type::U32}] = {{1, 32, 0, 1}, {3, 4, 0, 48}};
  t[{Opcode::Shl, Type::U64}] = {{1, 63, 0, kTop64}, {1, 65, 0, 2}};
  // Shr is arithmetic for S32, logical for U32/U64.
  t[{Opcode::Shr, Type::S32}] = {{bs32(-16), bs32(2), 0, bs32(-4)},
                                 {bs32(-16), bs32(34), 0, bs32(-4)},
                                 {bs32(-1), bs32(31), 0, bs32(-1)}};
  t[{Opcode::Shr, Type::U32}] = {{0x80000000u, 31, 0, 1},
                                 {0x80000000u, 33, 0, 0x40000000u}};
  t[{Opcode::Shr, Type::U64}] = {{kTop64, 63, 0, 1}, {kTop64, 65, 0, kTop64 >> 1}};
  return t;
}

void expect_rows_match_host(const RowTable& table,
                            const std::vector<Opcode>& rows,
                            const std::vector<Type>& types) {
  for (const Opcode op : rows) {
    for (const Type t : types) {
      SCOPED_TRACE(std::string(ir::to_string(op)) + "." + ir::to_string(t));
      const auto it = table.find({op, t});
      ASSERT_NE(it, table.end()) << "row without host cases";
      const std::uint64_t mask =
          ir::size_of(t) == 4 ? 0xFFFFFFFFull : ~0ull;
      AllSchedulersLoop loop;
      loop.run([&](const std::string& engine) {
        for (const bool divergent : {false, true}) {
          SCOPED_TRACE(engine + (divergent ? ", divergent" : ", convergent"));
          const auto got = run_op(op, t, it->second, divergent);
          for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i] & mask, it->second[i].want & mask)
                << "case " << i;
          }
        }
      });
    }
  }
}

TEST(OpSemantics, EveryFloatRowMatchesHostOnBothEngines) {
  const std::vector<Opcode> rows = {
#define GPC_X(name, ...) Opcode::name,
      GPC_XOP_FLOAT_OPS(GPC_X)
#undef GPC_X
  };
  expect_rows_match_host(float_row_cases(), rows, {Type::F32, Type::F64});
}

TEST(OpSemantics, EveryIntRowMatchesHostOnBothEngines) {
  const std::vector<Opcode> rows = {
#define GPC_X(name, ...) Opcode::name,
      GPC_XOP_INT_OPS(GPC_X)
#undef GPC_X
  };
  expect_rows_match_host(int_row_cases(), rows,
                         {Type::S32, Type::U32, Type::U64});
}

}  // namespace
}  // namespace gpc
