// Differential compiler testing: randomly generated kernels must compute the
// same values through BOTH front-ends as a host-side evaluation of the same
// expression tree. This is the strongest guard on the "same native kernel,
// two compilers" contract — any divergence between the CUDA pipeline (CSE,
// polynomial canonicalisation, predication, mad fusion) and the OpenCL
// pipeline (statement-local CSE, selp if-conversion, software transcendentals)
// that changes semantics shows up here.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <functional>
#include <vector>

#include "arch/device_spec.h"
#include "common/rng.h"
#include "compiler/pipeline.h"
#include "harness/benchmark.h"
#include "kernel/builder.h"
#include "sim/launch.h"

namespace gpc {
namespace {

// Default to a single simulator thread before the shared pool is created.
// Launch results are thread-count independent, so an explicit
// GPC_SIM_THREADS (the ctest determinism matrix) is kept and the exact
// equality below must hold there too.
const bool g_single_sim_thread = [] {
  setenv("GPC_SIM_THREADS", "1", /*overwrite=*/0);
  return true;
}();

/// RAII toggle for the convergent-warp fast path.
class FastPathGuard {
 public:
  explicit FastPathGuard(bool enabled)
      : prev_(sim::convergent_fast_path_enabled()) {
    sim::set_convergent_fast_path(enabled);
  }
  ~FastPathGuard() { sim::set_convergent_fast_path(prev_); }

 private:
  bool prev_;
};

void expect_stats_equal(const sim::BlockStats& slow,
                        const sim::BlockStats& fast) {
  EXPECT_EQ(slow.alu_issues, fast.alu_issues);
  EXPECT_EQ(slow.ialu_issues, fast.ialu_issues);
  EXPECT_EQ(slow.agu_issues, fast.agu_issues);
  EXPECT_EQ(slow.mad_issues, fast.mad_issues);
  EXPECT_EQ(slow.mul_issues, fast.mul_issues);
  EXPECT_EQ(slow.sfu_issues, fast.sfu_issues);
  EXPECT_EQ(slow.branch_issues, fast.branch_issues);
  EXPECT_EQ(slow.mem_issues, fast.mem_issues);
  EXPECT_EQ(slow.shared_cycles, fast.shared_cycles);
  EXPECT_EQ(slow.const_cycles, fast.const_cycles);
  EXPECT_EQ(slow.barrier_count, fast.barrier_count);
  EXPECT_EQ(slow.dram_read_bytes, fast.dram_read_bytes);
  EXPECT_EQ(slow.dram_write_bytes, fast.dram_write_bytes);
  EXPECT_EQ(slow.dram_transactions, fast.dram_transactions);
  EXPECT_EQ(slow.useful_global_bytes, fast.useful_global_bytes);
  EXPECT_EQ(slow.local_bytes, fast.local_bytes);
  EXPECT_EQ(slow.tex_requests, fast.tex_requests);
  EXPECT_EQ(slow.tex_hits, fast.tex_hits);
  EXPECT_EQ(slow.l1_hits, fast.l1_hits);
  EXPECT_EQ(slow.atomic_serial_ops, fast.atomic_serial_ops);
  EXPECT_EQ(slow.flops, fast.flops);
}

using kernel::KernelBuilder;
using kernel::KernelDef;
using kernel::Unroll;
using kernel::Val;
using kernel::Var;

// A host-evaluable mirror: each generated node carries both the AST value
// and a lambda computing the reference result from (tid, p0, p1).
struct GenValue {
  Val val;
  std::function<std::int64_t(int, int, int)> eval;
};

struct Generator {
  KernelBuilder& kb;
  Rng& rng;
  Val tid, p0v, p1v;

  GenValue leaf() {
    switch (rng.next_below(4)) {
      case 0: {
        const int c = static_cast<int>(rng.next_below(64)) - 32;
        return {kb.c32(c), [c](int, int, int) { return c; }};
      }
      case 1:
        return {tid, [](int t, int, int) { return t; }};
      case 2:
        return {p0v, [](int, int a, int) { return a; }};
      default:
        return {p1v, [](int, int, int b) { return b; }};
    }
  }

  GenValue gen(int depth) {
    if (depth <= 0) return leaf();
    GenValue a = gen(depth - 1);
    GenValue b = gen(depth - 1);
    auto wrap = [](std::int64_t v) {
      return static_cast<std::int64_t>(static_cast<std::int32_t>(v));
    };
    switch (rng.next_below(8)) {
      case 0:
        return {a.val + b.val, [=](int t, int x, int y) {
                  return wrap(a.eval(t, x, y) + b.eval(t, x, y));
                }};
      case 1:
        return {a.val - b.val, [=](int t, int x, int y) {
                  return wrap(a.eval(t, x, y) - b.eval(t, x, y));
                }};
      case 2:
        return {a.val * b.val, [=](int t, int x, int y) {
                  return wrap(a.eval(t, x, y) * b.eval(t, x, y));
                }};
      case 3:
        return {a.val & b.val, [=](int t, int x, int y) {
                  return a.eval(t, x, y) & b.eval(t, x, y);
                }};
      case 4:
        return {a.val ^ b.val, [=](int t, int x, int y) {
                  return a.eval(t, x, y) ^ b.eval(t, x, y);
                }};
      case 5:
        return {a.val << 3, [=](int t, int x, int y) {
                  return wrap(a.eval(t, x, y) << 3);
                }};
      case 6: {
        // Select keeps control-flow lowering honest.
        Val cond = a.val < b.val;
        GenValue c = gen(depth - 1);
        return {kb.select(cond, b.val, c.val), [=](int t, int x, int y) {
                  return a.eval(t, x, y) < b.eval(t, x, y) ? b.eval(t, x, y)
                                                           : c.eval(t, x, y);
                }};
      }
      default:
        return {kb.min_(a.val, b.val), [=](int t, int x, int y) {
                  return std::min(a.eval(t, x, y), b.eval(t, x, y));
                }};
    }
  }
};

struct Generated {
  KernelDef def;
  std::vector<std::int64_t> expect;  // per tid
};

Generated generate_case(std::uint64_t seed, int threads, int p0, int p1) {
  Rng rng(seed);
  KernelBuilder kb("fuzz");
  auto out = kb.ptr_param("out", ir::Type::S32);
  Val a = kb.s32_param("p0");
  Val b = kb.s32_param("p1");
  Val tid = kb.tid_x();
  Generator g{kb, rng, tid, a, b};

  // A few statements with variables (exercises materialisation, env
  // tracking, statement-local CSE) plus an if and a loop.
  Var acc = kb.var_s32("acc");
  GenValue e0 = g.gen(3);
  kb.set(acc, e0.val);
  GenValue e1 = g.gen(3);
  kb.if_(Val(acc) > e1.val, [&] { kb.set(acc, Val(acc) - e1.val); });
  GenValue e2 = g.gen(2);
  Var i = kb.var_s32("i");
  const int trip = 1 + static_cast<int>(rng.next_below(6));
  const int factor = 1 + static_cast<int>(rng.next_below(4));
  kb.for_(i, 0, kb.c32(trip), 1, Unroll::both(factor), [&] {
    kb.set(acc, Val(acc) + e2.val * (Val(i) + 1));
  });
  kb.st(out, tid, acc);
  KernelDef def = kb.finish();

  std::vector<std::int64_t> expect(threads);
  for (int t = 0; t < threads; ++t) {
    auto wrap = [](std::int64_t v) {
      return static_cast<std::int64_t>(static_cast<std::int32_t>(v));
    };
    std::int64_t acc_v = e0.eval(t, p0, p1);
    const std::int64_t v1 = e1.eval(t, p0, p1);
    if (acc_v > v1) acc_v = wrap(acc_v - v1);
    const std::int64_t v2 = e2.eval(t, p0, p1);
    for (int k = 0; k < trip; ++k) acc_v = wrap(acc_v + wrap(v2 * (k + 1)));
    expect[t] = acc_v;
  }
  return {std::move(def), std::move(expect)};
}

class DifferentialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialFuzz, BothToolchainsMatchHostSemantics) {
  const int threads = 64;
  const int p0 = 17, p1 = -5;
  Generated c = generate_case(1000 + GetParam() * 7919, threads, p0, p1);

  for (auto tc : {arch::Toolchain::Cuda, arch::Toolchain::OpenCl}) {
    SCOPED_TRACE(arch::to_string(tc));
    auto ck = compiler::compile(c.def, tc);
    // Run through the divergence scheduler and the convergent fast path;
    // both must match host semantics, each other (bitwise), and produce the
    // same dynamic statistics.
    std::vector<std::int32_t> got[2];
    sim::BlockStats stats[2];
    for (int mode = 0; mode < 2; ++mode) {
      FastPathGuard guard(mode == 1);
      sim::DeviceMemory mem(1 << 20);
      const auto out = mem.alloc(threads * 4);
      sim::LaunchConfig cfg;
      cfg.grid = {1, 1, 1};
      cfg.block = {threads, 1, 1};
      std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(out),
                                          sim::KernelArg::s32(p0),
                                          sim::KernelArg::s32(p1)};
      auto r = sim::launch_kernel(arch::gtx480(), arch::cuda_runtime(), ck,
                                  cfg, args, mem);
      stats[mode] = r.stats.total;
      got[mode].resize(threads);
      mem.read(out, got[mode].data(), threads * 4);
      for (int t = 0; t < threads; ++t) {
        ASSERT_EQ(static_cast<std::int64_t>(got[mode][t]), c.expect[t])
            << "seed case " << GetParam() << " tid " << t << " fast-path "
            << mode;
      }
    }
    EXPECT_EQ(got[0], got[1]) << "fast path changed output bits";
    expect_stats_equal(stats[0], stats[1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz, ::testing::Range(0, 48));

// The same differential idea for f32 math including the software sin/cos
// path: both toolchains within tolerance of the host.
class FloatDifferential : public ::testing::TestWithParam<int> {};

TEST_P(FloatDifferential, TranscendentalChainsAgree) {
  const int threads = 32;
  Rng rng(500 + GetParam());
  const float a = rng.next_float(-4.0f, 4.0f);
  const float b = rng.next_float(0.5f, 2.0f);

  KernelBuilder kb("fmath");
  auto out = kb.ptr_param("out", ir::Type::F32);
  Val pa = kb.f32_param("a");
  Val pb = kb.f32_param("b");
  Val t = kb.cast(kb.tid_x(), ir::Type::F32);
  Val x = t * pa + pb;
  Val y = kb.sin_(x) * kb.cos_(x * pb) + kb.sqrt_(t + kb.cf(1.0)) / pb;
  kb.st(out, kb.tid_x(), y);
  auto def = kb.finish();

  for (auto tc : {arch::Toolchain::Cuda, arch::Toolchain::OpenCl}) {
    SCOPED_TRACE(arch::to_string(tc));
    auto ck = compiler::compile(def, tc);
    sim::DeviceMemory mem(1 << 20);
    const auto d_out = mem.alloc(threads * 4);
    sim::LaunchConfig cfg;
    cfg.grid = {1, 1, 1};
    cfg.block = {threads, 1, 1};
    std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(d_out),
                                        sim::KernelArg::f32(a),
                                        sim::KernelArg::f32(b)};
    sim::launch_kernel(arch::gtx480(), arch::cuda_runtime(), ck, cfg, args,
                       mem);
    std::vector<float> got(threads);
    mem.read(d_out, got.data(), threads * 4);
    for (int tdx = 0; tdx < threads; ++tdx) {
      const float xf = static_cast<float>(tdx) * a + b;
      const float want =
          std::sin(xf) * std::cos(xf * b) + std::sqrt(tdx + 1.0f) / b;
      ASSERT_NEAR(got[tdx], want, 5e-4f + 5e-4f * std::fabs(want))
          << "tid " << tdx << " a=" << a << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FloatDifferential, ::testing::Range(0, 24));

// The convergent-warp fast path must be invisible: every registered
// real-world benchmark, run end to end (compile, launches, verification),
// produces the same metric value, verification verdict and dynamic
// statistics with the fast path force-disabled and force-enabled. The two
// device/toolchain combos cover both lockstep widths (warp 32, wavefront 64)
// and both compiler front-ends.
class FastPathDifferential
    : public ::testing::TestWithParam<const bench::Benchmark*> {};

TEST_P(FastPathDifferential, BenchmarksBitIdenticalAcrossFastPathModes) {
  const bench::Benchmark& b = *GetParam();
  bench::Options opts;
  opts.scale = 0.25;  // keep runtime small; any scale exercises both paths

  struct Combo {
    const arch::DeviceSpec& device;
    arch::Toolchain tc;
  };
  const Combo combos[] = {{arch::gtx480(), arch::Toolchain::Cuda},
                          {arch::hd5870(), arch::Toolchain::OpenCl}};

  for (const Combo& combo : combos) {
    SCOPED_TRACE(b.name() + " on " + combo.device.name);
    bench::Result results[2];
    for (int mode = 0; mode < 2; ++mode) {
      FastPathGuard guard(mode == 1);
      results[mode] = b.run(combo.device, combo.tc, opts);
    }
    const bench::Result& slow = results[0];
    const bench::Result& fast = results[1];
    EXPECT_EQ(slow.status, fast.status);
    EXPECT_EQ(slow.correct, fast.correct);
    EXPECT_EQ(slow.launches, fast.launches);
    EXPECT_EQ(slow.value, fast.value);
    EXPECT_EQ(slow.seconds, fast.seconds);
    expect_stats_equal(slow.stats, fast.stats);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRealWorld, FastPathDifferential,
    ::testing::ValuesIn(bench::real_world_benchmarks()),
    [](const ::testing::TestParamInfo<const bench::Benchmark*>& info) {
      return info.param->name();
    });

}  // namespace
}  // namespace gpc
