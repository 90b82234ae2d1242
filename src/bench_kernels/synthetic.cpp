// Synthetic peak-measurement benchmarks: DeviceMemory and MaxFlops
// (SHOC-style, §III-B.1 / §IV-A of the paper).
#include <algorithm>
#include <vector>

#include "bench_kernels/common.h"
#include "bench_kernels/kernels.h"
#include "common/error.h"

namespace gpc::bench {

using kernel::KernelBuilder;
using kernel::KernelDef;
using kernel::Unroll;
using kernel::Val;
using kernel::Var;

namespace kernels {

KernelDef devicememory(int elems_per_thread) {
  KernelBuilder kb("device_memory_read");
  auto in = kb.ptr_param("in", ir::Type::F32);
  auto out = kb.ptr_param("out", ir::Type::F32);
  Val n = kb.s32_param("n");
  Val gid = kb.global_id_x();
  Val stride = kb.ntid_x() * kb.nctaid_x();
  (void)n;  // sizing is exact by construction (SHOC style, no tail check)
  Var sum = kb.var_f32("sum");
  kb.set(sum, kb.cf(0.0));
  Var i = kb.var_s32("i");
  // Grid-stride coalesced read: lane l of warp w touches consecutive
  // addresses, the canonical peak-bandwidth pattern. The read loop is
  // fully unrolled in both sources, as SHOC's DeviceMemory does.
  kb.set(i, gid);
  Var k = kb.var_s32("k");
  kb.for_(k, 0, kb.c32(elems_per_thread), 1, Unroll::both(-1), [&] {
    kb.set(sum, Val(sum) + kb.ld(in, i));
    kb.set(i, Val(i) + stride);
  });
  kb.st(out, gid, sum);
  return kb.finish();
}

KernelDef maxflops(int inner_unroll, bool interleave_mul) {
  KernelBuilder kb(interleave_mul ? "max_flops_madmul" : "max_flops_mad");
  auto out = kb.ptr_param("out", ir::Type::F32);
  Val b = kb.f32_param("b");
  Val c = kb.f32_param("c");
  Val iters = kb.s32_param("iters");
  Val gid = kb.global_id_x();
  Var x = kb.var_f32("x");
  Var y = kb.var_f32("y");
  kb.set(x, kb.cast(gid, ir::Type::F32) * kb.cf(1e-6));
  kb.set(y, kb.cf(0.999999));
  Var it = kb.var_s32("it");
  Var u = kb.var_s32("u");
  kb.for_(it, 0, iters, 1, Unroll::none(), [&] {
    kb.for_(u, 0, kb.c32(inner_unroll), 1, Unroll::both(-1), [&] {
      // mad: x = x*b + c (2 flops)
      kb.set(x, Val(x) * b + c);
      if (interleave_mul) {
        // mul co-issues with the mad on GT200's dual-issue pipe (R = 3).
        kb.set(y, Val(y) * b);
      }
    });
  });
  kb.st(out, gid, Val(x) + Val(y));
  return kb.finish();
}

}  // namespace kernels

namespace {

class DeviceMemoryBenchmark final : public BenchmarkBase {
 public:
  std::string name() const override { return "DeviceMemory"; }
  std::string suite() const override { return "SHOC"; }
  std::string dwarf() const override { return "Synthetic"; }
  std::string description() const override {
    return "Peak device-memory read bandwidth (coalesced)";
  }
  Metric metric() const override { return Metric::GBps; }

 protected:
  void run_impl(harness::DeviceSession& s, const Options& opts,
                Result* r) const override {
    const int block = opts.workgroup > 0 ? opts.workgroup : 256;
    // Large enough that the enqueue latency is noise, as in SHOC.
    const int elems_per_thread = 64;
    const int blocks = std::max(480, s.device().sm_count * 16);
    const int threads = blocks * block;
    const int n = threads * elems_per_thread;  // one pass, fully coalesced

    std::vector<float> host(n);
    Rng rng(1);
    for (float& v : host) v = rng.next_float();
    const auto in = s.upload<float>(host);
    const auto out = s.alloc(static_cast<std::size_t>(threads) * 4);

    auto ck = s.compile(kernels::devicememory(elems_per_thread));
    std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(in),
                                        sim::KernelArg::ptr(out),
                                        sim::KernelArg::s32(n)};
    auto lr = s.launch(ck, {blocks, 1, 1}, {block, 1, 1}, args);
    r->stats = lr.stats.total;

    // Verify one thread's strided partial sum.
    std::vector<float> got(threads);
    s.download<float>(out, got);
    double want0 = 0;
    for (int i = 0; i < n; i += threads) want0 += host[i];
    r->correct = std::fabs(got[0] - want0) <=
                 1e-3 * std::max(1.0, std::fabs(want0));

    const double bytes = static_cast<double>(n) * 4;
    r->value = bytes / s.totals().kernel_s / 1e9;
  }
};

class MaxFlopsBenchmark final : public BenchmarkBase {
 public:
  std::string name() const override { return "MaxFlops"; }
  std::string suite() const override { return "SHOC"; }
  std::string dwarf() const override { return "Synthetic"; }
  std::string description() const override {
    return "Peak single-precision floating-point throughput";
  }
  Metric metric() const override { return Metric::GFlops; }

 protected:
  void run_impl(harness::DeviceSession& s, const Options& opts,
                Result* r) const override {
    // §IV-A.2: on GTX280 a mul and a mad are interleaved (dual issue);
    // GTX480 issues mads only.
    const bool interleave = s.device().dual_issue_mul_mad;
    const int block = opts.workgroup > 0 ? opts.workgroup : 256;
    const int inner = 128;
    const int iters = 32;
    const int blocks = s.device().sm_count * 4;
    const int threads = blocks * block;

    const auto out = s.alloc(static_cast<std::size_t>(threads) * 4);
    auto ck = s.compile(kernels::maxflops(inner, interleave));
    const float b = 0.99993f, c = 1.0e-7f;
    std::vector<sim::KernelArg> args = {
        sim::KernelArg::ptr(out), sim::KernelArg::f32(b),
        sim::KernelArg::f32(c), sim::KernelArg::s32(iters)};
    auto lr = s.launch(ck, {blocks, 1, 1}, {block, 1, 1}, args);
    r->stats = lr.stats.total;

    // Verify thread 0 against the host-evaluated recurrence.
    float x = 0.0f, y = 0.999999f;
    for (int i = 0; i < iters * inner; ++i) {
      x = x * b + c;
      if (interleave) y = y * b;
    }
    std::vector<float> got(1);
    s.read(got.data(), out, 4);
    const float want = x + y;
    r->correct = std::fabs(got[0] - want) <= 1e-3f * std::fabs(want) + 1e-5f;

    const double flops_per_thread =
        static_cast<double>(iters) * inner * (interleave ? 3.0 : 2.0);
    r->value = flops_per_thread * threads / s.totals().kernel_s / 1e9;
  }
};

}  // namespace

const Benchmark& devicememory_benchmark() {
  static const DeviceMemoryBenchmark b;
  return b;
}

const Benchmark& maxflops_benchmark() {
  static const MaxFlopsBenchmark b;
  return b;
}

}  // namespace gpc::bench
