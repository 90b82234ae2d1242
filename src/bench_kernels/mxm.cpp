// Tiled single-precision matrix multiplication (NVIDIA SDK, Table II).
#include <vector>

#include "bench_kernels/common.h"
#include "bench_kernels/kernels.h"
#include "bench_kernels/registry.h"

namespace gpc::bench {

using kernel::KernelBuilder;
using kernel::KernelDef;
using kernel::Unroll;
using kernel::Val;
using kernel::Var;

namespace kernels {

KernelDef mxm(int tile) {
  KernelBuilder kb("mxm_tiled");
  auto a = kb.ptr_param("a", ir::Type::F32);
  auto b = kb.ptr_param("b", ir::Type::F32);
  auto c = kb.ptr_param("c", ir::Type::F32);
  Val n = kb.s32_param("n");  // square, multiple of tile

  auto as = kb.shared_array("as", ir::Type::F32, tile * tile);
  auto bs = kb.shared_array("bs", ir::Type::F32, tile * tile);

  Val tx = kb.tid_x();
  Val ty = kb.tid_y();
  Val row = kb.ctaid_y() * tile + ty;
  Val col = kb.ctaid_x() * tile + tx;

  Var acc = kb.var_f32("acc");
  kb.set(acc, kb.cf(0.0));
  Var t = kb.var_s32("t");
  Var k = kb.var_s32("k");
  kb.for_(t, 0, n / tile, 1, Unroll::none(), [&] {
    kb.sts(as, ty * tile + tx, kb.ld(a, row * n + (Val(t) * tile + tx)));
    kb.sts(bs, ty * tile + tx, kb.ld(b, (Val(t) * tile + ty) * n + col));
    kb.barrier();
    // The SDK kernel carries "#pragma unroll" on the inner product loop in
    // both sources.
    kb.for_(k, 0, kb.c32(tile), 1, Unroll::both(-1), [&] {
      kb.set(acc, Val(acc) + kb.lds(as, ty * tile + Val(k)) *
                                 kb.lds(bs, Val(k) * tile + tx));
    });
    kb.barrier();
  });
  kb.st(c, row * n + col, acc);
  return kb.finish();
}

}  // namespace kernels

namespace {

class MxMBenchmark final : public BenchmarkBase {
 public:
  std::string name() const override { return "MxM"; }
  std::string suite() const override { return "NSDK"; }
  std::string dwarf() const override { return "Dense Linear Algebra"; }
  std::string description() const override {
    return "Matrix multiplication";
  }
  Metric metric() const override { return Metric::GFlops; }

 protected:
  void run_impl(harness::DeviceSession& s, const Options& opts,
                Result* r) const override {
    const int tile = 16;
    const int n = scaled_dim(128, opts.scale, tile);

    std::vector<float> a(static_cast<std::size_t>(n) * n);
    std::vector<float> b(a.size());
    Rng rng(5);
    for (float& v : a) v = rng.next_float(-1.0f, 1.0f);
    for (float& v : b) v = rng.next_float(-1.0f, 1.0f);
    const auto da = s.upload<float>(a);
    const auto db = s.upload<float>(b);
    const auto dc = s.alloc(a.size() * 4);

    auto ck = s.compile(kernels::mxm(tile));
    std::vector<sim::KernelArg> args = {
        sim::KernelArg::ptr(da), sim::KernelArg::ptr(db),
        sim::KernelArg::ptr(dc), sim::KernelArg::s32(n)};
    auto lr = s.launch(ck, {n / tile, n / tile, 1}, {tile, tile, 1}, args);
    r->stats = lr.stats.total;

    std::vector<float> got(a.size());
    s.download<float>(dc, got);
    std::vector<float> want(a.size(), 0.0f);
    for (int i = 0; i < n; ++i) {
      for (int k = 0; k < n; ++k) {
        const float aik = a[static_cast<std::size_t>(i) * n + k];
        for (int j = 0; j < n; ++j) {
          want[static_cast<std::size_t>(i) * n + j] +=
              aik * b[static_cast<std::size_t>(k) * n + j];
        }
      }
    }
    r->correct = nearly_equal(got, want, 2e-3f, 2e-3f);
    r->value = 2.0 * n * n * static_cast<double>(n) / s.totals().kernel_s / 1e9;
  }
};

}  // namespace

const Benchmark* make_mxm_benchmark() {
  static const MxMBenchmark b;
  return &b;
}

}  // namespace gpc::bench
