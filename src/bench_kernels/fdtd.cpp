// 3D finite-difference time-domain stencil (NVIDIA SDK, Table II) — the
// loop-unrolling study of Figs. 6 & 7. Each thread owns an (x, y) column and
// marches the z-plane loop; the paper's CUDA source carries
// `#pragma unroll 9` on that loop (point a) and both sources carry a pragma
// on the radius loop (point b).
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

namespace {
constexpr int kRadius = 4;
constexpr float kCoef[kRadius + 1] = {0.35f, 0.12f, 0.05f, 0.02f, 0.0075f};
}  // namespace

namespace kernels {

KernelDef fdtd(Unroll unroll_a, Unroll unroll_b) {
  KernelBuilder kb("fdtd3d");
  auto in = kb.ptr_param("in", ir::Type::F32);
  auto out = kb.ptr_param("out", ir::Type::F32);
  Val w = kb.s32_param("dimx");
  Val h = kb.s32_param("dimy");
  Val d = kb.s32_param("dimz");
  auto coef = kb.const_array_f32("c_coef", kCoef);

  Val gx = kb.global_id_x();
  Val gy = kb.global_id_y();
  Val plane = w * h;

  kb.if_((gx >= kRadius) & (gx < w - kRadius) & (gy >= kRadius) &
             (gy < h - kRadius),
         [&] {
           Var iz = kb.var_s32("iz");
           Var idx = kb.var_s32("idx");
           // Step through the xy-planes — unroll point (a).
           kb.for_(iz, kb.c32(kRadius), d - kRadius, kb.c32(1), unroll_a, [&] {
             kb.set(idx, (Val(iz) * h + gy) * w + gx);
             Var sum = kb.var_f32("sum");
             kb.set(sum, kb.ldc(coef, kb.c32(0)) * kb.ld(in, idx));
             Var rr = kb.var_s32("rr");
             // Radius loop — unroll point (b).
             kb.for_(rr, 1, kb.c32(kRadius + 1), 1, unroll_b, [&] {
               Val cr = kb.ldc(coef, rr);
               Val along_x =
                   kb.ld(in, Val(idx) - Val(rr)) + kb.ld(in, Val(idx) + Val(rr));
               Val along_y = kb.ld(in, Val(idx) - Val(rr) * w) +
                             kb.ld(in, Val(idx) + Val(rr) * w);
               Val along_z = kb.ld(in, Val(idx) - Val(rr) * plane) +
                             kb.ld(in, Val(idx) + Val(rr) * plane);
               kb.set(sum, Val(sum) + cr * (along_x + along_y + along_z));
             });
             kb.st(out, Val(idx), sum);
           });
         });
  return kb.finish();
}

}  // namespace kernels

namespace {

void fdtd_reference(const std::vector<float>& in, int w, int h, int d,
                    std::vector<float>* out) {
  *out = in;
  for (int z = kRadius; z < d - kRadius; ++z) {
    for (int y = kRadius; y < h - kRadius; ++y) {
      for (int x = kRadius; x < w - kRadius; ++x) {
        const std::size_t idx =
            (static_cast<std::size_t>(z) * h + y) * w + x;
        float sum = kCoef[0] * in[idx];
        for (int r = 1; r <= kRadius; ++r) {
          sum += kCoef[r] *
                 (in[idx - r] + in[idx + r] +
                  in[idx - static_cast<std::size_t>(r) * w] +
                  in[idx + static_cast<std::size_t>(r) * w] +
                  in[idx - static_cast<std::size_t>(r) * w * h] +
                  in[idx + static_cast<std::size_t>(r) * w * h]);
        }
        (*out)[idx] = sum;
      }
    }
  }
}

class FdtdBenchmark final : public BenchmarkBase {
 public:
  std::string name() const override { return "FDTD"; }
  std::string suite() const override { return "NSDK"; }
  std::string dwarf() const override { return "Structured Grids"; }
  std::string description() const override {
    return "Finite-difference time-domain method";
  }
  Metric metric() const override { return Metric::MPointsPerSec; }

 protected:
  void run_impl(harness::DeviceSession& s, const Options& opts,
                Result* r) const override {
    const int tile = 16;
    const int w = scaled_dim(48, opts.scale, tile);
    const int h = w;
    const int d = 48;

    const Unroll a{opts.fdtd_unroll_a_cuda ? 9 : 0,
                   opts.fdtd_unroll_a_opencl ? 9 : 0};
    const Unroll b{opts.fdtd_unroll_b_cuda ? -1 : 0,
                   opts.fdtd_unroll_b_opencl ? -1 : 0};

    std::vector<float> grid(static_cast<std::size_t>(w) * h * d);
    Rng rng(17);
    for (float& v : grid) v = rng.next_float(-1.0f, 1.0f);
    const auto d_in = s.upload<float>(grid);
    const auto d_out = s.upload<float>(grid);  // borders copy through

    auto ck = s.compile(kernels::fdtd(a, b));
    std::vector<sim::KernelArg> args = {
        sim::KernelArg::ptr(d_in), sim::KernelArg::ptr(d_out),
        sim::KernelArg::s32(w), sim::KernelArg::s32(h),
        sim::KernelArg::s32(d)};
    auto lr = s.launch(ck, {w / tile, h / tile, 1}, {tile, tile, 1}, args);
    r->stats = lr.stats.total;

    std::vector<float> got(grid.size());
    s.download<float>(d_out, got);
    std::vector<float> want;
    fdtd_reference(grid, w, h, d, &want);
    r->correct = nearly_equal(got, want, 1e-4f, 1e-4f);

    const double points = static_cast<double>(w) * h * d;
    r->value = points / s.totals().kernel_s / 1e6;
  }
};

}  // namespace

const Benchmark* make_fdtd_benchmark() {
  static const FdtdBenchmark b;
  return &b;
}

}  // namespace gpc::bench
