// Sobel X-gradient on a grey image (SELF, Table II). The architecture study
// of Fig. 8: the OpenCL source keeps the 3x3 filter in constant memory, the
// CUDA source reads it from a global buffer. On the cache-less GT200 the
// repeated global filter reads dominate the kernel; Fermi's L1 makes them
// nearly free, which is why the GTX480 numbers barely move.
#include <algorithm>
#include <vector>

#include "bench_kernels/common.h"
#include "bench_kernels/kernels.h"

namespace gpc::bench {

using kernel::KernelBuilder;
using kernel::KernelDef;
using kernel::Unroll;
using kernel::Val;
using kernel::Var;

namespace kernels {

KernelDef sobel(bool constant_filter, int tile) {
  (void)tile;
  KernelBuilder kb(constant_filter ? "sobel_x_const" : "sobel_x_global");
  auto in = kb.ptr_param("in", ir::Type::F32);
  auto out = kb.ptr_param("out", ir::Type::F32);
  auto filter_g = kb.ptr_param("filter", ir::Type::F32);
  Val w = kb.s32_param("width");
  Val h = kb.s32_param("height");

  // Sobel X coefficients, row-major 3x3.
  static const float kFilter[9] = {-1, 0, 1, -2, 0, 2, -1, 0, 1};
  kernel::ConstArr filter_c;
  if (constant_filter) {
    filter_c = kb.const_array_f32("c_filter", kFilter);
  }

  // Naive per-pixel convolution, as the paper's SELF-written kernel: every
  // thread reads its nine neighbours and nine filter taps directly. On the
  // cache-less GT200 the uniform filter reads cost a full DRAM transaction
  // each unless the filter sits in constant memory (Fig. 8); Fermi's L1
  // absorbs them either way.
  Val gx = kb.global_id_x();
  Val gy = kb.global_id_y();
  kb.if_((gx < w) & (gy < h), [&] {
    Var sum = kb.var_f32("sum");
    kb.set(sum, kb.cf(0.0));
    Var ky = kb.var_s32("ky");
    Var kx = kb.var_s32("kx");
    kb.if_else(
        (gx > 0) & (gx < w - 1) & (gy > 0) & (gy < h - 1),
        [&] {
          kb.for_(ky, 0, kb.c32(3), 1, Unroll::both(-1), [&] {
            kb.for_(kx, 0, kb.c32(3), 1, Unroll::both(-1), [&] {
              Val coef = constant_filter
                             ? kb.ldc(filter_c, Val(ky) * 3 + Val(kx))
                             : kb.ld(filter_g, Val(ky) * 3 + Val(kx));
              Val pix = kb.ld(in, (gy + Val(ky) - 1) * w + (gx + Val(kx) - 1));
              kb.set(sum, Val(sum) + coef * pix);
            });
          });
          kb.st(out, gy * w + gx, sum);
        },
        [&] { kb.st(out, gy * w + gx, kb.cf(0.0)); });
  });
  return kb.finish();
}

}  // namespace kernels

namespace {

void sobel_reference(const std::vector<float>& in, int w, int h,
                     std::vector<float>* out) {
  static const float f[9] = {-1, 0, 1, -2, 0, 2, -1, 0, 1};
  out->assign(static_cast<std::size_t>(w) * h, 0.0f);
  for (int y = 1; y < h - 1; ++y) {
    for (int x = 1; x < w - 1; ++x) {
      float s = 0;
      for (int ky = 0; ky < 3; ++ky) {
        for (int kx = 0; kx < 3; ++kx) {
          s += f[ky * 3 + kx] * in[(y + ky - 1) * w + (x + kx - 1)];
        }
      }
      (*out)[y * w + x] = s;
    }
  }
}

class SobelBenchmark final : public BenchmarkBase {
 public:
  std::string name() const override { return "Sobel"; }
  std::string suite() const override { return "SELF"; }
  std::string dwarf() const override { return "Dense Linear Algebra"; }
  std::string description() const override {
    return "Sobel operator on a gray image in X direction";
  }
  Metric metric() const override { return Metric::Seconds; }

 protected:
  void run_impl(harness::DeviceSession& s, const Options& opts,
                Result* r) const override {
    const int tile = 16;
    const int w = scaled_dim(512, opts.scale, tile);
    const int h = w;
    const bool constant_filter = s.toolchain() == arch::Toolchain::Cuda
                                     ? opts.sobel_constant_cuda
                                     : opts.sobel_constant_opencl;

    std::vector<float> img(static_cast<std::size_t>(w) * h);
    Rng rng(7);
    for (float& v : img) v = rng.next_float(0.0f, 255.0f);
    static const float kFilter[9] = {-1, 0, 1, -2, 0, 2, -1, 0, 1};

    const auto d_in = s.upload<float>(img);
    const auto d_out = s.alloc(img.size() * 4);
    const auto d_filter = s.upload<float>(std::span<const float>(kFilter));

    auto ck = s.compile(kernels::sobel(constant_filter, tile));
    std::vector<sim::KernelArg> args = {
        sim::KernelArg::ptr(d_in), sim::KernelArg::ptr(d_out),
        sim::KernelArg::ptr(d_filter), sim::KernelArg::s32(w),
        sim::KernelArg::s32(h)};
    auto lr = s.launch(ck, {w / tile, h / tile, 1}, {tile, tile, 1}, args);
    r->stats = lr.stats.total;

    std::vector<float> got(img.size());
    s.download<float>(d_out, got);
    std::vector<float> want;
    sobel_reference(img, w, h, &want);
    r->correct = nearly_equal(got, want, 1e-4f, 1e-3f);
    r->value = s.totals().kernel_s;
  }
};

}  // namespace

const Benchmark* make_sobel_benchmark() {
  static const SobelBenchmark b;
  return &b;
}

}  // namespace gpc::bench
