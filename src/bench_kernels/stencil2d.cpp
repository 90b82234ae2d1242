// Two-dimensional nine-point stencil (SHOC, Table II). Shared-memory tiled
// with a one-cell halo; double-buffered over a fixed number of iterations.
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

KernelDef stencil2d(int tile) {
  KernelBuilder kb("stencil2d_9pt");
  auto in = kb.ptr_param("in", ir::Type::F32);
  auto out = kb.ptr_param("out", ir::Type::F32);
  Val w = kb.s32_param("width");
  Val h = kb.s32_param("height");
  Val c_center = kb.f32_param("w_center");
  Val c_adj = kb.f32_param("w_adjacent");
  Val c_diag = kb.f32_param("w_diagonal");

  const int halo = tile + 2;
  auto smem = kb.shared_array("tile", ir::Type::F32, halo * halo);

  Val tx = kb.tid_x();
  Val ty = kb.tid_y();
  Val gx = kb.ctaid_x() * tile + tx;
  Val gy = kb.ctaid_y() * tile + ty;

  Var ly = kb.var_s32("ly");
  Var lx = kb.var_s32("lx");
  kb.for_(ly, 0, kb.c32(2), 1, Unroll::both(-1), [&] {
    kb.for_(lx, 0, kb.c32(2), 1, Unroll::both(-1), [&] {
      Val sy = ty + Val(ly) * tile;
      Val sx = tx + Val(lx) * tile;
      kb.if_((sy < halo) & (sx < halo), [&] {
        Val iy = kb.max_(kb.c32(0),
                         kb.min_(h - 1, kb.ctaid_y() * tile + sy - 1));
        Val ix = kb.max_(kb.c32(0),
                         kb.min_(w - 1, kb.ctaid_x() * tile + sx - 1));
        kb.sts(smem, sy * halo + sx, kb.ld(in, iy * w + ix));
      });
    });
  });
  kb.barrier();

  kb.if_((gx > 0) & (gx < w - 1) & (gy > 0) & (gy < h - 1), [&] {
    Val cy = ty + 1, cx = tx + 1;
    Val center = kb.lds(smem, cy * halo + cx);
    Val adj = kb.lds(smem, (cy - 1) * halo + cx) +
              kb.lds(smem, (cy + 1) * halo + cx) +
              kb.lds(smem, cy * halo + (cx - 1)) +
              kb.lds(smem, cy * halo + (cx + 1));
    Val diag = kb.lds(smem, (cy - 1) * halo + (cx - 1)) +
               kb.lds(smem, (cy - 1) * halo + (cx + 1)) +
               kb.lds(smem, (cy + 1) * halo + (cx - 1)) +
               kb.lds(smem, (cy + 1) * halo + (cx + 1));
    kb.st(out, gy * w + gx, c_center * center + c_adj * adj + c_diag * diag);
  });
  return kb.finish();
}

}  // namespace kernels

namespace {

void stencil_reference(std::vector<float>* grid, int w, int h, float cc,
                       float ca, float cd, int iters) {
  std::vector<float> next = *grid;
  for (int it = 0; it < iters; ++it) {
    for (int y = 1; y < h - 1; ++y) {
      for (int x = 1; x < w - 1; ++x) {
        const auto at = [&](int yy, int xx) {
          return (*grid)[static_cast<std::size_t>(yy) * w + xx];
        };
        const float adj =
            at(y - 1, x) + at(y + 1, x) + at(y, x - 1) + at(y, x + 1);
        const float diag = at(y - 1, x - 1) + at(y - 1, x + 1) +
                           at(y + 1, x - 1) + at(y + 1, x + 1);
        next[static_cast<std::size_t>(y) * w + x] =
            cc * at(y, x) + ca * adj + cd * diag;
      }
    }
    std::swap(*grid, next);
  }
}

class Stencil2DBenchmark final : public BenchmarkBase {
 public:
  std::string name() const override { return "St2D"; }
  std::string suite() const override { return "SHOC"; }
  std::string dwarf() const override { return "Structured Grids"; }
  std::string description() const override {
    return "A two-dimensional nine point stencil calculation";
  }
  Metric metric() const override { return Metric::Seconds; }

 protected:
  void run_impl(harness::DeviceSession& s, const Options& opts,
                Result* r) const override {
    const int tile = 16;
    const int w = scaled_dim(384, opts.scale, tile);
    const int h = w;
    const int iters = 2;
    const float cc = 0.25f, ca = 0.15f, cd = 0.0375f;

    std::vector<float> grid(static_cast<std::size_t>(w) * h);
    Rng rng(13);
    for (float& v : grid) v = rng.next_float();
    const auto d_a = s.upload<float>(grid);
    const auto d_b = s.upload<float>(grid);  // borders stay fixed

    auto ck = s.compile(kernels::stencil2d(tile));
    std::uint64_t src = d_a, dst = d_b;
    sim::BlockStats agg;
    for (int it = 0; it < iters; ++it) {
      std::vector<sim::KernelArg> args = {
          sim::KernelArg::ptr(src), sim::KernelArg::ptr(dst),
          sim::KernelArg::s32(w),   sim::KernelArg::s32(h),
          sim::KernelArg::f32(cc),  sim::KernelArg::f32(ca),
          sim::KernelArg::f32(cd)};
      auto lr = s.launch(ck, {w / tile, h / tile, 1}, {tile, tile, 1}, args);
      agg.merge(lr.stats.total);
      std::swap(src, dst);
    }
    r->stats = agg;

    std::vector<float> got(grid.size());
    s.download<float>(src, got);  // src holds the last written buffer
    stencil_reference(&grid, w, h, cc, ca, cd, iters);
    r->correct = nearly_equal(got, grid, 1e-4f, 1e-4f);
    r->value = s.totals().kernel_s;
  }
};

}  // namespace

const Benchmark* make_stencil2d_benchmark() {
  static const Stencil2DBenchmark b;
  return &b;
}

}  // namespace gpc::bench
