// DXT1 texture compression (NVIDIA SDK "DXTC", Table II). One thread
// compresses one 4x4 texel block: bounding-box endpoints in RGB565, a
// four-colour palette, and a 2-bit index per texel. All arithmetic is
// integer so both toolchains (and the host reference) agree bit-exactly.
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

KernelDef dxtc() {
  KernelBuilder kb("dxt1_compress");
  auto image = kb.ptr_param("image", ir::Type::S32);  // packed 0x00RRGGBB
  auto out = kb.ptr_param("out", ir::Type::S32);      // 2 words per block
  Val wblocks = kb.s32_param("wblocks");
  Val hblocks = kb.s32_param("hblocks");

  Val bx = kb.global_id_x();
  Val by = kb.global_id_y();
  // Per-thread staging of the 16 texels (private memory — which on the
  // Cell/BE lives in the SPE local store and, together with the palette
  // state, is what exhausts it: Table VI's "ABT").
  auto pixels = kb.private_array("pixels", ir::Type::S32, 16);
  kb.if_((bx < wblocks) & (by < hblocks), [&] {
    Val width = wblocks * 4;

    // Pass 1: stage pixels and take the per-channel bounding box.
    Var rmin = kb.var_s32("rmin"); Var rmax = kb.var_s32("rmax");
    Var gmin = kb.var_s32("gmin"); Var gmax = kb.var_s32("gmax");
    Var bmin = kb.var_s32("bmin"); Var bmax = kb.var_s32("bmax");
    kb.set(rmin, kb.c32(255)); kb.set(rmax, kb.c32(0));
    kb.set(gmin, kb.c32(255)); kb.set(gmax, kb.c32(0));
    kb.set(bmin, kb.c32(255)); kb.set(bmax, kb.c32(0));

    Var py = kb.var_s32("py");
    Var px = kb.var_s32("px");
    Var pix = kb.var_s32("pix");
    Var pr = kb.var_s32("pr");
    Var pg = kb.var_s32("pg");
    Var pb = kb.var_s32("pb");
    kb.for_(py, 0, kb.c32(4), 1, Unroll::none(), [&] {
      kb.for_(px, 0, kb.c32(4), 1, Unroll::none(), [&] {
        kb.set(pix, kb.ld(image, (by * 4 + Val(py)) * width + bx * 4 + Val(px)));
        kb.stp(pixels, Val(py) * 4 + Val(px), pix);
        kb.set(pr, (Val(pix) >> 16) & 255);
        kb.set(pg, (Val(pix) >> 8) & 255);
        kb.set(pb, Val(pix) & 255);
        kb.set(rmin, kb.min_(Val(rmin), Val(pr)));
        kb.set(rmax, kb.max_(Val(rmax), Val(pr)));
        kb.set(gmin, kb.min_(Val(gmin), Val(pg)));
        kb.set(gmax, kb.max_(Val(gmax), Val(pg)));
        kb.set(bmin, kb.min_(Val(bmin), Val(pb)));
        kb.set(bmax, kb.max_(Val(bmax), Val(pb)));
      });
    });

    // Endpoints quantised to RGB565 and expanded back (the palette the
    // decoder will reconstruct).
    auto quant = [&](Val r, Val g, Val b) {
      return ((r >> 3) << 11) | ((g >> 2) << 5) | (b >> 3);
    };
    auto expand_r = [&](Val c565) {
      Val r5 = (c565 >> 11) & 31;
      return (r5 << 3) | (r5 >> 2);
    };
    auto expand_g = [&](Val c565) {
      Val g6 = (c565 >> 5) & 63;
      return (g6 << 2) | (g6 >> 4);
    };
    auto expand_b = [&](Val c565) {
      Val b5 = c565 & 31;
      return (b5 << 3) | (b5 >> 2);
    };

    Var c0 = kb.var_s32("c0");
    Var c1 = kb.var_s32("c1");
    kb.set(c0, quant(Val(rmax), Val(gmax), Val(bmax)));
    kb.set(c1, quant(Val(rmin), Val(gmin), Val(bmin)));
    // DXT1 4-colour mode requires c0 > c1; swap degenerate boxes.
    Var tswap = kb.var_s32("tswap");
    kb.if_(Val(c0) < Val(c1), [&] {
      kb.set(tswap, Val(c0));
      kb.set(c0, Val(c1));
      kb.set(c1, Val(tswap));
    });

    // Palette: p0, p1, (2*p0+p1)/3, (p0+2*p1)/3 per channel.
    Var p0r = kb.var_s32("p0r"); Var p0g = kb.var_s32("p0g");
    Var p0b = kb.var_s32("p0b");
    Var p1r = kb.var_s32("p1r"); Var p1g = kb.var_s32("p1g");
    Var p1b = kb.var_s32("p1b");
    kb.set(p0r, expand_r(Val(c0)));
    kb.set(p0g, expand_g(Val(c0)));
    kb.set(p0b, expand_b(Val(c0)));
    kb.set(p1r, expand_r(Val(c1)));
    kb.set(p1g, expand_g(Val(c1)));
    kb.set(p1b, expand_b(Val(c1)));
    Var p2r = kb.var_s32("p2r"); Var p2g = kb.var_s32("p2g");
    Var p2b = kb.var_s32("p2b");
    Var p3r = kb.var_s32("p3r"); Var p3g = kb.var_s32("p3g");
    Var p3b = kb.var_s32("p3b");
    kb.set(p2r, (2 * Val(p0r) + Val(p1r)) / 3);
    kb.set(p2g, (2 * Val(p0g) + Val(p1g)) / 3);
    kb.set(p2b, (2 * Val(p0b) + Val(p1b)) / 3);
    kb.set(p3r, (Val(p0r) + 2 * Val(p1r)) / 3);
    kb.set(p3g, (Val(p0g) + 2 * Val(p1g)) / 3);
    kb.set(p3b, (Val(p0b) + 2 * Val(p1b)) / 3);

    // Pass 2: nearest palette index per texel (from the staged pixels),
    // packed 2 bits each.
    Var indices = kb.var_s32("indices");
    kb.set(indices, kb.c32(0));
    Var best = kb.var_s32("best");
    Var bestd = kb.var_s32("bestd");
    Var dd = kb.var_s32("dd");
    Var ti = kb.var_s32("ti");
    kb.for_(ti, 0, kb.c32(16), 1, Unroll::none(), [&] {
      kb.set(pix, kb.ldp(pixels, Val(ti)));
      kb.set(pr, (Val(pix) >> 16) & 255);
      kb.set(pg, (Val(pix) >> 8) & 255);
      kb.set(pb, Val(pix) & 255);
      auto dist = [&](Val cr, Val cg, Val cb) {
        Val dr = Val(pr) - cr;
        Val dg = Val(pg) - cg;
        Val db = Val(pb) - cb;
        return dr * dr + dg * dg + db * db;
      };
      kb.set(best, kb.c32(0));
      kb.set(bestd, dist(Val(p0r), Val(p0g), Val(p0b)));
      kb.set(dd, dist(Val(p1r), Val(p1g), Val(p1b)));
      kb.if_(Val(dd) < Val(bestd), [&] {
        kb.set(best, kb.c32(1));
        kb.set(bestd, Val(dd));
      });
      kb.set(dd, dist(Val(p2r), Val(p2g), Val(p2b)));
      kb.if_(Val(dd) < Val(bestd), [&] {
        kb.set(best, kb.c32(2));
        kb.set(bestd, Val(dd));
      });
      kb.set(dd, dist(Val(p3r), Val(p3g), Val(p3b)));
      kb.if_(Val(dd) < Val(bestd), [&] {
        kb.set(best, kb.c32(3));
        kb.set(bestd, Val(dd));
      });
      kb.set(indices, Val(indices) | (Val(best) << (Val(ti) * 2)));
    });

    Val blk = by * wblocks + bx;
    kb.st(out, blk * 2, Val(c0) | (Val(c1) << 16));
    kb.st(out, blk * 2 + 1, indices);
  });
  return kb.finish();
}

}  // namespace kernels

namespace {

void dxtc_reference(const std::vector<std::int32_t>& img, int wblocks,
                    int hblocks, std::vector<std::int32_t>* out) {
  const int width = wblocks * 4;
  out->assign(static_cast<std::size_t>(wblocks) * hblocks * 2, 0);
  auto expand = [](int c565, int& r, int& g, int& b) {
    const int r5 = (c565 >> 11) & 31, g6 = (c565 >> 5) & 63, b5 = c565 & 31;
    r = (r5 << 3) | (r5 >> 2);
    g = (g6 << 2) | (g6 >> 4);
    b = (b5 << 3) | (b5 >> 2);
  };
  for (int by = 0; by < hblocks; ++by) {
    for (int bx = 0; bx < wblocks; ++bx) {
      int rmin = 255, rmax = 0, gmin = 255, gmax = 0, bmin = 255, bmax = 0;
      for (int py = 0; py < 4; ++py) {
        for (int px = 0; px < 4; ++px) {
          const int pix = img[(by * 4 + py) * width + bx * 4 + px];
          const int r = (pix >> 16) & 255, g = (pix >> 8) & 255, b = pix & 255;
          rmin = std::min(rmin, r); rmax = std::max(rmax, r);
          gmin = std::min(gmin, g); gmax = std::max(gmax, g);
          bmin = std::min(bmin, b); bmax = std::max(bmax, b);
        }
      }
      int c0 = ((rmax >> 3) << 11) | ((gmax >> 2) << 5) | (bmax >> 3);
      int c1 = ((rmin >> 3) << 11) | ((gmin >> 2) << 5) | (bmin >> 3);
      if (c0 < c1) std::swap(c0, c1);
      int pr[4], pg[4], pb[4];
      expand(c0, pr[0], pg[0], pb[0]);
      expand(c1, pr[1], pg[1], pb[1]);
      pr[2] = (2 * pr[0] + pr[1]) / 3;
      pg[2] = (2 * pg[0] + pg[1]) / 3;
      pb[2] = (2 * pb[0] + pb[1]) / 3;
      pr[3] = (pr[0] + 2 * pr[1]) / 3;
      pg[3] = (pg[0] + 2 * pg[1]) / 3;
      pb[3] = (pb[0] + 2 * pb[1]) / 3;
      std::int32_t indices = 0;
      int ti = 0;
      for (int py = 0; py < 4; ++py) {
        for (int px = 0; px < 4; ++px) {
          const int pix = img[(by * 4 + py) * width + bx * 4 + px];
          const int r = (pix >> 16) & 255, g = (pix >> 8) & 255, b = pix & 255;
          int best = 0, bestd = INT32_MAX;
          for (int p = 0; p < 4; ++p) {
            const int dr = r - pr[p], dg = g - pg[p], db = b - pb[p];
            const int d = dr * dr + dg * dg + db * db;
            if (d < bestd) {
              bestd = d;
              best = p;
            }
          }
          indices |= best << (ti * 2);
          ++ti;
        }
      }
      const std::size_t blk = static_cast<std::size_t>(by) * wblocks + bx;
      (*out)[blk * 2] = c0 | (c1 << 16);
      (*out)[blk * 2 + 1] = indices;
    }
  }
}

class DxtcBenchmark final : public BenchmarkBase {
 public:
  std::string name() const override { return "DXTC"; }
  std::string suite() const override { return "NSDK"; }
  std::string dwarf() const override { return "Dense Linear Algebra"; }
  std::string description() const override {
    return "High quality DXT compression";
  }
  Metric metric() const override { return Metric::MPixelsPerSec; }

 protected:
  void run_impl(harness::DeviceSession& s, const Options& opts,
                Result* r) const override {
    const int tile = 8;  // threads per block edge (8x8 blocks of texels)
    const int w = scaled_dim(256, opts.scale, 4 * tile);
    const int h = w;
    const int wb = w / 4, hb = h / 4;

    std::vector<std::int32_t> img(static_cast<std::size_t>(w) * h);
    Rng rng(43);
    for (auto& v : img) {
      v = static_cast<std::int32_t>(rng.next_u32() & 0x00FFFFFF);
    }
    const auto d_img = s.upload<std::int32_t>(img);
    const auto d_out = s.alloc(static_cast<std::size_t>(wb) * hb * 2 * 4);

    auto ck = s.compile(kernels::dxtc());
    std::vector<sim::KernelArg> args = {
        sim::KernelArg::ptr(d_img), sim::KernelArg::ptr(d_out),
        sim::KernelArg::s32(wb), sim::KernelArg::s32(hb)};
    auto lr = s.launch(ck, {wb / tile, hb / tile, 1}, {tile, tile, 1}, args);
    r->stats = lr.stats.total;

    std::vector<std::int32_t> got(static_cast<std::size_t>(wb) * hb * 2);
    s.download<std::int32_t>(d_out, got);
    std::vector<std::int32_t> want;
    dxtc_reference(img, wb, hb, &want);
    r->correct = got == want;
    r->value = static_cast<double>(w) * h / s.totals().kernel_s / 1e6;
  }
};

}  // namespace

const Benchmark* make_dxtc_benchmark() {
  static const DxtcBenchmark b;
  return &b;
}

}  // namespace gpc::bench
