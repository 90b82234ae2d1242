// Molecular dynamics: Lennard-Jones forces over a fixed-size neighbour list
// (SHOC "MD", Table II). The CUDA source reads the position arrays through
// textures — the neighbour gather is irregular but spatially local, so the
// texture cache absorbs most of it. Removing the texture (Fig. 4) exposes
// the scattered reads to raw DRAM on cache-less parts.
#include <algorithm>
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
constexpr float kCutoff2 = 13.5f;
constexpr float kLj1 = 1.5f;   // 4*eps*sigma^12 (scaled)
constexpr float kLj2 = 2.0f;   // 4*eps*sigma^6 (scaled)
constexpr int kFlopsPerInteraction = 26;  // SHOC's counting convention
}  // namespace

namespace kernels {

KernelDef md(int neighbors) {
  KernelBuilder kb("md_lj_force");
  auto posx = kb.ptr_param("posx", ir::Type::F32);
  auto posy = kb.ptr_param("posy", ir::Type::F32);
  auto posz = kb.ptr_param("posz", ir::Type::F32);
  auto neigh = kb.ptr_param("neigh", ir::Type::S32);
  auto fx = kb.ptr_param("fx", ir::Type::F32);
  auto fy = kb.ptr_param("fy", ir::Type::F32);
  auto fz = kb.ptr_param("fz", ir::Type::F32);
  Val n = kb.s32_param("n");
  auto tx = kb.texture("posxTex", ir::Type::F32);
  auto ty = kb.texture("posyTex", ir::Type::F32);
  auto tz = kb.texture("poszTex", ir::Type::F32);

  Val i = kb.global_id_x();
  kb.if_(i < n, [&] {
    Var xi = kb.var_f32("xi");
    Var yi = kb.var_f32("yi");
    Var zi = kb.var_f32("zi");
    kb.set(xi, kb.ld(posx, i));
    kb.set(yi, kb.ld(posy, i));
    kb.set(zi, kb.ld(posz, i));
    Var ax = kb.var_f32("ax");
    Var ay = kb.var_f32("ay");
    Var az = kb.var_f32("az");
    kb.set(ax, kb.cf(0.0));
    kb.set(ay, kb.cf(0.0));
    kb.set(az, kb.cf(0.0));

    Var k = kb.var_s32("k");
    Var dx = kb.var_f32("dx");
    Var dy = kb.var_f32("dy");
    Var dz = kb.var_f32("dz");
    Var r2 = kb.var_f32("r2");
    kb.for_(k, 0, kb.c32(neighbors), 1, Unroll::none(), [&] {
      // Column-major neighbour list: lane-consecutive atoms read
      // consecutive addresses.
      Val j = kb.ld(neigh, Val(k) * n + i);
      kb.set(dx, Val(xi) - kb.tex1d(tx, posx, j));
      kb.set(dy, Val(yi) - kb.tex1d(ty, posy, j));
      kb.set(dz, Val(zi) - kb.tex1d(tz, posz, j));
      // Plummer-softened to keep forces finite for synthetic inputs.
      kb.set(r2, Val(dx) * Val(dx) + Val(dy) * Val(dy) +
                     Val(dz) * Val(dz) + kb.cf(0.25));
      kb.if_(Val(r2) < kb.cf(kCutoff2), [&] {
        Val inv2 = kb.cf(1.0) / Val(r2);
        Val inv6 = inv2 * inv2 * inv2;
        Val force = inv2 * inv6 * (kb.cf(kLj1) * inv6 - kb.cf(kLj2));
        kb.set(ax, Val(ax) + force * Val(dx));
        kb.set(ay, Val(ay) + force * Val(dy));
        kb.set(az, Val(az) + force * Val(dz));
      });
    });
    kb.st(fx, i, ax);
    kb.st(fy, i, ay);
    kb.st(fz, i, az);
  });
  return kb.finish();
}

}  // namespace kernels

namespace {

struct MdData {
  std::vector<float> x, y, z;
  std::vector<std::int32_t> neigh;  // column-major [k*n + i]
  int n = 0;
  int k = 0;
};

MdData make_md_data(int n, int k) {
  MdData d;
  d.n = n;
  d.k = k;
  d.x.resize(n);
  d.y.resize(n);
  d.z.resize(n);
  d.neigh.resize(static_cast<std::size_t>(n) * k);
  Rng rng(31);
  // Atoms along a jittered space-filling curve: index distance ~ spatial
  // distance, so neighbour indices cluster (texture-cache friendly, like a
  // spatially sorted SHOC input).
  for (int i = 0; i < n; ++i) {
    const float t = static_cast<float>(i);
    d.x[i] = 0.9f * (t * 0.37f - std::floor(t * 0.37f)) * 10.0f +
             rng.next_float(-0.05f, 0.05f);
    d.y[i] = 0.9f * (t * 0.21f - std::floor(t * 0.21f)) * 10.0f +
             rng.next_float(-0.05f, 0.05f);
    d.z[i] = t * 10.0f / n + rng.next_float(-0.05f, 0.05f);
  }
  // Wide neighbour windows (±2048 atoms, as a spatially sorted but dense
  // SHOC input produces): a warp's k-th gather scatters one lane per DRAM
  // segment, so plain loads waste ~16x of every transaction, while the
  // texture cache recovers the window's reuse across the k loop.
  for (int kk = 0; kk < k; ++kk) {
    for (int i = 0; i < n; ++i) {
      // Mixed locality, as real neighbour lists have: about two thirds of
      // the neighbours are immediate spatial neighbours (indices within
      // +-32), the rest scatter over a +-4096 window.
      const int span = kk % 3 != 0 ? 32 : 4096;
      int j = i + static_cast<int>(rng.next_below(2 * span)) - span;
      j = ((j % n) + n) % n;
      if (j == i) j = (i + 1) % n;
      d.neigh[static_cast<std::size_t>(kk) * n + i] = j;
    }
  }
  return d;
}

void md_reference(const MdData& d, std::vector<float>* fx,
                  std::vector<float>* fy, std::vector<float>* fz) {
  fx->assign(d.n, 0.0f);
  fy->assign(d.n, 0.0f);
  fz->assign(d.n, 0.0f);
  for (int i = 0; i < d.n; ++i) {
    float ax = 0, ay = 0, az = 0;
    for (int kk = 0; kk < d.k; ++kk) {
      const int j = d.neigh[static_cast<std::size_t>(kk) * d.n + i];
      const float dx = d.x[i] - d.x[j];
      const float dy = d.y[i] - d.y[j];
      const float dz = d.z[i] - d.z[j];
      const float r2 = dx * dx + dy * dy + dz * dz + 0.25f;
      if (r2 < kCutoff2) {
        const float inv2 = 1.0f / r2;
        const float inv6 = inv2 * inv2 * inv2;
        const float force = inv2 * inv6 * (kLj1 * inv6 - kLj2);
        ax += force * dx;
        ay += force * dy;
        az += force * dz;
      }
    }
    (*fx)[i] = ax;
    (*fy)[i] = ay;
    (*fz)[i] = az;
  }
}

class MdBenchmark final : public BenchmarkBase {
 public:
  std::string name() const override { return "MD"; }
  std::string suite() const override { return "SHOC"; }
  std::string dwarf() const override { return "N-Body Methods"; }
  std::string description() const override { return "Molecular dynamics"; }
  Metric metric() const override { return Metric::GFlops; }

 protected:
  void run_impl(harness::DeviceSession& s, const Options& opts,
                Result* r) const override {
    const int block = opts.workgroup > 0 ? opts.workgroup : 128;
    int n = static_cast<int>(8192 * opts.scale);
    n = std::max(block, n / block * block);
    const int k = 32;
    MdData data = make_md_data(n, k);

    const auto dx = s.upload<float>(data.x);
    const auto dy = s.upload<float>(data.y);
    const auto dz = s.upload<float>(data.z);
    const auto dn = s.upload<std::int32_t>(data.neigh);
    const auto dfx = s.alloc(static_cast<std::size_t>(n) * 4);
    const auto dfy = s.alloc(static_cast<std::size_t>(n) * 4);
    const auto dfz = s.alloc(static_cast<std::size_t>(n) * 4);

    compiler::CompileOptions copts;
    copts.enable_textures = opts.use_texture;
    auto ck = s.compile(kernels::md(k), copts);
    s.bind_texture(0, dx, static_cast<std::size_t>(n) * 4, ir::Type::F32);
    s.bind_texture(1, dy, static_cast<std::size_t>(n) * 4, ir::Type::F32);
    s.bind_texture(2, dz, static_cast<std::size_t>(n) * 4, ir::Type::F32);

    std::vector<sim::KernelArg> args = {
        sim::KernelArg::ptr(dx), sim::KernelArg::ptr(dy),
        sim::KernelArg::ptr(dz), sim::KernelArg::ptr(dn),
        sim::KernelArg::ptr(dfx), sim::KernelArg::ptr(dfy),
        sim::KernelArg::ptr(dfz), sim::KernelArg::s32(n)};
    auto lr = s.launch(ck, {n / block, 1, 1}, {block, 1, 1}, args);
    r->stats = lr.stats.total;

    std::vector<float> gfx(n), gfy(n), gfz(n);
    s.download<float>(dfx, gfx);
    s.download<float>(dfy, gfy);
    s.download<float>(dfz, gfz);
    std::vector<float> wfx, wfy, wfz;
    md_reference(data, &wfx, &wfy, &wfz);
    r->correct = nearly_equal(gfx, wfx, 5e-3f, 5e-3f) &&
                 nearly_equal(gfy, wfy, 5e-3f, 5e-3f) &&
                 nearly_equal(gfz, wfz, 5e-3f, 5e-3f);

    const double interactions = static_cast<double>(n) * k;
    r->value =
        interactions * kFlopsPerInteraction / s.totals().kernel_s / 1e9;
  }
};

}  // namespace

const Benchmark* make_md_benchmark() {
  static const MdBenchmark b;
  return &b;
}

}  // namespace gpc::bench
