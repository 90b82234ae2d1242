// Batched 512-point complex FFT (SHOC "FFT", Table II). One transform per
// work-group: Sande-Tukey decimation-in-frequency radix-2 over shared
// memory, twiddles computed at run time with sin/cos, bit-reversed output
// permutation built from shift/mask arithmetic.
//
// This "forward" kernel is the subject of the paper's Table V: compiled
// through both front-ends, the OpenCL PTX carries the software sin/cos
// polynomial (arithmetic + logic/shift + setp/selp inflation, literal pool
// in the constant bank) while CUDA maps the twiddles onto SFU instructions
// and CSEs the index math — bench/table05_ptx_stats regenerates the
// comparison.
#include <cmath>
#include <complex>
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
constexpr int kFftN = 512;
constexpr int kFftThreads = 64;
constexpr int kFftLog2N = 9;
}  // namespace

namespace kernels {

KernelDef fft_forward();

KernelDef fft_forward() {
  KernelBuilder kb("fft512_forward");
  auto re_in = kb.ptr_param("re_in", ir::Type::F32);
  auto im_in = kb.ptr_param("im_in", ir::Type::F32);
  auto re_out = kb.ptr_param("re_out", ir::Type::F32);
  auto im_out = kb.ptr_param("im_out", ir::Type::F32);
  auto sr = kb.shared_array("sr", ir::Type::F32, kFftN);
  auto si = kb.shared_array("si", ir::Type::F32, kFftN);

  Val tid = kb.tid_x();
  Val base = kb.ctaid_x() * kFftN;

  Var m = kb.var_s32("m");
  kb.for_(m, 0, kb.c32(kFftN / kFftThreads), 1, Unroll::both(-1), [&] {
    Val idx = tid + Val(m) * kFftThreads;
    kb.sts(sr, idx, kb.ld(re_in, base + idx));
    kb.sts(si, idx, kb.ld(im_in, base + idx));
  });
  kb.barrier();

  Var span = kb.var_s32("span");
  Var ar = kb.var_f32("ar");
  Var ai = kb.var_f32("ai");
  Var br = kb.var_f32("br");
  Var bi = kb.var_f32("bi");
  Var tr = kb.var_f32("tr");
  Var ti = kb.var_f32("ti");
  Var wr = kb.var_f32("wr");
  Var wi = kb.var_f32("wi");
  Var i0 = kb.var_s32("i0");
  Var i1 = kb.var_s32("i1");

  kb.set(span, kb.c32(kFftN / 2));
  kb.while_(Val(span) > 0, [&] {
    Var pm = kb.var_s32("pm");
    // 256 butterflies per stage, 4 per thread (pragma'd in both sources).
    kb.for_(pm, 0, kb.c32(kFftN / 2 / kFftThreads), 1, Unroll::both(-1), [&] {
      Val p = tid + Val(pm) * kFftThreads;
      Val g = p / Val(span);
      Val rr = p % Val(span);
      kb.set(i0, g * (2 * Val(span)) + rr);
      kb.set(i1, Val(i0) + Val(span));
      kb.set(ar, kb.lds(sr, Val(i0)));
      kb.set(ai, kb.lds(si, Val(i0)));
      kb.set(br, kb.lds(sr, Val(i1)));
      kb.set(bi, kb.lds(si, Val(i1)));
      kb.sts(sr, Val(i0), Val(ar) + Val(br));
      kb.sts(si, Val(i0), Val(ai) + Val(bi));
      kb.set(tr, Val(ar) - Val(br));
      kb.set(ti, Val(ai) - Val(bi));
      // W = exp(-i*pi*r/span): run-time twiddle, the Table V divergence.
      Val ang = kb.cf(-3.14159265358979) * kb.cast(rr, ir::Type::F32) /
                kb.cast(Val(span), ir::Type::F32);
      kb.set(wr, kb.cos_(ang));
      kb.set(wi, kb.sin_(ang));
      kb.sts(sr, Val(i1), Val(tr) * Val(wr) - Val(ti) * Val(wi));
      kb.sts(si, Val(i1), Val(tr) * Val(wi) + Val(ti) * Val(wr));
    });
    kb.barrier();
    kb.set(span, Val(span) >> 1);
  });

  // Bit-reversed write-back; the reversal is pure shift/mask arithmetic.
  Var rv = kb.var_s32("rv");
  Var bbit = kb.var_s32("bbit");
  Var idxv = kb.var_s32("idxv");
  kb.for_(m, 0, kb.c32(kFftN / kFftThreads), 1, Unroll::both(-1), [&] {
    kb.set(idxv, tid + Val(m) * kFftThreads);
    kb.set(rv, kb.c32(0));
    kb.for_(bbit, 0, kb.c32(kFftLog2N), 1, Unroll::both(-1), [&] {
      kb.set(rv, (Val(rv) << 1) | ((Val(idxv) >> Val(bbit)) & 1));
    });
    kb.st(re_out, base + Val(rv), kb.lds(sr, Val(idxv)));
    kb.st(im_out, base + Val(rv), kb.lds(si, Val(idxv)));
  });
  return kb.finish();
}

}  // namespace kernels

namespace {

void dft_reference(const std::vector<float>& re, const std::vector<float>& im,
                   int offset, std::vector<std::complex<double>>* out) {
  out->assign(kFftN, {0, 0});
  for (int k = 0; k < kFftN; ++k) {
    std::complex<double> acc{0, 0};
    for (int n = 0; n < kFftN; ++n) {
      const double ang = -2.0 * M_PI * k * n / kFftN;
      acc += std::complex<double>(re[offset + n], im[offset + n]) *
             std::complex<double>(std::cos(ang), std::sin(ang));
    }
    (*out)[k] = acc;
  }
}

class FftBenchmark final : public BenchmarkBase {
 public:
  std::string name() const override { return "FFT"; }
  std::string suite() const override { return "SHOC"; }
  std::string dwarf() const override { return "Spectral Methods"; }
  std::string description() const override {
    return "Fast Fourier Transform";
  }
  Metric metric() const override { return Metric::GFlops; }

 protected:
  void run_impl(harness::DeviceSession& s, const Options& opts,
                Result* r) const override {
    const int batch = std::max(8, static_cast<int>(64 * opts.scale));
    const int n = batch * kFftN;

    std::vector<float> re(n), im(n);
    Rng rng(47);
    for (int i = 0; i < n; ++i) {
      re[i] = rng.next_float(-1.0f, 1.0f);
      im[i] = rng.next_float(-1.0f, 1.0f);
    }
    const auto d_re_in = s.upload<float>(re);
    const auto d_im_in = s.upload<float>(im);
    const auto d_re_out = s.alloc(static_cast<std::size_t>(n) * 4);
    const auto d_im_out = s.alloc(static_cast<std::size_t>(n) * 4);

    auto ck = s.compile(kernels::fft_forward());
    std::vector<sim::KernelArg> args = {
        sim::KernelArg::ptr(d_re_in), sim::KernelArg::ptr(d_im_in),
        sim::KernelArg::ptr(d_re_out), sim::KernelArg::ptr(d_im_out)};
    auto lr = s.launch(ck, {batch, 1, 1}, {kFftThreads, 1, 1}, args);
    r->stats = lr.stats.total;

    std::vector<float> gre(n), gim(n);
    s.download<float>(d_re_out, gre);
    s.download<float>(d_im_out, gim);

    // Verify the first transforms against a double-precision DFT.
    r->correct = true;
    for (int b = 0; b < std::min(batch, 3) && r->correct; ++b) {
      std::vector<std::complex<double>> want;
      dft_reference(re, im, b * kFftN, &want);
      for (int k = 0; k < kFftN; ++k) {
        const double wr = want[k].real(), wi = want[k].imag();
        const double tol = 1e-2 * std::max(1.0, std::abs(wr) + std::abs(wi));
        if (std::abs(gre[b * kFftN + k] - wr) > tol ||
            std::abs(gim[b * kFftN + k] - wi) > tol) {
          r->correct = false;
          break;
        }
      }
    }

    const double flops = 5.0 * kFftN * kFftLog2N * batch;
    r->value = flops / s.totals().kernel_s / 1e9;
  }
};

}  // namespace

const Benchmark* make_fft_benchmark() {
  static const FftBenchmark b;
  return &b;
}

}  // namespace gpc::bench
