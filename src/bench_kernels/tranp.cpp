// Matrix transposition with shared memory (SELF, Table II). The shared tile
// is padded by one column to avoid bank conflicts; the `use_local=false`
// variant is the naive direct transpose, used for the §V observation that
// explicit local-memory staging *hurts* on CPU OpenCL devices where all
// memory is hardware-cached anyway.
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

KernelDef tranp(bool use_local, int tile) {
  KernelBuilder kb(use_local ? "transpose_shared" : "transpose_naive");
  auto in = kb.ptr_param("in", ir::Type::F32);
  auto out = kb.ptr_param("out", ir::Type::F32);
  Val n = kb.s32_param("n");  // square matrix edge

  Val tx = kb.tid_x();
  Val ty = kb.tid_y();

  if (!use_local) {
    Val x = kb.ctaid_x() * tile + tx;
    Val y = kb.ctaid_y() * tile + ty;
    kb.if_((x < n) & (y < n),
           [&] { kb.st(out, x * n + y, kb.ld(in, y * n + x)); });
    return kb.finish();
  }

  // Padded tile: +1 column keeps the column-wise read conflict-free.
  auto smem = kb.shared_array("tile", ir::Type::F32, tile * (tile + 1));
  Val x_in = kb.ctaid_x() * tile + tx;
  Val y_in = kb.ctaid_y() * tile + ty;
  kb.if_((x_in < n) & (y_in < n), [&] {
    kb.sts(smem, ty * (tile + 1) + tx, kb.ld(in, y_in * n + x_in));
  });
  kb.barrier();
  // Write the transposed tile with coalesced stores: output block indices
  // swap, thread roles swap inside the tile.
  Val x_out = kb.ctaid_y() * tile + tx;
  Val y_out = kb.ctaid_x() * tile + ty;
  kb.if_((x_out < n) & (y_out < n), [&] {
    kb.st(out, y_out * n + x_out, kb.lds(smem, tx * (tile + 1) + ty));
  });
  return kb.finish();
}

}  // namespace kernels

namespace {

class TranPBenchmark final : public BenchmarkBase {
 public:
  std::string name() const override { return "TranP"; }
  std::string suite() const override { return "SELF"; }
  std::string dwarf() const override { return "Dense Linear Algebra"; }
  std::string description() const override {
    return "Matrix transposition with shared memory";
  }
  Metric metric() const override { return Metric::GBps; }

 protected:
  void run_impl(harness::DeviceSession& s, const Options& opts,
                Result* r) const override {
    const int tile = 16;
    const int n = scaled_dim(512, opts.scale, tile);

    std::vector<float> a(static_cast<std::size_t>(n) * n);
    Rng rng(11);
    for (float& v : a) v = rng.next_float();
    const auto d_in = s.upload<float>(a);
    const auto d_out = s.alloc(a.size() * 4);

    auto ck = s.compile(kernels::tranp(opts.tranp_use_local, tile));
    std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(d_in),
                                        sim::KernelArg::ptr(d_out),
                                        sim::KernelArg::s32(n)};
    auto lr =
        s.launch(ck, {n / tile, n / tile, 1}, {tile, tile, 1}, args);
    r->stats = lr.stats.total;

    std::vector<float> got(a.size());
    s.download<float>(d_out, got);
    r->correct = true;
    for (int y = 0; y < n && r->correct; ++y) {
      for (int x = 0; x < n; ++x) {
        if (got[static_cast<std::size_t>(x) * n + y] !=
            a[static_cast<std::size_t>(y) * n + x]) {
          r->correct = false;
          break;
        }
      }
    }
    const double bytes = 2.0 * a.size() * 4;  // read + write
    r->value = bytes / s.totals().kernel_s / 1e9;
  }
};

}  // namespace

const Benchmark* make_tranp_benchmark() {
  static const TranPBenchmark b;
  return &b;
}

}  // namespace gpc::bench
