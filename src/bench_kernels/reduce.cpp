// Array sum reduction (SHOC, Table II): grid-stride load + shared-memory
// tree per block, then a single-block pass over the partials.
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

namespace {
// Shared tree reduction over `block` elements of `smem`; leaves the total in
// smem[0]. Classic halving loop with a barrier per level.
void emit_tree_reduce(KernelBuilder& kb, kernel::Shared smem, int block) {
  Val tid = kb.tid_x();
  Var stride = kb.var_s32("stride");
  kb.set(stride, kb.c32(block / 2));
  kb.while_(Val(stride) > 0, [&] {
    kb.if_(tid < Val(stride), [&] {
      kb.sts(smem, tid, kb.lds(smem, tid) + kb.lds(smem, tid + Val(stride)));
    });
    kb.barrier();
    kb.set(stride, Val(stride) >> 1);
  });
}
}  // namespace

KernelDef reduce_stage1(int block) {
  KernelBuilder kb("reduce_stage1");
  auto in = kb.ptr_param("in", ir::Type::F32);
  auto partials = kb.ptr_param("partials", ir::Type::F32);
  Val n = kb.s32_param("n");
  auto smem = kb.shared_array("sdata", ir::Type::F32, block);

  Val tid = kb.tid_x();
  Val gid = kb.global_id_x();
  Val stride = kb.ntid_x() * kb.nctaid_x();
  Var sum = kb.var_f32("sum");
  kb.set(sum, kb.cf(0.0));
  Var i = kb.var_s32("i");
  kb.set(i, gid);
  kb.while_(Val(i) < n, [&] {
    kb.set(sum, Val(sum) + kb.ld(in, i));
    kb.set(i, Val(i) + stride);
  });
  kb.sts(smem, tid, sum);
  kb.barrier();
  emit_tree_reduce(kb, smem, block);
  kb.if_(tid == 0,
         [&] { kb.st(partials, kb.ctaid_x(), kb.lds(smem, kb.c32(0))); });
  return kb.finish();
}

KernelDef reduce_stage2(int block) {
  KernelBuilder kb("reduce_stage2");
  auto partials = kb.ptr_param("partials", ir::Type::F32);
  auto out = kb.ptr_param("out", ir::Type::F32);
  Val n = kb.s32_param("n");
  auto smem = kb.shared_array("sdata", ir::Type::F32, block);

  Val tid = kb.tid_x();
  kb.if_else(
      tid < n, [&] { kb.sts(smem, tid, kb.ld(partials, tid)); },
      [&] { kb.sts(smem, tid, kb.cf(0.0)); });
  kb.barrier();
  emit_tree_reduce(kb, smem, block);
  kb.if_(tid == 0, [&] { kb.st(out, kb.c32(0), kb.lds(smem, kb.c32(0))); });
  return kb.finish();
}

}  // namespace kernels

namespace {

class ReduceBenchmark final : public BenchmarkBase {
 public:
  std::string name() const override { return "Reduce"; }
  std::string suite() const override { return "SHOC"; }
  std::string dwarf() const override { return "Reduce"; }
  std::string description() const override {
    return "Calculate a reduction of an array";
  }
  Metric metric() const override { return Metric::GBps; }

 protected:
  void run_impl(harness::DeviceSession& s, const Options& opts,
                Result* r) const override {
    const int block = opts.workgroup > 0 ? opts.workgroup : 256;
    const int n = static_cast<int>(1048576 * opts.scale);
    // Stage 2 reduces the per-block partials with a single block of `block`
    // threads, so there must be at most `block` partials — small work-group
    // overrides (autotuner sweeps, fig09's wg=64 audit) used to leave the
    // excess partials out of the sum and fail verification.
    const int blocks = std::min({256, s.device().sm_count * 6, block});

    std::vector<float> data(n);
    Rng rng(3);
    // Integer-valued floats keep the sum exactly representable, so the
    // verification tolerance only has to absorb summation-order effects.
    for (float& v : data) v = static_cast<float>(rng.next_below(8));
    const auto d_in = s.upload<float>(data);
    const auto d_part = s.alloc(static_cast<std::size_t>(blocks) * 4);
    const auto d_out = s.alloc(4);

    auto k1 = s.compile(kernels::reduce_stage1(block));
    auto k2 = s.compile(kernels::reduce_stage2(block));
    std::vector<sim::KernelArg> a1 = {sim::KernelArg::ptr(d_in),
                                      sim::KernelArg::ptr(d_part),
                                      sim::KernelArg::s32(n)};
    auto lr = s.launch(k1, {blocks, 1, 1}, {block, 1, 1}, a1);
    r->stats = lr.stats.total;
    std::vector<sim::KernelArg> a2 = {sim::KernelArg::ptr(d_part),
                                      sim::KernelArg::ptr(d_out),
                                      sim::KernelArg::s32(blocks)};
    s.launch(k2, {1, 1, 1}, {block, 1, 1}, a2);

    float got = 0;
    s.read(&got, d_out, 4);
    double want = 0;
    for (float v : data) want += v;
    r->correct = std::fabs(got - want) <= 1e-5 * want + 1e-3;
    r->value = static_cast<double>(n) * 4 / s.totals().kernel_s / 1e9;
  }
};

}  // namespace

const Benchmark* make_reduce_benchmark() {
  static const ReduceBenchmark b;
  return &b;
}

}  // namespace gpc::bench
