// Sorting networks (NVIDIA SDK "STNW", Table II): bitonic sort of key/value
// pairs. Large (k, j) stages run as global compare-exchange kernels; once
// j fits inside a block the remaining stages of that k run in one
// shared-memory kernel. The shared kernel stages keys AND values twice
// (double-buffered), which is what exhausts the Cell/BE local store
// (Table VI "ABT").
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

KernelDef sortnw_global_step() {
  KernelBuilder kb("bitonic_global_step");
  auto keys = kb.ptr_param("keys", ir::Type::S32);
  auto vals = kb.ptr_param("vals", ir::Type::S32);
  Val j = kb.s32_param("j");
  Val k = kb.s32_param("k");
  Val gid = kb.global_id_x();

  Val ixj = gid ^ j;
  Var ka = kb.var_s32("ka");
  Var kc = kb.var_s32("kc");
  Var va = kb.var_s32("va");
  Var vc = kb.var_s32("vc");
  kb.if_(ixj > gid, [&] {
    kb.set(ka, kb.ld(keys, gid));
    kb.set(kc, kb.ld(keys, ixj));
    Val ascending = (gid & k) == 0;
    Val should_swap =
        kb.select(ascending, Val(kc) < Val(ka), Val(ka) < Val(kc));
    kb.if_(should_swap, [&] {
      kb.set(va, kb.ld(vals, gid));
      kb.set(vc, kb.ld(vals, ixj));
      kb.st(keys, gid, kc);
      kb.st(keys, ixj, ka);
      kb.st(vals, gid, vc);
      kb.st(vals, ixj, va);
    });
  });
  return kb.finish();
}

KernelDef sortnw_shared(int block) {
  const int n = 2 * block;  // elements staged per block
  KernelBuilder kb("bitonic_shared_tail");
  auto keys = kb.ptr_param("keys", ir::Type::S32);
  auto vals = kb.ptr_param("vals", ir::Type::S32);
  Val j0 = kb.s32_param("j0");  // first j of the tail (j0 < n)
  Val k = kb.s32_param("k");

  auto skey = kb.shared_array("skey", ir::Type::S32, n);
  auto sval = kb.shared_array("sval", ir::Type::S32, n);
  // Double buffer, as the SDK kernel stages ping-pong style.
  auto skey2 = kb.shared_array("skey2", ir::Type::S32, n);
  auto sval2 = kb.shared_array("sval2", ir::Type::S32, n);

  Val tid = kb.tid_x();
  Val base = kb.ctaid_x() * n;
  for (int half = 0; half < 2; ++half) {
    Val li = tid + half * block;
    kb.sts(skey, li, kb.ld(keys, base + li));
    kb.sts(sval, li, kb.ld(vals, base + li));
  }
  kb.barrier();

  Var j = kb.var_s32("j");
  Var ka = kb.var_s32("ka");
  Var kc = kb.var_s32("kc");
  Var va = kb.var_s32("va");
  Var vc = kb.var_s32("vc");
  Var pi = kb.var_s32("pi");
  Var pp = kb.var_s32("pp");
  kb.set(j, j0);
  kb.while_(Val(j) > 0, [&] {
    // Each thread handles one compare-exchange pair per sub-stage.
    kb.set(pi, 2 * tid - (tid & (Val(j) - 1)));
    kb.set(pp, Val(pi) + Val(j));
    Val gi = base + Val(pi);  // global index decides the sort direction
    kb.set(ka, kb.lds(skey, Val(pi)));
    kb.set(kc, kb.lds(skey, Val(pp)));
    Val ascending = (gi & k) == 0;
    Val should_swap =
        kb.select(ascending, Val(kc) < Val(ka), Val(ka) < Val(kc));
    kb.if_(should_swap, [&] {
      kb.set(va, kb.lds(sval, Val(pi)));
      kb.set(vc, kb.lds(sval, Val(pp)));
      kb.sts(skey, Val(pi), kc);
      kb.sts(skey, Val(pp), ka);
      kb.sts(sval, Val(pi), vc);
      kb.sts(sval, Val(pp), va);
    });
    kb.barrier();
    kb.set(j, Val(j) >> 1);
  });

  // Stage through the second buffer before the coalesced write-back.
  for (int half = 0; half < 2; ++half) {
    Val li = tid + half * block;
    kb.sts(skey2, li, kb.lds(skey, li));
    kb.sts(sval2, li, kb.lds(sval, li));
  }
  kb.barrier();
  for (int half = 0; half < 2; ++half) {
    Val li = tid + half * block;
    kb.st(keys, base + li, kb.lds(skey2, li));
    kb.st(vals, base + li, kb.lds(sval2, li));
  }
  return kb.finish();
}

}  // namespace kernels

namespace {

class SortNwBenchmark final : public BenchmarkBase {
 public:
  std::string name() const override { return "STNW"; }
  std::string suite() const override { return "NSDK"; }
  std::string dwarf() const override { return "Sort"; }
  std::string description() const override {
    return "Use comparator networks to sort an array";
  }
  Metric metric() const override { return Metric::MElemsPerSec; }

 protected:
  void run_impl(harness::DeviceSession& s, const Options& opts,
                Result* r) const override {
    const int block = opts.workgroup > 0 ? opts.workgroup : 128;
    int n = static_cast<int>(16384 * opts.scale);
    // Round to a power of two.
    int pow2 = 1;
    while (pow2 * 2 <= n) pow2 *= 2;
    n = pow2;
    const int per_block = 2 * block;

    std::vector<std::int32_t> keys(n), vals(n);
    Rng rng(29);
    for (int i = 0; i < n; ++i) {
      keys[i] = static_cast<std::int32_t>(rng.next_below(1 << 30));
      vals[i] = i;
    }
    const auto d_keys = s.upload<std::int32_t>(keys);
    const auto d_vals = s.upload<std::int32_t>(vals);

    auto k_global = s.compile(kernels::sortnw_global_step());
    auto k_shared = s.compile(kernels::sortnw_shared(block));

    sim::BlockStats agg;
    for (int k = 2; k <= n; k <<= 1) {
      int j = k >> 1;
      for (; j >= per_block; j >>= 1) {
        std::vector<sim::KernelArg> args = {
            sim::KernelArg::ptr(d_keys), sim::KernelArg::ptr(d_vals),
            sim::KernelArg::s32(j), sim::KernelArg::s32(k)};
        auto lr = s.launch(k_global, {n / block, 1, 1}, {block, 1, 1}, args);
        agg.merge(lr.stats.total);
      }
      // Remaining sub-stages fit in one shared-memory kernel.
      std::vector<sim::KernelArg> args = {
          sim::KernelArg::ptr(d_keys), sim::KernelArg::ptr(d_vals),
          sim::KernelArg::s32(j), sim::KernelArg::s32(k)};
      auto lr =
          s.launch(k_shared, {n / per_block, 1, 1}, {block, 1, 1}, args);
      agg.merge(lr.stats.total);
    }
    r->stats = agg;

    std::vector<std::int32_t> got_keys(n), got_vals(n);
    s.download<std::int32_t>(d_keys, got_keys);
    s.download<std::int32_t>(d_vals, got_vals);
    r->correct = true;
    for (int i = 0; i + 1 < n && r->correct; ++i) {
      if (got_keys[i] > got_keys[i + 1]) r->correct = false;
    }
    // Values must still pair with their keys.
    for (int i = 0; i < n && r->correct; ++i) {
      if (got_vals[i] < 0 || got_vals[i] >= n ||
          keys[got_vals[i]] != got_keys[i]) {
        r->correct = false;
      }
    }
    r->value = static_cast<double>(n) / s.totals().kernel_s / 1e6;
  }
};

}  // namespace

const Benchmark* make_sortnw_benchmark() {
  static const SortNwBenchmark b;
  return &b;
}

}  // namespace gpc::bench
