// Exclusive prefix sum (NVIDIA SDK "Scan", Table II): work-efficient
// Blelloch scan per block, scanned block sums, uniform add.
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

KernelDef scan_block(int block) {
  const int n = 2 * block;  // elements per block
  KernelBuilder kb("scan_block");
  auto in = kb.ptr_param("in", ir::Type::S32);
  auto out = kb.ptr_param("out", ir::Type::S32);
  auto sums = kb.ptr_param("block_sums", ir::Type::S32);
  Val total = kb.s32_param("n");
  auto temp = kb.shared_array("temp", ir::Type::S32, n);

  Val tid = kb.tid_x();
  Val base = kb.ctaid_x() * n;

  // Load two elements per thread, zero-padding the tail.
  for (int half = 0; half < 2; ++half) {
    Val li = tid + half * block;
    Val gi = base + li;
    kb.if_else(
        gi < total, [&] { kb.sts(temp, li, kb.ld(in, gi)); },
        [&] { kb.sts(temp, li, kb.c32(0)); });
  }
  kb.barrier();

  // Up-sweep (reduce) phase.
  Var offset = kb.var_s32("offset");
  Var d = kb.var_s32("d");
  Var ai = kb.var_s32("ai");
  Var bi = kb.var_s32("bi");
  kb.set(offset, kb.c32(1));
  kb.set(d, kb.c32(n / 2));
  kb.while_(Val(d) > 0, [&] {
    kb.if_(tid < Val(d), [&] {
      kb.set(ai, Val(offset) * (2 * tid + 1) - 1);
      kb.set(bi, Val(offset) * (2 * tid + 2) - 1);
      kb.sts(temp, Val(bi), kb.lds(temp, Val(bi)) + kb.lds(temp, Val(ai)));
    });
    kb.barrier();
    kb.set(offset, Val(offset) << 1);
    kb.set(d, Val(d) >> 1);
  });

  // Record the block total and clear the root.
  kb.if_(tid == 0, [&] {
    kb.st(sums, kb.ctaid_x(), kb.lds(temp, kb.c32(n - 1)));
    kb.sts(temp, kb.c32(n - 1), kb.c32(0));
  });
  kb.barrier();

  // Down-sweep phase. The left child's value must be captured in a variable
  // BEFORE the swap stores: AST expressions evaluate at their use site.
  Var t = kb.var_s32("t");
  kb.set(d, kb.c32(1));
  kb.while_(Val(d) < n, [&] {
    kb.set(offset, Val(offset) >> 1);
    kb.if_(tid < Val(d), [&] {
      kb.set(ai, Val(offset) * (2 * tid + 1) - 1);
      kb.set(bi, Val(offset) * (2 * tid + 2) - 1);
      kb.set(t, kb.lds(temp, Val(ai)));
      kb.sts(temp, Val(ai), kb.lds(temp, Val(bi)));
      kb.sts(temp, Val(bi), kb.lds(temp, Val(bi)) + Val(t));
    });
    kb.barrier();
    kb.set(d, Val(d) << 1);
  });
  kb.barrier();

  for (int half = 0; half < 2; ++half) {
    Val li = tid + half * block;
    Val gi = base + li;
    kb.if_(gi < total, [&] { kb.st(out, gi, kb.lds(temp, li)); });
  }
  return kb.finish();
}

KernelDef scan_add_sums(int block) {
  const int n = 2 * block;
  KernelBuilder kb("scan_add_sums");
  auto out = kb.ptr_param("out", ir::Type::S32);
  auto scanned_sums = kb.ptr_param("scanned_sums", ir::Type::S32);
  Val total = kb.s32_param("n");
  Val tid = kb.tid_x();
  Val base = kb.ctaid_x() * n;
  Val add = kb.ld(scanned_sums, kb.ctaid_x());
  for (int half = 0; half < 2; ++half) {
    Val gi = base + tid + half * block;
    kb.if_(gi < total, [&] { kb.st(out, gi, kb.ld(out, gi) + add); });
  }
  return kb.finish();
}

}  // namespace kernels

namespace {

class ScanBenchmark final : public BenchmarkBase {
 public:
  std::string name() const override { return "Scan"; }
  std::string suite() const override { return "NSDK"; }
  std::string dwarf() const override { return "Scan"; }
  std::string description() const override {
    return "Get prefix sum of an array";
  }
  Metric metric() const override { return Metric::MElemsPerSec; }

 protected:
  void run_impl(harness::DeviceSession& s, const Options& opts,
                Result* r) const override {
    const int block = opts.workgroup > 0 ? opts.workgroup : 256;
    const int per_block = 2 * block;
    int n = static_cast<int>(262144 * opts.scale);
    // One level of block-sum scanning: cap the size so the per-block sums
    // fit a single scan group (relevant when tuning tiny work-groups).
    n = std::min(n, per_block * per_block);
    n = std::max(per_block, n / per_block * per_block);
    const int blocks = n / per_block;

    std::vector<std::int32_t> data(n);
    Rng rng(23);
    for (auto& v : data) v = static_cast<std::int32_t>(rng.next_below(16));
    const auto d_in = s.upload<std::int32_t>(data);
    const auto d_out = s.alloc(static_cast<std::size_t>(n) * 4);
    const auto d_sums = s.alloc(static_cast<std::size_t>(per_block) * 4);
    const auto d_sums_scanned = s.alloc(static_cast<std::size_t>(per_block) * 4);
    const auto d_dummy = s.alloc(16);

    auto k_scan = s.compile(kernels::scan_block(block));
    auto k_add = s.compile(kernels::scan_add_sums(block));

    std::vector<sim::KernelArg> a1 = {
        sim::KernelArg::ptr(d_in), sim::KernelArg::ptr(d_out),
        sim::KernelArg::ptr(d_sums), sim::KernelArg::s32(n)};
    auto lr = s.launch(k_scan, {blocks, 1, 1}, {block, 1, 1}, a1);
    r->stats = lr.stats.total;

    // Scan the per-block sums with one more block, then add them back.
    std::vector<sim::KernelArg> a2 = {
        sim::KernelArg::ptr(d_sums), sim::KernelArg::ptr(d_sums_scanned),
        sim::KernelArg::ptr(d_dummy), sim::KernelArg::s32(blocks)};
    s.launch(k_scan, {1, 1, 1}, {block, 1, 1}, a2);
    std::vector<sim::KernelArg> a3 = {sim::KernelArg::ptr(d_out),
                                      sim::KernelArg::ptr(d_sums_scanned),
                                      sim::KernelArg::s32(n)};
    s.launch(k_add, {blocks, 1, 1}, {block, 1, 1}, a3);

    std::vector<std::int32_t> got(n);
    s.download<std::int32_t>(d_out, got);
    std::int64_t acc = 0;
    r->correct = true;
    for (int i = 0; i < n; ++i) {
      if (got[i] != acc) {
        r->correct = false;
        break;
      }
      acc += data[i];
    }
    r->value = static_cast<double>(n) / s.totals().kernel_s / 1e6;
  }
};

}  // namespace

const Benchmark* make_scan_benchmark() {
  static const ScanBenchmark b;
  return &b;
}

}  // namespace gpc::bench
