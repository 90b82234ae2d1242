// Radix sort of key/value pairs (NVIDIA SDK "RdxS", Table II), following
// the four-step scheme of Zagha & Blelloch / Satish et al. (paper refs
// [28][29]): per-block ranking + local sort, per-block digit histograms,
// a global scan, and a scatter pass. 2-bit digits, four passes.
//
// The block kernel is deliberately *warp-synchronous with a hard-coded warp
// size of 32*, like the SDK original. That assumption is the paper's §V
// finding — RdxS completes but produces wrong results ("FL" in Table VI) on
// devices whose execution width is not 32:
//   * On a 64-wide wavefront (HD5870) the per-warp "leader" accumulation
//     into the block digit counters runs two assumed-warps in lockstep;
//     their read-modify-writes collide and half the counts vanish — the
//     paper's "only one half warp of threads are able to map keys into
//     buckets".
//   * On the serialising CPU runtime (Intel920) the barrier-free warp scan
//     reads lanes that have not executed yet, so ranks and warp totals are
//     stale.
// On 32-wide NVIDIA hardware both idioms are correct.
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
constexpr int kWarp = 32;  // hard-coded in the source, per the SDK
}

namespace kernels {

KernelDef radix_block_sort(int block, int radix_bits) {
  const int digits = 1 << radix_bits;
  const int warps = block / kWarp;
  KernelBuilder kb("radix_block_sort");
  auto keys_in = kb.ptr_param("keys_in", ir::Type::S32);
  auto vals_in = kb.ptr_param("vals_in", ir::Type::S32);
  auto keys_out = kb.ptr_param("keys_out", ir::Type::S32);
  auto vals_out = kb.ptr_param("vals_out", ir::Type::S32);
  auto block_hist = kb.ptr_param("block_hist", ir::Type::S32);
  auto block_digit_start = kb.ptr_param("block_digit_start", ir::Type::S32);
  Val shift = kb.s32_param("shift");
  Val nblocks = kb.s32_param("nblocks");

  auto s_scan = kb.shared_array("s_scan", ir::Type::S32, block);
  auto s_keys = kb.shared_array("s_keys", ir::Type::S32, block);
  auto s_vals = kb.shared_array("s_vals", ir::Type::S32, block);
  auto s_keys2 = kb.shared_array("s_keys2", ir::Type::S32, block);
  auto s_vals2 = kb.shared_array("s_vals2", ir::Type::S32, block);
  auto warp_total = kb.shared_array("warp_total", ir::Type::S32,
                                    warps * digits);
  auto warp_base = kb.shared_array("warp_base", ir::Type::S32,
                                   warps * digits);
  auto digit_count = kb.shared_array("digit_count", ir::Type::S32, digits);
  auto digit_start = kb.shared_array("digit_start", ir::Type::S32, digits);

  Val tid = kb.tid_x();
  Val lane = tid & (kWarp - 1);
  Val wid = tid >> 5;
  Val base = kb.ctaid_x() * block;

  Var key = kb.var_s32("key");
  Var val = kb.var_s32("val");
  kb.set(key, kb.ld(keys_in, base + tid));
  kb.set(val, kb.ld(vals_in, base + tid));
  Val d = (Val(key) >> shift) & (digits - 1);

  kb.if_(tid < warps * digits, [&] { kb.sts(warp_total, tid, kb.c32(0)); });
  kb.if_(tid < digits, [&] { kb.sts(digit_count, tid, kb.c32(0)); });
  kb.barrier();

  // Step 1: rank within the assumed 32-wide warp, one boolean warp scan per
  // digit value. No barriers — warp-synchronous by design.
  Var rank = kb.var_s32("rank");
  kb.set(rank, kb.c32(0));
  Var b = kb.var_s32("b");
  kb.for_(b, 0, kb.c32(digits), 1, Unroll::both(-1), [&] {
    kb.sts(s_scan, tid, kb.select(d == Val(b), kb.c32(1), kb.c32(0)));
    for (int off = 1; off < kWarp; off <<= 1) {
      kb.if_(lane >= off, [&] {
        kb.sts(s_scan, tid, kb.lds(s_scan, tid) + kb.lds(s_scan, tid - off));
      });
    }
    kb.if_(d == Val(b), [&] { kb.set(rank, kb.lds(s_scan, tid) - 1); });
    // The last lane of each assumed warp publishes the warp's digit count.
    kb.if_(lane == kWarp - 1, [&] {
      kb.sts(warp_total, wid * digits + Val(b), kb.lds(s_scan, tid));
    });
    // Warp leaders fold their total into the block counter — still without
    // a barrier. On a 64-wide wavefront tid and tid+32 are BOTH lane-0
    // leaders executing this read-modify-write in lockstep: one update is
    // lost per wavefront (the §V failure).
    kb.if_(lane == 0, [&] {
      kb.sts(digit_count, Val(b),
             kb.lds(digit_count, Val(b)) +
                 kb.lds(warp_total, wid * digits + Val(b)));
    });
  });
  kb.barrier();

  // Step 2: block-level offsets from the (assumed correct) counters.
  Var run = kb.var_s32("run");
  Var w = kb.var_s32("w");
  Var t = kb.var_s32("t");
  kb.if_(tid < digits, [&] {
    kb.set(run, kb.c32(0));
    kb.for_(w, 0, kb.c32(warps), 1, Unroll::none(), [&] {
      kb.set(t, kb.lds(warp_total, Val(w) * digits + tid));
      kb.sts(warp_base, Val(w) * digits + tid, run);
      kb.set(run, Val(run) + Val(t));
    });
  });
  kb.if_(tid == 0, [&] {
    kb.set(run, kb.c32(0));
    kb.for_(b, 0, kb.c32(digits), 1, Unroll::both(-1), [&] {
      kb.sts(digit_start, Val(b), run);
      kb.set(run, Val(run) + kb.lds(digit_count, Val(b)));
    });
  });
  kb.barrier();

  // Step 3: local scatter (stable). The position mask keeps the staging
  // write inside the tile even when broken counters produce bad offsets —
  // matching hardware behaviour where the sort completes with wrong data
  // rather than faulting.
  Var pos = kb.var_s32("pos");
  kb.set(pos, (kb.lds(digit_start, d) + kb.lds(warp_base, wid * digits + d) +
               Val(rank)) &
                  (block - 1));
  kb.sts(s_keys, Val(pos), key);
  kb.sts(s_vals, Val(pos), val);
  kb.barrier();
  kb.sts(s_keys2, tid, kb.lds(s_keys, tid));
  kb.sts(s_vals2, tid, kb.lds(s_vals, tid));
  kb.barrier();
  kb.st(keys_out, base + tid, kb.lds(s_keys2, tid));
  kb.st(vals_out, base + tid, kb.lds(s_vals2, tid));

  kb.if_(tid < digits, [&] {
    kb.st(block_hist, tid * nblocks + kb.ctaid_x(),
          kb.lds(digit_count, tid));
    kb.st(block_digit_start, kb.ctaid_x() * digits + tid,
          kb.lds(digit_start, tid));
  });
  return kb.finish();
}

KernelDef radix_scatter(int block, int radix_bits) {
  const int digits = 1 << radix_bits;
  KernelBuilder kb("radix_scatter");
  auto keys_in = kb.ptr_param("keys_in", ir::Type::S32);
  auto vals_in = kb.ptr_param("vals_in", ir::Type::S32);
  auto keys_out = kb.ptr_param("keys_out", ir::Type::S32);
  auto vals_out = kb.ptr_param("vals_out", ir::Type::S32);
  auto scanned_hist = kb.ptr_param("scanned_hist", ir::Type::S32);
  auto block_digit_start = kb.ptr_param("block_digit_start", ir::Type::S32);
  Val shift = kb.s32_param("shift");
  Val nblocks = kb.s32_param("nblocks");
  Val n = kb.s32_param("n");

  Val tid = kb.tid_x();
  Val bid = kb.ctaid_x();
  Val base = bid * block;
  Val key = kb.ld(keys_in, base + tid);
  Val val = kb.ld(vals_in, base + tid);
  Val d = (key >> shift) & (digits - 1);
  Val local_rank = tid - kb.ld(block_digit_start, bid * digits + d);
  // Bounds mask — see the block kernel's comment.
  Var pos = kb.var_s32("pos");
  kb.set(pos,
         (kb.ld(scanned_hist, d * nblocks + bid) + local_rank) & (n - 1));
  kb.st(keys_out, Val(pos), key);
  kb.st(vals_out, Val(pos), val);
  return kb.finish();
}

}  // namespace kernels

namespace {

class RadixSortBenchmark final : public BenchmarkBase {
 public:
  std::string name() const override { return "RdxS"; }
  std::string suite() const override { return "NSDK"; }
  std::string dwarf() const override { return "Sort"; }
  std::string description() const override { return "Radix sort"; }
  Metric metric() const override { return Metric::MElemsPerSec; }

 protected:
  void run_impl(harness::DeviceSession& s, const Options& opts,
                Result* r) const override {
    const int block = 256;
    const int radix_bits = 2;
    const int digits = 1 << radix_bits;
    const int key_bits = 8;
    int n = static_cast<int>(16384 * opts.scale);
    int pow2 = block;
    while (pow2 * 2 <= n) pow2 *= 2;
    n = pow2;
    const int nblocks = n / block;

    std::vector<std::int32_t> keys(n), vals(n);
    Rng rng(53);
    for (int i = 0; i < n; ++i) {
      keys[i] = static_cast<std::int32_t>(rng.next_below(1 << key_bits));
      vals[i] = i;
    }
    const auto d_keys_a = s.upload<std::int32_t>(keys);
    const auto d_vals_a = s.upload<std::int32_t>(vals);
    const auto d_keys_b = s.alloc(static_cast<std::size_t>(n) * 4);
    const auto d_vals_b = s.alloc(static_cast<std::size_t>(n) * 4);
    const auto d_hist = s.alloc(static_cast<std::size_t>(digits) * nblocks * 4);
    const auto d_hist_scanned =
        s.alloc(static_cast<std::size_t>(digits) * nblocks * 4);
    const auto d_block_start =
        s.alloc(static_cast<std::size_t>(nblocks) * digits * 4);
    const auto d_scan_sums = s.alloc(4096);
    const auto d_dummy = s.alloc(16);

    auto k_block = s.compile(kernels::radix_block_sort(block, radix_bits));
    auto k_scatter = s.compile(kernels::radix_scatter(block, radix_bits));
    auto k_scan = s.compile(kernels::scan_block(block));
    const int hist_n = digits * nblocks;
    GPC_REQUIRE(hist_n <= 2 * block, "histogram must fit one scan block");

    std::uint64_t ka = d_keys_a, va = d_vals_a, kbuf = d_keys_b,
                  vb = d_vals_b;
    sim::BlockStats agg;
    for (int pass = 0; pass < key_bits / radix_bits; ++pass) {
      const int shift = pass * radix_bits;
      std::vector<sim::KernelArg> a1 = {
          sim::KernelArg::ptr(ka), sim::KernelArg::ptr(va),
          sim::KernelArg::ptr(kbuf), sim::KernelArg::ptr(vb),
          sim::KernelArg::ptr(d_hist), sim::KernelArg::ptr(d_block_start),
          sim::KernelArg::s32(shift), sim::KernelArg::s32(nblocks)};
      auto lr = s.launch(k_block, {nblocks, 1, 1}, {block, 1, 1}, a1);
      agg.merge(lr.stats.total);

      std::vector<sim::KernelArg> a2 = {
          sim::KernelArg::ptr(d_hist), sim::KernelArg::ptr(d_hist_scanned),
          sim::KernelArg::ptr(d_scan_sums), sim::KernelArg::s32(hist_n)};
      auto lr2 = s.launch(k_scan, {1, 1, 1}, {block, 1, 1}, a2);
      agg.merge(lr2.stats.total);

      std::vector<sim::KernelArg> a3 = {
          sim::KernelArg::ptr(kbuf), sim::KernelArg::ptr(vb),
          sim::KernelArg::ptr(ka), sim::KernelArg::ptr(va),
          sim::KernelArg::ptr(d_hist_scanned),
          sim::KernelArg::ptr(d_block_start), sim::KernelArg::s32(shift),
          sim::KernelArg::s32(nblocks), sim::KernelArg::s32(n)};
      auto lr3 = s.launch(k_scatter, {nblocks, 1, 1}, {block, 1, 1}, a3);
      agg.merge(lr3.stats.total);
    }
    r->stats = agg;

    std::vector<std::int32_t> got_keys(n), got_vals(n);
    s.download<std::int32_t>(ka, got_keys);
    s.download<std::int32_t>(va, got_vals);
    r->correct = true;
    for (int i = 0; i + 1 < n && r->correct; ++i) {
      if (got_keys[i] > got_keys[i + 1]) r->correct = false;
    }
    std::vector<bool> seen(n, false);
    for (int i = 0; i < n && r->correct; ++i) {
      const std::int32_t v = got_vals[i];
      if (v < 0 || v >= n || seen[v] || keys[v] != got_keys[i]) {
        r->correct = false;
      } else {
        seen[v] = true;
      }
    }
    r->value = static_cast<double>(n) / s.totals().kernel_s / 1e6;
  }
};

}  // namespace

const Benchmark* make_radixsort_benchmark() {
  static const RadixSortBenchmark b;
  return &b;
}

}  // namespace gpc::bench
