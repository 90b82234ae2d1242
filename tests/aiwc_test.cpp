// gpc::aiwc tests (Issue 9): the mirrored kind-name table is locked against
// sim/decode.h, the exact-LRU reuse-distance stack is checked against
// hand-computed access strings (including Fenwick-tree growth past its
// initial capacity), stride classification follows the documented lane-delta
// priority, finalize() keeps the exported metric order and entropy bounds,
// and — the determinism contract — the merged per-launch feature digest is
// bit-identical across the production engine and the min-PC oracle, both
// compiler front-ends, and
// every execution shape that slices a launch (resil split launches, virt
// force-sliced tenants, sanitizer on). Disarmed launches carry no features,
// produce bit-identical results, and keep the hook sites cheap.
// Labelled "aiwc" in ctest; tools/run_tsan.sh runs it under tsan.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "aiwc/aiwc.h"
#include "arch/device_spec.h"
#include "bench_kernels/registry.h"
#include "compiler/pipeline.h"
#include "harness/benchmark.h"
#include "harness/session.h"
#include "kernel/builder.h"
#include "prof/prof.h"
#include "resil/fault.h"
#include "resil/policy.h"
#include "sim/decode.h"
#include "sim/launch.h"
#include "virt/virt.h"

// Timing assertions are meaningless under the sanitizers' instrumentation.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define GPC_AIWC_TEST_SAN 1
#endif
#if !defined(GPC_AIWC_TEST_SAN) && defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define GPC_AIWC_TEST_SAN 1
#endif
#endif
#ifndef GPC_AIWC_TEST_SAN
#define GPC_AIWC_TEST_SAN 0
#endif

namespace gpc {
namespace {

using arch::Toolchain;
using kernel::KernelBuilder;
using kernel::KernelDef;
using kernel::Val;
using kernel::Var;

// One simulator thread so block merge order (and the floating-point `flops`
// sum) is identical across runs — same reasoning as dispatch_test.cpp. The
// aiwc digest itself is order-independent by construction; the exactness
// assertions on outputs/stats are what need this.
const bool g_single_sim_thread = [] {
  ::setenv("GPC_SIM_THREADS", "1", /*overwrite=*/1);
  return true;
}();

/// RAII engine selector (dispatch_test.cpp): `oracle` disables the
/// convergent fast path so every warp runs the min-PC reference scheduler;
/// otherwise the production engine runs.
class EngineGuard {
 public:
  explicit EngineGuard(bool oracle)
      : prev_fast_(sim::convergent_fast_path_enabled()) {
    sim::set_convergent_fast_path(!oracle);
  }
  ~EngineGuard() { sim::set_convergent_fast_path(prev_fast_); }

 private:
  bool prev_fast_;
};

constexpr bool kOracle = true;
constexpr bool kProduction = false;

/// RAII profiler mode switch: snapshots stay scoped to the test and the
/// process-exit report is disarmed again on the way out.
class ProfGuard {
 public:
  explicit ProfGuard(unsigned modes) : prev_(prof::recorder().modes()) {
    prof::recorder().set_modes(modes);
    prof::recorder().clear();
  }
  ~ProfGuard() {
    prof::recorder().clear();
    prof::recorder().set_modes(prev_);
  }

 private:
  unsigned prev_;
};

/// Every test starts and ends with the aiwc/resil/sanitize env knobs clean.
class AiwcTest : public ::testing::Test {
 protected:
  void SetUp() override { clean(); }
  void TearDown() override { clean(); }

  static void clean() {
    resil::plan().reset();
    resil::reset_counters();
    resil::set_policy_override(std::nullopt);
    ::unsetenv("GPC_AIWC");
    ::unsetenv("GPC_SIM_SANITIZE");
  }

  /// One injected OOR at the enqueue site, no retries: the degrade ladder
  /// goes straight to the split-launch path (resil_test.cpp idiom).
  static void arm_split() {
    resil::SiteSpec s;
    s.enabled = true;
    s.probability = 1.0;
    s.seed = 41;
    s.after = 0;
    s.count = 1;
    resil::plan().set(resil::Site::Enqueue, s);
  }
};

/// Global loads/stores, shared staging behind a barrier, a divergent guard
/// and a tid-dependent loop: every aiwc hook (issue / branch / global_access
/// / shared_access) fires, with real divergence in the occupancy histogram.
KernelDef probe_kernel() {
  KernelBuilder kb("aiwc_probe");
  auto out = kb.ptr_param("out", ir::Type::S32);
  auto in = kb.ptr_param("in", ir::Type::S32);
  auto s = kb.shared_array("s", ir::Type::S32, 64);
  Val t = kb.tid_x();
  kb.sts(s, t, kb.ld(in, kb.global_id_x()));
  kb.barrier();
  Var acc = kb.var_s32("acc");
  kb.set(acc, kb.lds(s, t));
  kb.if_((t & 1) == 1, [&] { kb.set(acc, Val(acc) + 100); });
  Var i = kb.var_s32("i");
  kb.set(i, kb.c32(0));
  kb.while_(Val(i) < (t & 7), [&] {
    kb.set(acc, Val(acc) * 3 + Val(i));
    kb.set(i, Val(i) + 1);
  });
  kb.st(out, kb.global_id_x(), acc);
  return kb.finish();
}

constexpr int kProbeGrid = 4;
constexpr int kProbeBlock = 64;

struct ProbeRun {
  std::vector<std::int32_t> out;
  sim::BlockStats stats;
  std::shared_ptr<aiwc::Features> feats;
};

ProbeRun run_probe(harness::DeviceSession& s) {
  const int n = kProbeGrid * kProbeBlock;
  const auto ck = s.compile(probe_kernel());
  std::vector<std::int32_t> in(n);
  for (int i = 0; i < n; ++i) in[i] = 3 * i + 1;
  const auto d_in = s.upload(std::span<const std::int32_t>(in));
  const auto d_out = s.alloc(static_cast<std::size_t>(n) * 4);
  std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(d_out),
                                      sim::KernelArg::ptr(d_in)};
  const auto r =
      s.launch(ck, {kProbeGrid, 1, 1}, {kProbeBlock, 1, 1}, args);
  ProbeRun pr;
  pr.out.resize(n);
  s.download(d_out, std::span<std::int32_t>(pr.out));
  pr.stats = r.stats.total;
  pr.feats = r.aiwc;
  return pr;
}

// ---------------------------------------------------------------------------
// Mirrored tables and the env knob

TEST(AiwcTables, KindTableMirrorsSimDecode) {
  // aiwc never includes sim headers (layering), so its private copy of the
  // XKind name table and the Bar index must track sim/decode.h exactly.
  for (int k = 0; k < sim::kNumXKinds; ++k) {
    EXPECT_STREQ(aiwc::kind_name(static_cast<std::uint8_t>(k)),
                 sim::to_string(static_cast<sim::XKind>(k)))
        << "kind " << k;
  }
  EXPECT_EQ(aiwc::kKindBar, static_cast<std::uint8_t>(sim::XKind::Bar));
  EXPECT_STREQ(aiwc::kind_name(sim::kNumXKinds), "?");
  EXPECT_STREQ(aiwc::kind_name(255), "?");
}

TEST(AiwcEnv, EnabledFromEnvIsRereadPerCall) {
  ::unsetenv("GPC_AIWC");
  EXPECT_FALSE(aiwc::enabled_from_env());
  ::setenv("GPC_AIWC", "1", 1);
  EXPECT_TRUE(aiwc::enabled_from_env());
  ::setenv("GPC_AIWC", "0", 1);
  EXPECT_FALSE(aiwc::enabled_from_env());
  ::setenv("GPC_AIWC", "", 1);  // empty means unset
  EXPECT_FALSE(aiwc::enabled_from_env());
  ::setenv("GPC_AIWC", "features", 1);  // a typo fails loudly
  EXPECT_THROW((void)aiwc::enabled_from_env(), InvalidArgument);
  ::unsetenv("GPC_AIWC");
}

// ---------------------------------------------------------------------------
// Reuse-distance stack and stride classification, against hand-computed
// oracles (driving BlockAiwc directly, no simulator involved)

TEST(AiwcUnit, ReuseDistanceMatchesHandComputedLruStack) {
  aiwc::Collector c(std::vector<aiwc::SiteInfo>(1), 1, 32, 32, 1, 0);
  aiwc::BlockAiwc b(c);
  // Lines touched in order 0, 64, 128, 0, 0, 64 (single-lane accesses):
  // three cold misses, then line 0 at stack distance 3 (bucket 1), line 0
  // again at distance 1 (bucket 0), line 64 at distance 3 (bucket 1).
  for (std::uint64_t a : {0ull, 64ull, 128ull, 0ull, 0ull, 64ull}) {
    b.global_access(&a, 1, 4);
  }
  b.flush();
  const auto f = c.take();
  ASSERT_TRUE(f);
  EXPECT_EQ(f->reuse_cold, 3u);
  EXPECT_EQ(f->reuse_hist[0], 1u);
  EXPECT_EQ(f->reuse_hist[1], 2u);
  for (int i = 2; i < aiwc::kReuseBuckets; ++i) {
    EXPECT_EQ(f->reuse_hist[i], 0u) << "bucket " << i;
  }
  EXPECT_EQ(f->global_accesses, 6u);
  EXPECT_EQ(f->global_instrs, 6u);
  // Word-granular footprint (addr >> 2): 0 touched three times, 16 twice,
  // 32 once.
  EXPECT_EQ(f->global_words.size(), 3u);
  EXPECT_EQ(f->global_words.at(0), 3u);
  EXPECT_EQ(f->global_words.at(16), 2u);
  EXPECT_EQ(f->global_words.at(32), 1u);
}

TEST(AiwcUnit, ReuseStackGrowsPastInitialFenwickCapacity) {
  aiwc::Collector c(std::vector<aiwc::SiteInfo>(1), 1, 32, 32, 1, 0);
  aiwc::BlockAiwc b(c);
  // 2000 distinct lines overflow the 1024-slot initial time axis; the
  // re-access of line 0 then has exact stack distance 2000 (bucket
  // floor(log2 2000) = 10). A capacity bug would mis-count the prefix.
  constexpr std::uint64_t kLines = 2000;
  for (std::uint64_t i = 0; i < kLines; ++i) {
    const std::uint64_t a = i * 64;
    b.global_access(&a, 1, 4);
  }
  const std::uint64_t first = 0;
  b.global_access(&first, 1, 4);
  b.flush();
  const auto f = c.take();
  ASSERT_TRUE(f);
  EXPECT_EQ(f->reuse_cold, kLines);
  std::uint64_t warm = 0;
  for (const auto v : f->reuse_hist) warm += v;
  EXPECT_EQ(warm, 1u);
  EXPECT_EQ(f->reuse_hist[10], 1u);
}

TEST(AiwcUnit, StrideClassesFollowLaneDeltaPriority) {
  aiwc::Collector c(std::vector<aiwc::SiteInfo>(1), 1, 32, 32, 1, 0);
  aiwc::BlockAiwc b(c);
  const std::uint64_t broadcast[4] = {256, 256, 256, 256};
  const std::uint64_t unit[4] = {0, 4, 8, 12};
  const std::uint64_t single = 4096;  // single-lane counts as unit
  const std::uint64_t strided[4] = {0, 128, 256, 384};
  const std::uint64_t gather[4] = {0, 4, 64, 8};
  b.global_access(broadcast, 4, 4);
  b.global_access(unit, 4, 4);
  b.global_access(&single, 1, 4);
  b.global_access(strided, 4, 4);
  b.global_access(gather, 4, 4);
  b.flush();
  const auto f = c.take();
  ASSERT_TRUE(f);
  EXPECT_EQ(f->stride_class[aiwc::kBroadcast], 1u);
  EXPECT_EQ(f->stride_class[aiwc::kUnitStride], 2u);
  EXPECT_EQ(f->stride_class[aiwc::kStrided], 1u);
  EXPECT_EQ(f->stride_class[aiwc::kGather], 1u);
  EXPECT_EQ(f->global_instrs, 5u);
  EXPECT_EQ(f->global_accesses, 17u);
}

TEST(AiwcUnit, SharedAccessCountsWordsWithoutTouchingReuseStack) {
  aiwc::Collector c(std::vector<aiwc::SiteInfo>(1), 1, 32, 32, 1, 0);
  aiwc::BlockAiwc b(c);
  const std::uint64_t addrs[3] = {0, 4, 4};
  b.shared_access(addrs, 3);
  b.flush();
  const auto f = c.take();
  ASSERT_TRUE(f);
  EXPECT_EQ(f->shared_accesses, 3u);
  EXPECT_EQ(f->shared_words.size(), 2u);
  EXPECT_EQ(f->shared_words.at(0), 1u);
  EXPECT_EQ(f->shared_words.at(1), 2u);
  // Shared traffic stays out of the global-side histograms.
  EXPECT_EQ(f->global_accesses, 0u);
  EXPECT_EQ(f->global_instrs, 0u);
  EXPECT_EQ(f->reuse_cold, 0u);
}

// ---------------------------------------------------------------------------
// finalize(): exported metric order, bounds, and the sum invariants the
// aiwc_trace_schema ctest re-checks on the JSONL side

TEST_F(AiwcTest, FinalizeKeepsMetricOrderBoundsAndSumInvariants) {
  ::setenv("GPC_AIWC", "1", 1);
  harness::DeviceSession s(arch::gtx480(), Toolchain::Cuda);
  const auto pr = run_probe(s);
  ASSERT_TRUE(pr.feats);
  const aiwc::Features& f = *pr.feats;

  // The metric order IS the exported schema (DESIGN.md §16);
  // tools/validate_trace.py hard-codes the same list.
  static const char* const kOrder[] = {
      "opcode_unique",       "opcode_entropy",
      "flop_issue_fraction", "fused_idiom_density",
      "branch_entropy",      "branch_divergence_rate",
      "simt_efficiency",     "workgroup_utilization",
      "barriers_per_warp",   "global_unique_words",
      "shared_unique_words", "mem_entropy_l0",
      "mem_entropy_l1",      "mem_entropy_l2",
      "mem_entropy_l3",      "mem_entropy_l4",
      "mem_entropy_l5",      "mem_entropy_l6",
      "mem_entropy_l7",      "mem_entropy_l8",
      "mem_entropy_l9",      "reuse_cold_fraction",
      "reuse_median_log2",   "stride_broadcast_fraction",
      "stride_unit_fraction", "stride_strided_fraction",
      "stride_gather_fraction"};
  const auto metrics = aiwc::finalize(f);
  ASSERT_EQ(metrics.size(), std::size(kOrder));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    EXPECT_EQ(metrics[i].name, kOrder[i]) << "metric " << i;
  }
  const auto get = [&](const std::string& name) {
    for (const auto& m : metrics) {
      if (m.name == name) return m.value;
    }
    ADD_FAILURE() << "missing metric " << name;
    return 0.0;
  };

  // Raw-data invariants: issues == occupancy mass == the sim's own
  // instruction-mix total; lanes bounded by full warps; every global access
  // lands in exactly one reuse bucket (or cold); every warp-level global
  // instruction gets exactly one stride class.
  std::uint64_t occ = 0;
  for (const auto v : f.occupancy_hist) occ += v;
  EXPECT_EQ(occ, f.total_issues());
  std::uint64_t xkind_total = 0;
  for (int k = 0; k < sim::kNumXKinds; ++k) {
    xkind_total += pr.stats.xkind_issues[k];
  }
  EXPECT_EQ(f.total_issues(), xkind_total);
  EXPECT_LE(f.total_lanes(), f.total_issues() * 32);
  std::uint64_t warm = 0;
  for (const auto v : f.reuse_hist) warm += v;
  EXPECT_EQ(warm + f.reuse_cold, f.global_accesses);
  std::uint64_t stride_total = 0;
  for (const auto v : f.stride_class) stride_total += v;
  EXPECT_EQ(stride_total, f.global_instrs);
  EXPECT_GT(f.global_accesses, 0u);
  EXPECT_GT(f.shared_accesses, 0u);

  // Entropy bounds and the decimation curve (dropping address bits can only
  // lose information, so the curve is non-increasing in the level).
  EXPECT_GE(get("opcode_entropy"), 0.0);
  EXPECT_LE(get("opcode_entropy"), std::log2(get("opcode_unique")) + 1e-9);
  double prev = get("mem_entropy_l0");
  EXPECT_LE(prev, std::log2(get("global_unique_words")) + 1e-9);
  for (int level = 1; level < aiwc::kEntropyLevels; ++level) {
    const double h = get("mem_entropy_l" + std::to_string(level));
    EXPECT_GE(h, 0.0);
    EXPECT_LE(h, prev + 1e-9) << "level " << level;
    prev = h;
  }
  for (const char* frac :
       {"flop_issue_fraction", "fused_idiom_density", "branch_divergence_rate",
        "simt_efficiency", "workgroup_utilization", "reuse_cold_fraction",
        "stride_broadcast_fraction", "stride_unit_fraction",
        "stride_strided_fraction", "stride_gather_fraction"}) {
    EXPECT_GE(get(frac), 0.0) << frac;
    EXPECT_LE(get(frac), 1.0) << frac;
  }

  // The probe really diverged, staged through shared memory and hit its one
  // barrier per warp.
  EXPECT_GT(get("branch_entropy"), 0.0);
  EXPECT_LT(get("simt_efficiency"), 1.0);
  EXPECT_DOUBLE_EQ(get("barriers_per_warp"), 1.0);
  EXPECT_DOUBLE_EQ(get("workgroup_utilization"), 1.0);
}

// ---------------------------------------------------------------------------
// Arming: env knob, LaunchConfig, and the disarmed contract

TEST_F(AiwcTest, DisarmedLaunchesCarryNoFeaturesAndMatchArmedBitForBit) {
  harness::DeviceSession off(arch::gtx480(), Toolchain::Cuda);
  const auto off_run = run_probe(off);
  EXPECT_EQ(off_run.feats, nullptr);

  ::setenv("GPC_AIWC", "1", 1);
  harness::DeviceSession on(arch::gtx480(), Toolchain::Cuda);
  const auto on_run = run_probe(on);
  ASSERT_TRUE(on_run.feats);
  EXPECT_GT(on_run.feats->total_issues(), 0u);

  // Collection is observation only: outputs, instruction mix, flops and the
  // priced time are bit-identical with and without it.
  EXPECT_EQ(on_run.out, off_run.out);
  EXPECT_EQ(on.totals().kernel_s, off.totals().kernel_s);
  for (int k = 0; k < sim::kNumXKinds; ++k) {
    EXPECT_EQ(on_run.stats.xkind_issues[k], off_run.stats.xkind_issues[k]);
  }
  EXPECT_EQ(on_run.stats.flops, off_run.stats.flops);
  EXPECT_EQ(on_run.stats.dram_read_bytes, off_run.stats.dram_read_bytes);
  EXPECT_EQ(on_run.stats.dram_write_bytes, off_run.stats.dram_write_bytes);
  EXPECT_EQ(on_run.stats.barrier_count, off_run.stats.barrier_count);
}

TEST_F(AiwcTest, LaunchConfigArmsCollectionWithoutTheEnvKnob) {
  const auto ck = compiler::compile(probe_kernel(), Toolchain::Cuda);
  sim::DeviceMemory mem(1 << 20);
  const int n = kProbeGrid * kProbeBlock;
  std::vector<std::int32_t> in(n, 7);
  const auto d_in = mem.alloc(static_cast<std::size_t>(n) * 4);
  mem.write(d_in, in.data(), static_cast<std::size_t>(n) * 4);
  const auto d_out = mem.alloc(static_cast<std::size_t>(n) * 4);
  sim::LaunchConfig cfg;
  cfg.grid = {kProbeGrid, 1, 1};
  cfg.block = {kProbeBlock, 1, 1};
  cfg.aiwc = true;
  std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(d_out),
                                      sim::KernelArg::ptr(d_in)};
  const auto r = sim::launch_kernel(arch::gtx480(), arch::cuda_runtime(), ck,
                                    cfg, args, mem);
  ASSERT_TRUE(r.aiwc);
  EXPECT_GT(r.aiwc->total_issues(), 0u);
  EXPECT_EQ(r.aiwc->blocks, static_cast<std::uint64_t>(kProbeGrid));
  EXPECT_EQ(r.aiwc->warps,
            static_cast<std::uint64_t>(kProbeGrid * kProbeBlock / 32));
  EXPECT_EQ(r.aiwc->warp_size, 32);
}

TEST_F(AiwcTest, DisarmedHookSitesStayCheap) {
#if GPC_AIWC_TEST_SAN
  GTEST_SKIP() << "timing bound is meaningless under sanitizer builds";
#else
  // The disarmed path is one null test per hook site, so disarmed launches
  // must not be slower than armed ones (generous 2x + absolute slack: this
  // guards against pathological regressions, not small noise).
  const auto time_launches = [](bool armed) {
    if (armed) {
      ::setenv("GPC_AIWC", "1", 1);
    } else {
      ::unsetenv("GPC_AIWC");
    }
    harness::DeviceSession s(arch::gtx480(), Toolchain::Cuda);
    const auto ck = s.compile(probe_kernel());
    const int n = kProbeGrid * kProbeBlock;
    std::vector<std::int32_t> in(n, 1);
    const auto d_in = s.upload(std::span<const std::int32_t>(in));
    const auto d_out = s.alloc(static_cast<std::size_t>(n) * 4);
    std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(d_out),
                                        sim::KernelArg::ptr(d_in)};
    const auto once = [&] {
      (void)s.launch(ck, {kProbeGrid, 1, 1}, {kProbeBlock, 1, 1}, args);
    };
    once();  // warm up (decode cache, allocator)
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 40; ++i) once();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  const double armed = time_launches(true);
  const double disarmed = time_launches(false);
  ::unsetenv("GPC_AIWC");
  EXPECT_LT(disarmed, armed * 2.0 + 0.05)
      << "disarmed " << disarmed << "s vs armed " << armed << "s";
#endif
}

// ---------------------------------------------------------------------------
// The determinism contract: one logical launch, one feature vector — no
// matter which engine ran it, which front-end compiled it, or how it was
// sliced up on the way

TEST_F(AiwcTest, DigestBitIdenticalAcrossEnginesFrontEndsAndShapes) {
  ::setenv("GPC_AIWC", "1", 1);
  for (const auto tc : {Toolchain::Cuda, Toolchain::OpenCl}) {
    SCOPED_TRACE(arch::to_string(tc));
    std::uint64_t ref = 0;
    std::vector<std::int32_t> ref_out;
    {
      EngineGuard guard(kOracle);
      harness::DeviceSession s(arch::gtx480(), tc);
      const auto pr = run_probe(s);
      ASSERT_TRUE(pr.feats);
      ASSERT_GT(pr.feats->total_issues(), 0u);
      ref = pr.feats->digest();
      ref_out = pr.out;
    }
    {
      EngineGuard guard(kProduction);
      {  // plain
        harness::DeviceSession s(arch::gtx480(), tc);
        const auto pr = run_probe(s);
        ASSERT_TRUE(pr.feats);
        EXPECT_EQ(pr.feats->digest(), ref);
        EXPECT_EQ(pr.out, ref_out);
      }
      {  // sanitizer on: the checking layer must not perturb the stream.
        // The session (and its device heap) is built BEFORE the knob is
        // set: GPC_SIM_SANITIZE at heap construction arms memcheck's
        // 256-byte allocation red zones, which legitimately shift every
        // buffer address (and with them the address-granular memory
        // features). What must be invariant is the instrumentation itself.
        harness::DeviceSession s(arch::gtx480(), tc);
        ::setenv("GPC_SIM_SANITIZE", "all", 1);
        const auto pr = run_probe(s);
        ::unsetenv("GPC_SIM_SANITIZE");
        ASSERT_TRUE(pr.feats);
        EXPECT_EQ(pr.feats->digest(), ref) << "sanitize=all";
      }
      {  // resil split launch: merged half-grids == the whole grid
        resil::plan().reset();
        arm_split();
        harness::DeviceSession s(arch::gtx480(), tc);
        resil::Policy p;
        p.max_retries = 0;
        p.degrade = true;
        s.set_policy(p);
        const auto pr = run_probe(s);
        resil::plan().reset();
        EXPECT_GT(s.degraded_events(), 0) << "injection did not split";
        ASSERT_TRUE(pr.feats);
        EXPECT_EQ(pr.feats->digest(), ref) << "split launch";
        EXPECT_EQ(pr.out, ref_out);
      }
      {  // virt force-sliced tenant: preempt/resume must not skew features
        virt::VirtConfig cfg;
        cfg.tenants = 1;
        cfg.slice = 1;
        cfg.force_slice = true;
        virt::VirtualDeviceManager mgr(cfg);
        harness::TenantSession s(arch::gtx480(), tc, mgr.tenant(0));
        const auto pr = run_probe(s);
        EXPECT_GT(mgr.tenant(0).stats().preemptions, 0u)
            << "slicing did not actually preempt";
        ASSERT_TRUE(pr.feats);
        EXPECT_EQ(pr.feats->digest(), ref) << "force-sliced tenant";
      }
    }
  }
}

// Same contract end-to-end through the profiler: a real benchmark's
// per-kernel feature stream (as the prof recorder captured it, the source of
// aiwc.jsonl and bench/table_aiwc_features) is engine-invariant.
TEST_F(AiwcTest, RecorderFeatureStreamEngineInvariantOnRealBenchmark) {
  ::setenv("GPC_AIWC", "1", 1);
  ProfGuard prof_guard(prof::kCounters);
  const bench::Benchmark& b = bench::benchmark_by_name("MxM");
  bench::Options opts;
  opts.scale = 0.25;
  const auto digests = [&] {
    prof::recorder().clear();
    const auto r = b.run(arch::gtx480(), Toolchain::Cuda, opts);
    EXPECT_EQ(r.status, "OK");
    std::map<std::string, aiwc::Features> per_kernel;
    for (const prof::Event* e : prof::recorder().snapshot()) {
      if (e->kind == prof::Event::Kind::Launch && e->launch->aiwc) {
        per_kernel[e->launch->kernel].merge(*e->launch->aiwc);
      }
    }
    std::map<std::string, std::uint64_t> d;
    for (const auto& [kernel, feats] : per_kernel) d[kernel] = feats.digest();
    return d;
  };
  std::map<std::string, std::uint64_t> ref;
  {
    EngineGuard guard(kOracle);
    ref = digests();
  }
  ASSERT_FALSE(ref.empty()) << "no launch carried features";
  EngineGuard guard(kProduction);
  EXPECT_EQ(digests(), ref);
}

// ---------------------------------------------------------------------------
// gpc::prof satellite: span-latency percentiles from the lock-free
// log2-bucket histogram

TEST_F(AiwcTest, SpanLatencyPercentilesComeFromLogBuckets) {
  ProfGuard prof_guard(prof::kTrace);
  auto& rec = prof::recorder();
  EXPECT_EQ(rec.span_latency("api").count, 0u);
  // 90 spans of 100 ns (bucket 7), 8 of 1000 ns (bucket 10), 2 of 200 us
  // (bucket 18). Percentiles report bucket upper bounds: 2^b - 1.
  for (int i = 0; i < 90; ++i) {
    rec.record_span(prof::Track::Host, "api", "launch", 0, 100);
  }
  for (int i = 0; i < 8; ++i) {
    rec.record_span(prof::Track::Host, "api", "launch", 0, 1000);
  }
  for (int i = 0; i < 2; ++i) {
    rec.record_span(prof::Track::Host, "api", "launch", 0, 200000);
  }
  const auto p = rec.span_latency("api");
  EXPECT_EQ(p.count, 100u);
  EXPECT_EQ(p.p50_ns, 127);
  EXPECT_EQ(p.p95_ns, 1023);
  EXPECT_EQ(p.p99_ns, 262143);
  // Categories are independent slots; only launch/memcpy/build spans feed
  // percentile histograms.
  EXPECT_EQ(rec.span_latency("xfer").count, 0u);
  EXPECT_EQ(rec.span_latency("compile").count, 0u);
  EXPECT_EQ(rec.span_latency("kernel").count, 0u);
  rec.clear();
  EXPECT_EQ(rec.span_latency("api").count, 0u);
}

}  // namespace
}  // namespace gpc
