// gpc::virt tests: VirtConfig validation, quota enforcement (over-quota
// tenant gets OutOfResources, neighbours unaffected), preempt/resume
// bit-identity of time-sliced execution vs. the un-sliced launch for every
// registered benchmark, weighted fair-share ratios under real contention,
// and victim-tenant fault containment through both the CUDA and OpenCL
// runtimes. Labelled "virt" in ctest and run under ThreadSanitizer by
// tools/run_tsan.sh — the credit accounting and job handoff must be clean.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/device_spec.h"
#include "bench_kernels/registry.h"
#include "common/error.h"
#include "harness/session.h"
#include "kernel/builder.h"
#include "resil/fault.h"
#include "virt/virt.h"

namespace gpc {
namespace {

using arch::Toolchain;
using kernel::KernelBuilder;
using kernel::Unroll;
using kernel::Val;
using kernel::Var;

// Single-threaded block execution by default. Launch results do not depend
// on the thread count (per-SM issue weights are summed in block order), so
// an explicit GPC_SIM_THREADS — the ctest determinism matrix — is kept and
// the differential assertions below must hold there too. Static
// initialization order: this runs before main(), before the pool is
// constructed.
const bool g_single_threaded = [] {
  ::setenv("GPC_SIM_THREADS", "1", /*overwrite=*/0);
  return true;
}();

void expect_stats_equal(const sim::BlockStats& a, const sim::BlockStats& b) {
  EXPECT_EQ(a.alu_issues, b.alu_issues);
  EXPECT_EQ(a.ialu_issues, b.ialu_issues);
  EXPECT_EQ(a.agu_issues, b.agu_issues);
  EXPECT_EQ(a.mad_issues, b.mad_issues);
  EXPECT_EQ(a.mul_issues, b.mul_issues);
  EXPECT_EQ(a.sfu_issues, b.sfu_issues);
  EXPECT_EQ(a.branch_issues, b.branch_issues);
  EXPECT_EQ(a.mem_issues, b.mem_issues);
  EXPECT_EQ(a.shared_cycles, b.shared_cycles);
  EXPECT_EQ(a.const_cycles, b.const_cycles);
  EXPECT_EQ(a.barrier_count, b.barrier_count);
  EXPECT_EQ(a.dram_read_bytes, b.dram_read_bytes);
  EXPECT_EQ(a.dram_write_bytes, b.dram_write_bytes);
  EXPECT_EQ(a.dram_transactions, b.dram_transactions);
  EXPECT_EQ(a.useful_global_bytes, b.useful_global_bytes);
  EXPECT_EQ(a.local_bytes, b.local_bytes);
  EXPECT_EQ(a.tex_requests, b.tex_requests);
  EXPECT_EQ(a.tex_hits, b.tex_hits);
  EXPECT_EQ(a.l1_hits, b.l1_hits);
  EXPECT_EQ(a.atomic_serial_ops, b.atomic_serial_ops);
  EXPECT_DOUBLE_EQ(a.flops, b.flops);
}

// ---------------------------------------------------------------------------
// VirtConfig validation

TEST(VirtConfig, ManagerRejectsOvercommittedQuota) {
  virt::VirtConfig cfg;
  cfg.tenants = 4;
  cfg.phys_bytes = std::size_t{64} << 20;
  cfg.quota_bytes = std::size_t{32} << 20;  // 4 * 32MB > 64MB
  EXPECT_THROW(virt::VirtualDeviceManager{cfg}, InvalidArgument);
}

// ---------------------------------------------------------------------------
// Quota enforcement

TEST(VirtQuota, OverQuotaTenantGetsOORNeighboursUnaffected) {
  virt::VirtConfig cfg;
  cfg.tenants = 2;
  cfg.phys_bytes = std::size_t{64} << 20;
  cfg.quota_bytes = std::size_t{8} << 20;
  virt::VirtualDeviceManager mgr(cfg);

  harness::TenantSession greedy(arch::gtx480(), Toolchain::Cuda,
                                mgr.tenant(0));
  harness::TenantSession neighbour(arch::gtx480(), Toolchain::Cuda,
                                   mgr.tenant(1));

  // Inside quota: fine.
  (void)greedy.alloc(std::size_t{4} << 20);
  // Over quota: OutOfResources scoped to THIS tenant, tagged as a quota
  // rejection in both the message and the tenant's accounting.
  try {
    (void)greedy.alloc(std::size_t{8} << 20);
    FAIL() << "over-quota alloc did not throw";
  } catch (const OutOfResources& e) {
    EXPECT_NE(std::string(e.what()).find("quota"), std::string::npos);
  }
  EXPECT_EQ(mgr.tenant(0).stats().quota_rejections, 1u);

  // The neighbour's quota is untouched by tenant 0's exhaustion.
  (void)neighbour.alloc(std::size_t{7} << 20);
  EXPECT_EQ(mgr.tenant(1).stats().quota_rejections, 0u);
  EXPECT_GE(mgr.tenant(0).stats().mem_peak, std::size_t{4} << 20);
}

// ---------------------------------------------------------------------------
// Preempt/resume bit-identity: every registered benchmark, sliced vs. not.

class VirtDifferential : public ::testing::TestWithParam<int> {};

TEST_P(VirtDifferential, SlicedExecutionIsBitIdentical) {
  const bench::Benchmark* b =
      bench::real_world_benchmarks()[static_cast<std::size_t>(GetParam())];
  bench::Options opts;
  // FDTD's 48x48 plane collapses to a single 16x16 tile at scale 0.1 — a
  // one-block grid has nothing to preempt; run it at 0.5 (a 2x2 grid).
  opts.scale = b->name() == "FDTD" ? 0.5 : 0.1;

  // Baseline: plain un-virtualized session.
  harness::DeviceSession plain(arch::gtx480(), Toolchain::Cuda);
  const bench::Result want = b->run_in_session(plain, opts);

  // Same benchmark inside a tenant whose every launch is force-sliced into
  // the smallest possible preempt/resume chunks: a 1-step quantum preempts
  // after every single block, the maximal checkpointing stress.
  virt::VirtConfig cfg;
  cfg.tenants = 1;
  cfg.slice = 1;
  cfg.force_slice = true;
  virt::VirtualDeviceManager mgr(cfg);
  harness::TenantSession tenant(arch::gtx480(), Toolchain::Cuda,
                                mgr.tenant(0));
  const bench::Result got = b->run_in_session(tenant, opts);

  EXPECT_EQ(got.status, want.status) << b->name();
  EXPECT_EQ(got.correct, want.correct) << b->name();
  EXPECT_EQ(got.launches, want.launches) << b->name();
  expect_stats_equal(got.stats, want.stats);
  // Timing is re-derived once per logical launch from the merged stats, so
  // slicing must not change the metric or the accumulated kernel seconds.
  EXPECT_DOUBLE_EQ(got.seconds, want.seconds) << b->name();
  EXPECT_DOUBLE_EQ(got.value, want.value) << b->name();

  // And the slicing really happened: some launch was preempted mid-grid and
  // resumed on a later slice. Every slice either completed a launch or
  // checkpointed one (no faults here), so the counters must reconcile.
  const virt::TenantStats st = mgr.tenant(0).stats();
  EXPECT_GT(st.preemptions, 0u) << b->name();
  EXPECT_EQ(st.slices, st.launches + st.preemptions) << b->name();
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, VirtDifferential,
    ::testing::Range(0, static_cast<int>(bench::real_world_benchmarks().size())),
    [](const ::testing::TestParamInfo<int>& info) {
      return bench::real_world_benchmarks()[static_cast<std::size_t>(
                                                info.param)]
          ->name();
    });

TEST(VirtDifferentialOcl, SlicedExecutionIsBitIdenticalThroughOpenCL) {
  const bench::Benchmark& b = bench::benchmark_by_name("BFS");
  bench::Options opts;
  opts.scale = 0.1;
  harness::DeviceSession plain(arch::gtx480(), Toolchain::OpenCl);
  const bench::Result want = b.run_in_session(plain, opts);

  virt::VirtConfig cfg;
  cfg.tenants = 1;
  cfg.slice = 20'000;
  cfg.force_slice = true;
  virt::VirtualDeviceManager mgr(cfg);
  harness::TenantSession tenant(arch::gtx480(), Toolchain::OpenCl,
                                mgr.tenant(0));
  const bench::Result got = b.run_in_session(tenant, opts);

  EXPECT_EQ(got.status, want.status);
  expect_stats_equal(got.stats, want.stats);
  EXPECT_DOUBLE_EQ(got.seconds, want.seconds);
  EXPECT_DOUBLE_EQ(got.value, want.value);
}

// ---------------------------------------------------------------------------
// Fair share

/// A tenant session with one loop-heavy kernel (100 iterations per thread,
/// 256-thread blocks, a couple of thousand issues per block) compiled.
class Spinner {
 public:
  Spinner(virt::VirtualDeviceManager& mgr, int id)
      : s_(arch::gtx480(), Toolchain::Cuda, mgr.tenant(id)) {
    KernelBuilder kb("spin");
    auto out = kb.ptr_param("out", ir::Type::F32);
    Var acc = kb.var_f32("acc");
    kb.set(acc, kb.cf(1.0));
    Var i = kb.var_s32("i");
    kb.for_(i, 0, kb.c32(100), 1, Unroll::none(), [&] {
      kb.set(acc, Val(acc) * kb.cf(1.0000001) + kb.cf(0.5));
    });
    kb.st(out, kb.global_id_x(), acc);
    ck_ = s_.compile(kb.finish());
    args_ = {sim::KernelArg::ptr(s_.alloc(kMaxBlocks * 256 * 4))};
  }
  void launch(int blocks) {
    ASSERT_LE(blocks, kMaxBlocks);
    (void)s_.launch(ck_, {blocks, 1, 1}, {256, 1, 1}, args_);
  }

 private:
  static constexpr int kMaxBlocks = 256;
  harness::TenantSession s_;
  compiler::CompiledKernel ck_;
  std::vector<sim::KernelArg> args_;
};

TEST(VirtFairShare, WeightedTenantsSplitContendedStepsByWeight) {
  virt::VirtConfig cfg;
  cfg.tenants = 2;
  cfg.slice = 10'000;
  cfg.weights = {3.0, 1.0};
  virt::VirtualDeviceManager mgr(cfg);

  // Two tenant threads hammer the device with the identical loop-heavy
  // kernel (~100 iterations x 64 blocks: a couple hundred thousand issues
  // per launch, dozens of slices) concurrently; the caller-driven scheduler
  // interleaves their slices in credit order.
  auto tenant_loop = [&](int id, int rounds) {
    Spinner s(mgr, id);
    for (int r = 0; r < rounds; ++r) s.launch(64);
  };
  std::thread heavy(tenant_loop, 0, 20);
  std::thread light(tenant_loop, 1, 20);
  heavy.join();
  light.join();

  const auto st = mgr.stats();
  // Same total work per tenant, so both must have overlapped substantially;
  // the fair-share claim is about steps executed WHILE contended.
  ASSERT_GT(st[0].contended_steps, 0u);
  ASSERT_GT(st[1].contended_steps, 0u);
  const double ratio = static_cast<double>(st[0].contended_steps) /
                       static_cast<double>(st[1].contended_steps);
  // Weight ratio is 3.0; slice granularity (a slice overshoots its quantum
  // by at most one block) and edge slices blur it, so assert a broad band
  // around the target rather than a point.
  EXPECT_GT(ratio, 1.6) << "heavy tenant did not get its weighted share";
  EXPECT_LT(ratio, 6.0) << "heavy tenant starved the light one";
  EXPECT_GT(st[0].preemptions + st[1].preemptions, 0u);
}

// Credit debits. Every refill grants each runnable tenant the same amount
// when weights are equal (one slice), and a refill happens only once every
// runnable tenant is at or below zero, so the two-round cap never binds:
// a tenant's balance is always (refills x slice) - debits, exactly.

double debits_mod_slice(const virt::TenantStats& st, std::uint64_t debits,
                        std::uint64_t slice) {
  return std::fmod(st.credits + static_cast<double>(debits),
                   static_cast<double>(slice));
}

TEST(VirtCredits, UncontendedLaunchesCostNothing) {
  // Two tenants, but only tenant 0 ever submits: every chunk runs on an
  // otherwise idle device, so the one refill it got stays whole.
  virt::VirtConfig cfg;
  cfg.tenants = 2;
  cfg.slice = 20'000;
  virt::VirtualDeviceManager mgr(cfg);
  Spinner s(mgr, 0);
  std::uint64_t prev = 0;
  for (int r = 0; r < 3; ++r) {
    s.launch(64);  // many slices' worth of issues
    const virt::TenantStats st = mgr.tenant(0).stats();
    EXPECT_GT(st.steps, prev + cfg.slice);
    prev = st.steps;
    EXPECT_EQ(st.contended_steps, 0u);
    EXPECT_EQ(st.preemptions, 0u);
    EXPECT_EQ(st.credits, static_cast<double>(cfg.slice)) << "launch " << r;
  }
}

TEST(VirtCredits, ForcedSlicingDebitsEveryStep) {
  virt::VirtConfig cfg;
  cfg.tenants = 2;
  cfg.force_slice = true;
  cfg.slice = 1'000'000;
  {
    // One launch inside one slice: one refill, every issue debited.
    virt::VirtualDeviceManager mgr(cfg);
    Spinner s(mgr, 0);
    s.launch(4);
    const virt::TenantStats st = mgr.tenant(0).stats();
    ASSERT_LT(st.steps, cfg.slice);
    EXPECT_EQ(st.contended_steps, st.steps);
    EXPECT_EQ(st.credits, static_cast<double>(cfg.slice - st.steps));
  }
  cfg.slice = 3'000;
  {
    // Preempted at every quantum and refilled after each: the balance is
    // still refills x slice - every issue.
    virt::VirtualDeviceManager mgr(cfg);
    Spinner s(mgr, 0);
    s.launch(16);
    const virt::TenantStats st = mgr.tenant(0).stats();
    EXPECT_GT(st.preemptions, 0u);
    EXPECT_EQ(st.contended_steps, st.steps);
    EXPECT_LE(st.credits, static_cast<double>(cfg.slice));
    EXPECT_EQ(debits_mod_slice(st, st.steps, cfg.slice), 0.0);
  }
}

TEST(VirtCredits, OnlyChunksStartedWhileContendedAreDebited) {
  // Tenant 0 starts alone and keeps submitting until tenant 1 is done;
  // tenant 1 submits once tenant 0 is inside its first slice. Whenever it
  // arrives, tenant 0's first chunk was decided uncontended under the
  // scheduler lock (tenant 1 cannot enqueue until that chunk has started),
  // so tenant 0 executed free steps; every later chunk of either tenant
  // that started with both runnable is debited.
  virt::VirtConfig cfg;
  cfg.tenants = 2;
  cfg.slice = 5'000;
  virt::VirtualDeviceManager mgr(cfg);
  std::atomic<bool> light_done{false};
  std::thread heavy([&] {
    Spinner s(mgr, 0);
    while (!light_done.load()) s.launch(128);
  });
  std::thread light([&] {
    Spinner s(mgr, 1);
    while (mgr.tenant(0).stats().slices == 0) std::this_thread::yield();
    for (int r = 0; r < 4; ++r) s.launch(64);
    light_done.store(true);
  });
  light.join();
  heavy.join();

  const auto st = mgr.stats();
  ASSERT_GT(st[0].contended_steps + st[1].contended_steps, 0u)
      << "the tenants never overlapped";
  EXPECT_GT(st[0].steps, st[0].contended_steps);
  for (const virt::TenantStats& t : st) {
    SCOPED_TRACE("tenant " + std::to_string(t.id));
    EXPECT_LE(t.credits, static_cast<double>(cfg.slice));
    EXPECT_EQ(debits_mod_slice(t, t.contended_steps, cfg.slice), 0.0)
        << "credits " << t.credits << " steps " << t.steps << " contended "
        << t.contended_steps;
  }
}

// ---------------------------------------------------------------------------
// Fault containment

class VirtContainment : public ::testing::TestWithParam<Toolchain> {};

TEST_P(VirtContainment, VictimFaultsAreInvisibleToNeighbours) {
  const Toolchain tc = GetParam();
  bench::Options opts;
  opts.scale = 0.1;
  const bench::Benchmark& b = bench::benchmark_by_name("Reduce");

  // Unvirtualized baseline for the clean tenant's expected results.
  harness::DeviceSession plain(arch::gtx480(), tc);
  const bench::Result want = b.run_in_session(plain, opts);
  ASSERT_EQ(want.status, "OK");

  virt::VirtConfig cfg;
  cfg.tenants = 2;
  cfg.slice = 20'000;
  cfg.force_slice = true;  // keep both tenants interleaving
  virt::VirtualDeviceManager mgr(cfg);

  // Tenant 1 is the designated victim: every launch site injects.
  auto plan = std::make_unique<resil::FaultPlan>();
  EXPECT_FALSE(plan->armed());  // standalone plans never read GPC_FAULT
  resil::SiteSpec hang;
  hang.enabled = true;
  hang.probability = 1.0;
  hang.seed = 7;
  plan->set(resil::Site::Hang, hang);
  mgr.tenant(1).set_fault_plan(std::move(plan));

  bench::Result got;
  std::string victim_error;
  std::thread clean_thread([&] {
    harness::TenantSession s(arch::gtx480(), tc, mgr.tenant(0));
    got = b.run_in_session(s, opts);
  });
  std::thread victim_thread([&] {
    harness::TenantSession s(arch::gtx480(), tc, mgr.tenant(1));
    const bench::Result r = b.run_in_session(s, opts);
    // Hang injection on every launch: the victim cannot complete — but it
    // ends CLASSIFIED (the injected hang trips the watchdog path), not
    // hung, and not crashing the harness.
    victim_error = r.status;
  });
  clean_thread.join();
  victim_thread.join();

  EXPECT_EQ(victim_error, "ABT");
  EXPECT_GT(mgr.tenant(1).stats().faults, 0u);

  // The non-victim tenant is bit-identical to the unvirtualized run.
  EXPECT_EQ(got.status, "OK");
  expect_stats_equal(got.stats, want.stats);
  EXPECT_DOUBLE_EQ(got.value, want.value);
  EXPECT_EQ(mgr.tenant(0).stats().faults, 0u);
}

INSTANTIATE_TEST_SUITE_P(BothRuntimes, VirtContainment,
                         ::testing::Values(Toolchain::Cuda,
                                           Toolchain::OpenCl),
                         [](const ::testing::TestParamInfo<Toolchain>& info) {
                           return info.param == Toolchain::Cuda ? "cuda"
                                                                : "ocl";
                         });

TEST(VirtContainment2, MidgridVictimFailsAtDeterministicBlock) {
  // Runs the identical single-tenant midgrid-injection scenario twice from
  // scratch (fresh manager, fresh identically-seeded plan) and demands the
  // identical fault message, victim block included — the per-tenant
  // determinism the soak's replay assertion builds on.
  const auto scenario = [] {
    virt::VirtConfig cfg;
    cfg.tenants = 1;
    cfg.slice = 5'000;
    cfg.force_slice = true;
    virt::VirtualDeviceManager mgr(cfg);

    auto plan = std::make_unique<resil::FaultPlan>();
    resil::SiteSpec mid;
    mid.enabled = true;
    mid.probability = 1.0;
    mid.seed = 11;
    plan->set(resil::Site::MidGrid, mid);
    mgr.tenant(0).set_fault_plan(std::move(plan));

    kernel::KernelBuilder kb("copy_v");
    auto in = kb.ptr_param("in", ir::Type::S32);
    auto out = kb.ptr_param("out", ir::Type::S32);
    kb.st(out, kb.global_id_x(), kb.ld(in, kb.global_id_x()));

    harness::TenantSession s(arch::gtx480(), Toolchain::Cuda, mgr.tenant(0));
    const auto ck = s.compile(kb.finish());
    const std::vector<std::int32_t> host(64 * 256, 7);
    const auto d_in = s.upload<std::int32_t>(host);
    const auto d_out = s.alloc(host.size() * 4);

    try {
      (void)s.launch(ck, {64, 1, 1}, {256, 1, 1},
                     std::vector<sim::KernelArg>{sim::KernelArg::ptr(d_in),
                                                 sim::KernelArg::ptr(d_out)});
    } catch (const DeviceFault& e) {
      return std::string(e.what());
    }
    return std::string("DID NOT THROW");
  };

  const std::string first = scenario();
  const std::string second = scenario();
  EXPECT_NE(first.find("injected midgrid fault"), std::string::npos) << first;
  EXPECT_NE(first.find("(block "), std::string::npos) << first;
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace gpc
