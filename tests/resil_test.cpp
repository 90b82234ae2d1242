// gpc::resil tests: deterministic fault injection (spec grammar, sampling,
// per-site triggers), injection surfacing through both host APIs with their
// native error models, the resilience policy (retry/backoff, split launch,
// degraded execution, watchdog), the DEG benchmark outcome, and the
// back-to-back-launch-after-fault regression (sticky cross-launch state).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "arch/device_spec.h"
#include "bench_kernels/registry.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "compiler/pipeline.h"
#include "cuda/runtime.h"
#include "harness/session.h"
#include "kernel/builder.h"
#include "ocl/opencl.h"
#include "resil/fault.h"
#include "resil/policy.h"
#include "sim/launch.h"

namespace gpc {
namespace {

using arch::Toolchain;
using kernel::KernelBuilder;
using kernel::KernelDef;
using kernel::Unroll;
using kernel::Val;
using kernel::Var;

/// Every test starts and ends with the process-wide resilience state clean:
/// plan disarmed, counters zeroed, policy from env (and no stray env knobs).
class ResilTest : public ::testing::Test {
 protected:
  void SetUp() override { clean(); }
  void TearDown() override { clean(); }

  static void clean() {
    resil::plan().reset();
    resil::reset_counters();
    resil::set_policy_override(std::nullopt);
    ::unsetenv("GPC_RETRY");
    ::unsetenv("GPC_DEGRADE");
    ::unsetenv("GPC_WATCHDOG");
  }

  static void arm(resil::Site site, double p, std::uint64_t seed,
                  std::uint64_t after = 0,
                  std::uint64_t count = ~std::uint64_t{0}) {
    resil::SiteSpec s;
    s.enabled = true;
    s.probability = p;
    s.seed = seed;
    s.after = after;
    s.count = count;
    resil::plan().set(site, s);
  }
};

KernelDef copy_kernel() {
  KernelBuilder kb("copy1");
  auto in = kb.ptr_param("in", ir::Type::S32);
  auto out = kb.ptr_param("out", ir::Type::S32);
  kb.st(out, kb.global_id_x(), kb.ld(in, kb.global_id_x()));
  return kb.finish();
}

/// Writes ctaid*1000 + nctaid per element: a split launch is only correct if
/// sub-grids observe offset block ids and the *logical* grid dimension.
KernelDef grid_probe_kernel() {
  KernelBuilder kb("grid_probe");
  auto out = kb.ptr_param("out", ir::Type::S32);
  kb.st(out, kb.global_id_x(), kb.ctaid_x() * 1000 + kb.nctaid_x());
  return kb.finish();
}

/// 128 KiB of shared memory: structurally over every device's budget.
KernelDef shared_hog_kernel() {
  KernelBuilder kb("shared_hog");
  auto out = kb.ptr_param("out", ir::Type::S32);
  auto s = kb.shared_array("s", ir::Type::S32, 32768);
  kb.sts(s, kb.tid_x(), kb.tid_x());
  kb.barrier();
  kb.st(out, kb.global_id_x(), kb.lds(s, kb.tid_x()));
  return kb.finish();
}

KernelDef spin_kernel(int iters) {
  KernelBuilder kb("spin");
  auto out = kb.ptr_param("out", ir::Type::S32);
  Var acc = kb.var_s32("acc");
  kb.set(acc, kb.c32(0));
  Var i = kb.var_s32("i");
  kb.for_(i, 0, kb.c32(iters), 1, Unroll::none(),
          [&] { kb.set(acc, Val(acc) + Val(i)); });
  kb.st(out, kb.c32(0), acc);
  return kb.finish();
}

// ---------------------------------------------------------------------------
// Spec grammar and sampling

TEST_F(ResilTest, SpecParsesSitesAndOptions) {
  auto& plan = resil::plan();
  EXPECT_FALSE(plan.armed());
  plan.configure("enqueue:p=0.25:seed=7;build:after=3:count=1;memcpy");
  EXPECT_TRUE(plan.armed());
  const auto enq = plan.spec(resil::Site::Enqueue);
  EXPECT_TRUE(enq.enabled);
  EXPECT_DOUBLE_EQ(enq.probability, 0.25);
  EXPECT_EQ(enq.seed, 7u);
  const auto bld = plan.spec(resil::Site::Build);
  EXPECT_TRUE(bld.enabled);
  EXPECT_DOUBLE_EQ(bld.probability, 1.0);
  EXPECT_EQ(bld.after, 3u);
  EXPECT_EQ(bld.count, 1u);
  EXPECT_TRUE(plan.spec(resil::Site::Memcpy).enabled);
  EXPECT_FALSE(plan.spec(resil::Site::MidGrid).enabled);
  plan.reset();
  EXPECT_FALSE(plan.armed());
}

TEST_F(ResilTest, SpecRejectsMalformed) {
  EXPECT_THROW(resil::plan().configure("bogus_site"), InvalidArgument);
  EXPECT_THROW(resil::plan().configure("enqueue:p=notanumber"),
               InvalidArgument);
  EXPECT_THROW(resil::plan().configure("enqueue:wat=1"), InvalidArgument);
  EXPECT_THROW(resil::plan().configure("enqueue:p=2.0"), InvalidArgument);
  // A failed configure leaves the plan disarmed, not half-armed.
  EXPECT_FALSE(resil::plan().armed());
}

TEST_F(ResilTest, SamplingReplaysBitForBit) {
  std::vector<bool> first;
  arm(resil::Site::Enqueue, 0.3, 99);
  for (int i = 0; i < 200; ++i) {
    first.push_back(resil::sample(resil::Site::Enqueue, "k").has_value());
  }
  const auto injected = resil::plan().injections(resil::Site::Enqueue);
  EXPECT_GT(injected, 0u);       // p=0.3 over 200 draws: some fire...
  EXPECT_LT(injected, 200u);     // ...but not all
  resil::plan().reset();
  arm(resil::Site::Enqueue, 0.3, 99);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(resil::sample(resil::Site::Enqueue, "k").has_value(), first[i])
        << "draw " << i << " diverged on replay";
  }
}

TEST_F(ResilTest, AfterAndCountGateInjections) {
  arm(resil::Site::Build, 1.0, 1, /*after=*/2, /*count=*/1);
  EXPECT_FALSE(resil::sample(resil::Site::Build, "k"));  // call 0: skipped
  EXPECT_FALSE(resil::sample(resil::Site::Build, "k"));  // call 1: skipped
  const auto inj = resil::sample(resil::Site::Build, "k");  // call 2: fires
  ASSERT_TRUE(inj.has_value());
  EXPECT_NE(inj->detail.find("injected build fault"), std::string::npos)
      << inj->detail;
  EXPECT_FALSE(resil::sample(resil::Site::Build, "k"));  // count exhausted
  EXPECT_EQ(resil::plan().calls(resil::Site::Build), 4u);
  EXPECT_EQ(resil::plan().injections(resil::Site::Build), 1u);
}

TEST_F(ResilTest, ProbabilityEndpoints) {
  arm(resil::Site::Memcpy, 0.0, 5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(resil::sample(resil::Site::Memcpy, "k"));
  }
  arm(resil::Site::Hang, 1.0, 5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(resil::sample(resil::Site::Hang, "k"));
  }
}

// ---------------------------------------------------------------------------
// Injection surfaces through each host API with its native error model

TEST_F(ResilTest, CudaEnqueueInjectionThrowsOutOfResources) {
  arm(resil::Site::Enqueue, 1.0, 3);
  cuda::Context ctx(arch::gtx480());
  const auto d_in = ctx.malloc(256), d_out = ctx.malloc(256);
  auto ck = ctx.compile(copy_kernel());
  sim::LaunchConfig cfg;
  cfg.grid = {2, 1, 1};
  cfg.block = {32, 1, 1};
  try {
    (void)ctx.launch(ck, cfg, {{sim::KernelArg::ptr(d_in),
                                sim::KernelArg::ptr(d_out)}});
    FAIL() << "expected OutOfResources";
  } catch (const OutOfResources& e) {
    EXPECT_NE(std::string(e.what()).find("injected enqueue fault"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ResilTest, OclEnqueueInjectionReturnsOutOfResourcesStatus) {
  arm(resil::Site::Enqueue, 1.0, 3);
  ocl::Context ctx(arch::hd5870());
  ocl::CommandQueue q(ctx);
  ocl::Kernel k(compiler::compile(copy_kernel(), Toolchain::OpenCl));
  auto b_in = ctx.create_buffer(256);
  auto b_out = ctx.create_buffer(256);
  const ocl::Status st = q.enqueue_nd_range(
      k, {64, 1, 1}, {32, 1, 1},
      {{sim::KernelArg::ptr(b_in.addr), sim::KernelArg::ptr(b_out.addr)}});
  EXPECT_EQ(st, ocl::Status::OutOfResources);
  EXPECT_NE(q.last_error().find("injected enqueue fault"), std::string::npos)
      << q.last_error();
}

TEST_F(ResilTest, MidGridInjectionFaultsBothRuntimes) {
  arm(resil::Site::MidGrid, 1.0, 11, 0, 1);
  harness::DeviceSession cu(arch::gtx480(), Toolchain::Cuda);
  const auto d_in = cu.alloc(64 * 4), d_out = cu.alloc(64 * 4);
  auto ck = cu.compile(copy_kernel());
  try {
    (void)cu.launch(ck, {2, 1, 1}, {32, 1, 1},
                    {{sim::KernelArg::ptr(d_in), sim::KernelArg::ptr(d_out)}});
    FAIL() << "expected DeviceFault";
  } catch (const DeviceFault& e) {
    EXPECT_NE(std::string(e.what()).find("injected midgrid fault"),
              std::string::npos)
        << e.what();
  }

  resil::plan().reset();
  arm(resil::Site::MidGrid, 1.0, 11, 0, 1);
  ocl::Context ctx(arch::hd5870());
  ocl::CommandQueue q(ctx);
  ocl::Kernel k(compiler::compile(copy_kernel(), Toolchain::OpenCl));
  auto b_in = ctx.create_buffer(64 * 4);
  auto b_out = ctx.create_buffer(64 * 4);
  const ocl::Status st = q.enqueue_nd_range(
      k, {64, 1, 1}, {32, 1, 1},
      {{sim::KernelArg::ptr(b_in.addr), sim::KernelArg::ptr(b_out.addr)}});
  EXPECT_EQ(st, ocl::Status::DeviceFault);
  EXPECT_NE(q.last_error().find("injected midgrid fault"), std::string::npos)
      << q.last_error();
}

// A mid-grid fault runs exactly the blocks before its victim, at every
// thread count: the retry then starts from the same memory image however
// many threads the pool has (ctest also runs this at GPC_SIM_THREADS=4).
TEST_F(ResilTest, MidGridFaultRunsExactlyTheBlocksBeforeTheVictim) {
  constexpr int kBlocks = 256;
  // A seed whose first mid-grid draw hits a low block past the first pool
  // chunk, so a pool racing past the victim would write later slots.
  std::uint64_t seed = 1;
  long long victim = -1;
  for (;; ++seed) {
    resil::FaultPlan probe;
    resil::SiteSpec spec;
    spec.enabled = true;
    spec.seed = seed;
    probe.set(resil::Site::MidGrid, spec);
    victim = static_cast<long long>(
        probe.sample(resil::Site::MidGrid, "probe")->aux % kBlocks);
    if (victim >= 16 && victim < 64) break;
  }
  arm(resil::Site::MidGrid, 1.0, seed, 0, 1);

  KernelBuilder kb("block_id");
  auto out = kb.ptr_param("out", ir::Type::S32);
  kb.if_(kb.tid_x() == 0, [&] { kb.st(out, kb.ctaid_x(), kb.ctaid_x()); });
  const auto ck = compiler::compile(kb.finish(), Toolchain::Cuda);
  sim::DeviceMemory mem(1 << 20);
  const auto d_out = mem.alloc(kBlocks * 4);
  std::vector<std::int32_t> slots(kBlocks, -1);
  mem.write(d_out, slots.data(), kBlocks * 4);
  sim::LaunchConfig cfg;
  cfg.grid = {kBlocks, 1, 1};
  cfg.block = {32, 1, 1};
  const std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(d_out)};
  try {
    (void)sim::launch_kernel(arch::gtx480(), arch::cuda_runtime(), ck, cfg,
                             args, mem);
    FAIL() << "expected DeviceFault";
  } catch (const DeviceFault& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "(block " + std::to_string(victim) + "/256)"),
              std::string::npos)
        << e.what();
  }
  mem.read(d_out, slots.data(), kBlocks * 4);
  for (int b = 0; b < kBlocks; ++b) {
    EXPECT_EQ(slots[b], b < victim ? b : -1)
        << "block " << b << ", victim " << victim << ", "
        << ThreadPool::shared().size() << " pool workers";
  }
}

TEST_F(ResilTest, HangInjectionTripsWatchdogWithoutSpinning) {
  arm(resil::Site::Hang, 1.0, 13);
  const auto trips_before = resil::counters().watchdog_trips.load();
  harness::DeviceSession s(arch::gtx480(), Toolchain::Cuda);
  const auto d_in = s.alloc(256), d_out = s.alloc(256);
  auto ck = s.compile(copy_kernel());
  try {
    (void)s.launch(ck, {2, 1, 1}, {32, 1, 1},
                   {{sim::KernelArg::ptr(d_in), sim::KernelArg::ptr(d_out)}});
    FAIL() << "expected DeviceFault";
  } catch (const DeviceFault& e) {
    EXPECT_NE(std::string(e.what()).find("watchdog"), std::string::npos)
        << e.what();
  }
  EXPECT_GT(resil::counters().watchdog_trips.load(), trips_before);
}

TEST_F(ResilTest, OclBuildInjectionFailsOnceThenSucceeds) {
  arm(resil::Site::Build, 1.0, 17, 0, 1);
  ocl::Context ctx(arch::hd5870());
  ocl::Program prog(ctx, copy_kernel());
  EXPECT_EQ(prog.build(), ocl::Status::BuildProgramFailure);
  EXPECT_NE(prog.build_log().find("injected build fault"), std::string::npos)
      << prog.build_log();
  // The injected failure is transient: count=1 is spent, the rebuild works.
  EXPECT_EQ(prog.build(), ocl::Status::Success);
  EXPECT_EQ(prog.kernel().name(), "copy1");
}

TEST_F(ResilTest, OclMemcpyInjectionSetsAndClearsLastError) {
  arm(resil::Site::Memcpy, 1.0, 19, 0, 1);
  ocl::Context ctx(arch::hd5870());
  ocl::CommandQueue q(ctx);
  auto buf = ctx.create_buffer(256);
  std::vector<std::int32_t> host(64, 42);
  EXPECT_EQ(q.enqueue_write_buffer(buf, host.data(), 256),
            ocl::Status::OutOfHostMemory);
  EXPECT_NE(q.last_error().find("injected memcpy fault"), std::string::npos)
      << q.last_error();
  // Next enqueue resets the sticky detail on entry and succeeds.
  EXPECT_EQ(q.enqueue_write_buffer(buf, host.data(), 256),
            ocl::Status::Success);
  EXPECT_TRUE(q.last_error().empty());
}

TEST_F(ResilTest, CudaMemcpyInjectionThrowsTransientFault) {
  arm(resil::Site::Memcpy, 1.0, 23, 0, 1);
  cuda::Context ctx(arch::gtx480());
  const auto d = ctx.malloc(256);
  std::vector<std::int32_t> host(64, 7);
  EXPECT_THROW(ctx.memcpy_h2d(d, host.data(), 256), TransientFault);
  // count=1 spent: the copy works now and data lands intact.
  ctx.memcpy_h2d(d, host.data(), 256);
  std::vector<std::int32_t> back(64, 0);
  ctx.memcpy_d2h(back.data(), d, 256);
  EXPECT_EQ(back, host);
}

// ---------------------------------------------------------------------------
// Regression: a fault in launch N must not bleed into launch N+1
// (sticky ocl last_error / ThreadPool batch cancellation).

class ResilRuntimeTest : public ResilTest,
                         public ::testing::WithParamInterface<Toolchain> {};

TEST_P(ResilRuntimeTest, BackToBackLaunchAfterFault) {
  arm(resil::Site::MidGrid, 1.0, 29, 0, 1);
  harness::DeviceSession s(arch::gtx480(), GetParam());
  std::vector<std::int32_t> in(64);
  for (int i = 0; i < 64; ++i) in[i] = i * 3 + 1;
  const auto d_in = s.upload(std::span<const std::int32_t>(in));
  const auto d_out = s.alloc(64 * 4);
  auto ck = s.compile(copy_kernel());
  std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(d_in),
                                      sim::KernelArg::ptr(d_out)};
  EXPECT_THROW((void)s.launch(ck, {2, 1, 1}, {32, 1, 1}, args), DeviceFault);
  // The pool's batch cancellation is per-batch state; after the failed
  // launch unwinds, no cancellation may leak into the next one.
  EXPECT_FALSE(ThreadPool::cancelled());
  // Same session, same kernel, immediately afterwards: clean run, correct
  // data — the injected fault was consumed (count=1) and nothing is sticky.
  ASSERT_NO_THROW((void)s.launch(ck, {2, 1, 1}, {32, 1, 1}, args));
  std::vector<std::int32_t> out(64, 0);
  s.download(d_out, std::span<std::int32_t>(out));
  EXPECT_EQ(out, in);
}

INSTANTIATE_TEST_SUITE_P(BothRuntimes, ResilRuntimeTest,
                         ::testing::Values(Toolchain::Cuda,
                                           Toolchain::OpenCl),
                         [](const auto& info) {
                           return info.param == Toolchain::Cuda ? "Cuda"
                                                                : "OpenCl";
                         });

// ---------------------------------------------------------------------------
// Raw CUDA-context fault paths (symmetry with the OpenCL status tests in
// sanitizer_test.cpp: CUDA's error model is exceptions, not codes)

TEST_F(ResilTest, CudaContextStructuralOutOfResources) {
  cuda::Context ctx(arch::gtx480());
  const auto d_out = ctx.malloc(256);
  auto ck = ctx.compile(shared_hog_kernel());
  sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {32, 1, 1};
  EXPECT_THROW((void)ctx.launch(ck, cfg, {{sim::KernelArg::ptr(d_out)}}),
               OutOfResources);
}

TEST_F(ResilTest, CudaContextUsableAfterDeviceFault) {
  cuda::Context ctx(arch::gtx480());
  const auto d_in = ctx.malloc(256), d_out = ctx.malloc(256);
  // Out-of-bounds store at 1 GiB: faults mid-grid.
  KernelBuilder kb("oob");
  auto out = kb.ptr_param("out", ir::Type::S32);
  kb.st(out, kb.c32(1 << 28), kb.c32(7));
  auto bad = ctx.compile(kb.finish());
  sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {1, 1, 1};
  EXPECT_THROW((void)ctx.launch(bad, cfg, {{sim::KernelArg::ptr(d_out)}}),
               DeviceFault);
  // Unlike real CUDA's poisoned context, the simulated one recovers — and
  // must: the resilience layer retries launches on the same context.
  auto good = ctx.compile(copy_kernel());
  cfg.block = {32, 1, 1};
  cfg.grid = {1, 1, 1};
  EXPECT_NO_THROW((void)ctx.launch(good, cfg,
                                   {{sim::KernelArg::ptr(d_in),
                                     sim::KernelArg::ptr(d_out)}}));
}

TEST_F(ResilTest, CudaContextStepBudgetFaults) {
  ::setenv("GPC_WATCHDOG", "1000", 1);
  const auto trips_before = resil::counters().watchdog_trips.load();
  cuda::Context ctx(arch::gtx480());
  const auto d_out = ctx.malloc(256);
  auto ck = ctx.compile(spin_kernel(1 << 20));
  sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {32, 1, 1};
  try {
    (void)ctx.launch(ck, cfg, {{sim::KernelArg::ptr(d_out)}});
    ::unsetenv("GPC_WATCHDOG");
    FAIL() << "expected DeviceFault";
  } catch (const DeviceFault& e) {
    ::unsetenv("GPC_WATCHDOG");
    EXPECT_NE(std::string(e.what()).find("instruction budget"),
              std::string::npos)
        << e.what();
  }
  EXPECT_GT(resil::counters().watchdog_trips.load(), trips_before);
}

// ---------------------------------------------------------------------------
// Policy: parsing, backoff determinism, retry semantics

TEST_F(ResilTest, PolicyParsesEnvKnobs) {
  ::setenv("GPC_RETRY", "3:10:5", 1);
  ::setenv("GPC_DEGRADE", "1", 1);
  ::setenv("GPC_WATCHDOG", "5000", 1);
  const resil::Policy p = resil::policy_from_env();
  EXPECT_EQ(p.max_retries, 3);
  EXPECT_DOUBLE_EQ(p.backoff_base_us, 10.0);
  EXPECT_EQ(p.jitter_seed, 5u);
  EXPECT_TRUE(p.degrade);
  EXPECT_EQ(p.watchdog_budget, 5000u);
  ::setenv("GPC_DEGRADE", "0", 1);
  EXPECT_FALSE(resil::policy_from_env().degrade);
  // A malformed value fails loudly instead of running with a policy nobody
  // asked for.
  ::setenv("GPC_RETRY", "banana", 1);
  EXPECT_THROW((void)resil::policy_from_env(), InvalidArgument);
  clean();
}

TEST_F(ResilTest, PolicyOverrideWinsOverEnv) {
  ::setenv("GPC_RETRY", "1", 1);
  resil::Policy p;
  p.max_retries = 7;
  resil::set_policy_override(p);
  EXPECT_EQ(resil::active_policy().max_retries, 7);
  resil::set_policy_override(std::nullopt);
  EXPECT_EQ(resil::active_policy().max_retries, 1);
  clean();
}

TEST_F(ResilTest, BackoffIsDeterministicAndJitterBounded) {
  resil::Policy p;
  p.backoff_base_us = 100;
  p.jitter_seed = 9;
  for (int attempt = 0; attempt < 6; ++attempt) {
    const double us = resil::backoff_us(p, attempt, 0x33);
    EXPECT_DOUBLE_EQ(us, resil::backoff_us(p, attempt, 0x33));
    const double nominal = 100.0 * static_cast<double>(1ull << attempt);
    EXPECT_GE(us, 0.5 * nominal);
    EXPECT_LE(us, 1.5 * nominal);
    // Distinct salts draw distinct jitter streams.
    EXPECT_NE(us, resil::backoff_us(p, attempt, 0x11));
  }
}

TEST_F(ResilTest, SessionRetriesRecoverTransientLaunchFault) {
  arm(resil::Site::Enqueue, 1.0, 31, 0, 1);
  harness::DeviceSession s(arch::gtx480(), Toolchain::Cuda);
  resil::Policy p;
  p.max_retries = 2;
  p.backoff_base_us = 1;
  s.set_policy(p);
  const auto d_in = s.alloc(256), d_out = s.alloc(256);
  auto ck = s.compile(copy_kernel());
  ASSERT_NO_THROW((void)s.launch(ck, {2, 1, 1}, {32, 1, 1},
                                 {{sim::KernelArg::ptr(d_in),
                                   sim::KernelArg::ptr(d_out)}}));
  EXPECT_EQ(s.retries(), 1);
  EXPECT_EQ(s.degraded_events(), 0);  // full-fidelity recovery is not DEG
  EXPECT_GE(resil::counters().retries.load(), 1u);
}

TEST_F(ResilTest, SessionRetryBudgetExhaustedRethrows) {
  arm(resil::Site::Enqueue, 1.0, 31);  // unlimited: every attempt fails
  harness::DeviceSession s(arch::gtx480(), Toolchain::Cuda);
  resil::Policy p;
  p.max_retries = 2;
  p.backoff_base_us = 1;
  s.set_policy(p);
  const auto d_in = s.alloc(256), d_out = s.alloc(256);
  auto ck = s.compile(copy_kernel());
  EXPECT_THROW((void)s.launch(ck, {2, 1, 1}, {32, 1, 1},
                              {{sim::KernelArg::ptr(d_in),
                                sim::KernelArg::ptr(d_out)}}),
               OutOfResources);
  EXPECT_EQ(s.retries(), 2);
}

TEST_P(ResilRuntimeTest, SessionRetriesRecoverBuildAndMemcpyFaults) {
  arm(resil::Site::Build, 1.0, 37, 0, 1);
  arm(resil::Site::Memcpy, 1.0, 37, 0, 1);
  harness::DeviceSession s(arch::gtx480(), GetParam());
  resil::Policy p;
  p.max_retries = 2;
  p.backoff_base_us = 1;
  s.set_policy(p);
  ASSERT_NO_THROW((void)s.compile(copy_kernel()));
  const auto d = s.alloc(256);
  std::vector<std::int32_t> host(64, 5);
  ASSERT_NO_THROW(s.write(d, host.data(), 256));
  EXPECT_EQ(s.retries(), 2);  // one build retry + one memcpy retry
}

// ---------------------------------------------------------------------------
// Degradation: split launches and degraded execution

TEST_F(ResilTest, SplitLaunchMatchesFullLaunchBitForBit) {
  const int grid = 8, block = 32, n = grid * block;
  auto run = [&](bool inject) {
    resil::plan().reset();
    if (inject) {
      // One injected OOR, no retries: launch_resilient goes straight to the
      // split path; the two half-grids then run clean (count=1 is spent).
      arm(resil::Site::Enqueue, 1.0, 41, 0, 1);
    }
    harness::DeviceSession s(arch::gtx480(), Toolchain::Cuda);
    resil::Policy p;
    p.max_retries = 0;
    p.degrade = true;
    s.set_policy(p);
    const auto d_out = s.alloc(static_cast<std::size_t>(n) * 4);
    auto ck = s.compile(grid_probe_kernel());
    (void)s.launch(ck, {grid, 1, 1}, {block, 1, 1},
                   {{sim::KernelArg::ptr(d_out)}});
    std::vector<std::int32_t> out(n);
    s.download(d_out, std::span<std::int32_t>(out));
    EXPECT_EQ(s.degraded_events(), inject ? 1 : 0);
    return out;
  };
  const auto full = run(false);
  const auto split = run(true);
  // Sub-launches observe offset ctaid and the logical nctaid, so the split
  // result is indistinguishable from the one-launch result.
  EXPECT_EQ(full, split);
  for (int b = 0; b < grid; ++b) {
    EXPECT_EQ(full[static_cast<std::size_t>(b) * block], b * 1000 + grid);
  }
  EXPECT_GE(resil::counters().split_launches.load(), 1u);
}

TEST_F(ResilTest, DegradedExecCompletesStructuralOverflowWhenAllowed) {
  harness::DeviceSession s(arch::gtx480(), Toolchain::Cuda);
  resil::Policy p;
  p.degrade = true;
  s.set_policy(p);
  const auto d_out = s.alloc(static_cast<std::size_t>(32) * 4);
  auto ck = s.compile(shared_hog_kernel());
  std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(d_out)};
  // Structural OOR + degradation allowed but degraded exec not: throw.
  EXPECT_THROW((void)s.launch(ck, {1, 1, 1}, {32, 1, 1}, args),
               OutOfResources);
  // The benchmark layer's last resort: degraded execution completes it.
  s.set_allow_degraded_exec(true);
  ASSERT_NO_THROW((void)s.launch(ck, {1, 1, 1}, {32, 1, 1}, args));
  EXPECT_GT(s.degraded_events(), 0);
  EXPECT_TRUE(s.totals().last_occupancy.degraded);
  EXPECT_STREQ(s.totals().last_occupancy.limiter, "degraded");
  // Functionally intact: the shared-staged identity still comes out right.
  std::vector<std::int32_t> out(32);
  s.download(d_out, std::span<std::int32_t>(out));
  for (int i = 0; i < 32; ++i) EXPECT_EQ(out[i], i);
}

TEST_F(ResilTest, WatchdogEnvArmsStepBudget) {
  ::setenv("GPC_WATCHDOG", "1000", 1);
  harness::DeviceSession s(arch::gtx480(), Toolchain::Cuda);
  const auto d_out = s.alloc(256);
  auto ck = s.compile(spin_kernel(1 << 20));
  try {
    (void)s.launch(ck, {1, 1, 1}, {32, 1, 1}, {{sim::KernelArg::ptr(d_out)}});
    clean();
    FAIL() << "expected DeviceFault";
  } catch (const DeviceFault& e) {
    clean();
    EXPECT_NE(std::string(e.what()).find("instruction budget"),
              std::string::npos)
        << e.what();
  }
  // Without the watchdog the same kernel completes (built-in budget 2^33).
  harness::DeviceSession s2(arch::gtx480(), Toolchain::Cuda);
  const auto d2 = s2.alloc(256);
  auto ck2 = s2.compile(spin_kernel(1 << 20));
  EXPECT_NO_THROW(
      (void)s2.launch(ck2, {1, 1, 1}, {32, 1, 1}, {{sim::KernelArg::ptr(d2)}}));
}

// ---------------------------------------------------------------------------
// Benchmark-layer outcomes: DEG for the paper's Cell/BE ABTs, FL quarantine

TEST_F(ResilTest, CellBenchmarksCompleteAsDegWithDegradationOn) {
  bench::Options opts;
  opts.scale = 0.25;
  resil::Policy p;
  p.degrade = true;
  p.backoff_base_us = 1;
  resil::set_policy_override(p);
  for (const char* name : {"FFT", "DXTC", "RdxS", "STNW"}) {
    const auto& b = bench::benchmark_by_name(name);
    const auto r = b.run(arch::cellbe(), Toolchain::OpenCl, opts);
    EXPECT_EQ(r.status, "DEG") << name << " should degrade, not " << r.status;
    EXPECT_FALSE(r.ok()) << "DEG must stay out of PR aggregates";
  }
  EXPECT_GT(resil::counters().degraded_launches.load() +
                resil::counters().split_launches.load(),
            0u);
}

TEST_F(ResilTest, CellBenchmarksStayAbtWithDegradationOff) {
  bench::Options opts;
  opts.scale = 0.25;
  const auto r = bench::benchmark_by_name("FFT").run(arch::cellbe(),
                                                     Toolchain::OpenCl, opts);
  EXPECT_EQ(r.status, "ABT");
}

TEST_F(ResilTest, WrongResultsAreQuarantinedAsFl) {
  bench::Options opts;
  opts.scale = 0.25;
  const auto before = resil::counters().quarantined.load();
  const auto r = bench::benchmark_by_name("RdxS").run(arch::hd5870(),
                                                      Toolchain::OpenCl, opts);
  EXPECT_EQ(r.status, "FL");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.value, 0.0);  // quarantined: no value enters aggregates
  EXPECT_GT(resil::counters().quarantined.load(), before);
}

// ---------------------------------------------------------------------------
// Mini chaos: one benchmark under seeded injection replays identically

TEST_F(ResilTest, MiniChaosRunReplaysIdentically) {
  resil::Policy p;
  p.max_retries = 3;
  p.backoff_base_us = 1;
  p.degrade = true;
  resil::set_policy_override(p);
  bench::Options opts;
  opts.scale = 0.25;
  auto run_once = [&] {
    resil::plan().reset();
    arm(resil::Site::Enqueue, 0.2, 1001);
    arm(resil::Site::MidGrid, 0.1, 1002);
    arm(resil::Site::Memcpy, 0.2, 1003, 0, 4);
    return bench::benchmark_by_name("BFS").run(arch::gtx480(),
                                               Toolchain::Cuda, opts);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.status, b.status);
  EXPECT_DOUBLE_EQ(a.value, b.value);
  EXPECT_EQ(a.launches, b.launches);
}

}  // namespace
}  // namespace gpc
