// Harness-layer tests: DeviceSession over both APIs, the fairness audit,
// the auto-tuner, and metric/PR semantics.
#include <gtest/gtest.h>

#include "arch/device_spec.h"
#include "bench_kernels/registry.h"
#include "common/error.h"
#include "harness/benchmark.h"
#include "harness/fairness.h"
#include "harness/session.h"
#include "kernel/builder.h"
#include "tuner/autotuner.h"

namespace gpc {
namespace {

using kernel::KernelBuilder;
using kernel::Val;

kernel::KernelDef doubler() {
  KernelBuilder kb("doubler");
  auto buf = kb.ptr_param("buf", ir::Type::S32);
  Val gid = kb.global_id_x();
  kb.st(buf, gid, kb.ld(buf, gid) * 2);
  return kb.finish();
}

class SessionBothToolchains
    : public ::testing::TestWithParam<arch::Toolchain> {};

TEST_P(SessionBothToolchains, RoundTripsDataAndRunsKernels) {
  harness::DeviceSession s(arch::gtx480(), GetParam());
  std::vector<std::int32_t> host(512);
  for (int i = 0; i < 512; ++i) host[i] = i;
  const auto d = s.upload<std::int32_t>(host);
  auto ck = s.compile(doubler());
  EXPECT_EQ(ck.toolchain, GetParam());
  std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(d)};
  s.launch(ck, {4, 1, 1}, {128, 1, 1}, args);
  std::vector<std::int32_t> got(512);
  s.download<std::int32_t>(d, got);
  for (int i = 0; i < 512; ++i) EXPECT_EQ(got[i], 2 * i);
  EXPECT_EQ(s.totals().launches, 1);
  EXPECT_GT(s.totals().kernel_s, 0.0);
  EXPECT_GT(s.totals().transfer_s, 0.0);
  s.reset_timers();
  EXPECT_EQ(s.totals().kernel_s, 0.0);
}

TEST_P(SessionBothToolchains, LaunchDecodesTheCallersKernelOnce) {
  // The decode cache fills on the caller's CompiledKernel, not on a copy,
  // so the second launch reuses it on both runtimes.
  harness::DeviceSession s(arch::gtx480(), GetParam());
  const auto d = s.alloc(128 * 4);
  auto ck = s.compile(doubler());
  ASSERT_EQ(ck.sim_cache, nullptr);
  std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(d)};
  s.launch(ck, {1, 1, 1}, {128, 1, 1}, args);
  const compiler::KernelCache* first = ck.sim_cache.get();
  ASSERT_NE(first, nullptr);
  s.launch(ck, {1, 1, 1}, {128, 1, 1}, args);
  EXPECT_EQ(ck.sim_cache.get(), first);
}

TEST_P(SessionBothToolchains, MalformedPerLaunchVariableThrowsInvalidArgument) {
  // Under OpenCL the error crosses the status-code API (CL_INVALID_KERNEL_ARGS)
  // and must come back as the same InvalidArgument, message intact.
  harness::DeviceSession s(arch::gtx480(), GetParam());
  const auto d = s.alloc(128 * 4);
  auto ck = s.compile(doubler());
  std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(d)};
  ::setenv("GPC_AIWC", "yes", 1);
  try {
    s.launch(ck, {1, 1, 1}, {128, 1, 1}, args);
    ADD_FAILURE() << "launch accepted GPC_AIWC=yes";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("GPC_AIWC: bad value 'yes'"),
              std::string::npos)
        << e.what();
  }
  ::unsetenv("GPC_AIWC");
}

TEST_P(SessionBothToolchains, OversizedKernelReportsOutOfResources) {
  // CUDA only targets NVIDIA parts; use the GTX280 there (16 KB shared) and
  // exercise the Cell/BE path under OpenCL.
  const arch::DeviceSpec& dev = GetParam() == arch::Toolchain::Cuda
                                    ? arch::gtx280()
                                    : arch::cellbe();
  harness::DeviceSession s(dev, GetParam());
  KernelBuilder kb("hog");
  auto buf = kb.ptr_param("buf", ir::Type::F32);
  auto smem = kb.shared_array("smem", ir::Type::F32, 8192);  // 32 KB
  kb.sts(smem, kb.tid_x(), kb.cf(1.0));
  kb.barrier();
  kb.st(buf, kb.tid_x(), kb.lds(smem, kb.tid_x()));
  auto ck = s.compile(kb.finish());
  const auto d = s.alloc(1024);
  std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(d)};
  EXPECT_THROW(s.launch(ck, {1, 1, 1}, {64, 1, 1}, args), OutOfResources);
}

INSTANTIATE_TEST_SUITE_P(Both, SessionBothToolchains,
                         ::testing::Values(arch::Toolchain::Cuda,
                                           arch::Toolchain::OpenCl),
                         [](const auto& info) {
                           return std::string(arch::to_string(info.param));
                         });

TEST(Session, CudaOnNonNvidiaIsRejected) {
  EXPECT_THROW(harness::DeviceSession(arch::hd5870(), arch::Toolchain::Cuda),
               InvalidArgument);
  EXPECT_NO_THROW(
      harness::DeviceSession(arch::hd5870(), arch::Toolchain::OpenCl));
}

TEST(Fairness, AuditFlagsExactlyTheDifferingSteps) {
  auto a = fairness::Configuration::for_run("MD", arch::Toolchain::Cuda,
                                            arch::gtx480(), 128, "texture");
  auto b = fairness::Configuration::for_run("MD", arch::Toolchain::OpenCl,
                                            arch::gtx480(), 128, "plain");
  const auto entries = fairness::audit(a, b);
  ASSERT_EQ(entries.size(), 8u);
  EXPECT_FALSE(fairness::is_fair(entries));
  int diffs = 0;
  for (const auto& e : entries) {
    if (!e.same) ++diffs;
  }
  // Steps 4 (native opts) and 5 (front-end) differ; everything else matches.
  EXPECT_EQ(diffs, 2);
  EXPECT_FALSE(entries[3].same);
  EXPECT_FALSE(entries[4].same);

  // Equalising step 4 leaves only the compiler difference.
  a.at(fairness::Step::NativeKernelOptimizations) = "plain";
  b.at(fairness::Step::NativeKernelOptimizations) = "plain";
  a.at(fairness::Step::FirstStageCompilation) = "same";
  b.at(fairness::Step::FirstStageCompilation) = "same";
  EXPECT_TRUE(fairness::is_fair(fairness::audit(a, b)));
}

TEST(Fairness, RolesFollowFigure9) {
  using fairness::Step;
  EXPECT_STREQ(fairness::step_role(Step::ProblemDescription), "programmer");
  EXPECT_STREQ(fairness::step_role(Step::NativeKernelOptimizations),
               "programmer");
  EXPECT_STREQ(fairness::step_role(Step::FirstStageCompilation), "compiler");
  EXPECT_STREQ(fairness::step_role(Step::SecondStageCompilation), "compiler");
  EXPECT_STREQ(fairness::step_role(Step::ProgramConfiguration), "user");
  EXPECT_STREQ(fairness::step_role(Step::RunningOnGpu), "user");
}

TEST(Tuner, CandidateSizesRespectDeviceLimits) {
  const auto c480 = tuner::candidate_workgroups(arch::gtx480());
  EXPECT_FALSE(c480.empty());
  for (int w : c480) {
    EXPECT_LE(w, arch::gtx480().max_threads_per_group);
    EXPECT_GE(w, 32);
  }
  // HD5870 caps groups at 256.
  const auto c5870 = tuner::candidate_workgroups(arch::hd5870());
  for (int w : c5870) EXPECT_LE(w, 256);
  // Wavefront-64 devices start at 64.
  EXPECT_GE(c5870.front(), 64);
}

TEST(Tuner, SweepsReduceAndNeverPicksFailingSizes) {
  bench::Options base;
  base.scale = 0.125;
  const auto rep = tuner::tune(bench::benchmark_by_name("Reduce"),
                               arch::gtx480(), arch::Toolchain::OpenCl, base);
  EXPECT_FALSE(rep.samples.empty());
  EXPECT_GT(rep.best_workgroup, 0);
  EXPECT_GT(rep.best_value, 0.0);
  EXPECT_GT(rep.improvement, 0.0);
  for (const auto& s : rep.samples) {
    if (s.workgroup == rep.best_workgroup) {
      EXPECT_EQ(s.result.status, "OK");
    }
  }
  // Best is at least as good as every verified sample.
  for (const auto& s : rep.samples) {
    if (s.result.ok()) EXPECT_GE(rep.best_value, s.result.value);
  }
}

TEST(Metrics, UnitNamesMatchTableII) {
  EXPECT_STREQ(bench::unit_name(bench::Metric::Seconds), "sec");
  EXPECT_STREQ(bench::unit_name(bench::Metric::GBps), "GB/sec");
  EXPECT_STREQ(bench::unit_name(bench::Metric::GFlops), "GFlops/sec");
  EXPECT_STREQ(bench::unit_name(bench::Metric::MElemsPerSec),
               "MElements/sec");
  EXPECT_STREQ(bench::unit_name(bench::Metric::MPixelsPerSec), "MPixels/sec");
  EXPECT_STREQ(bench::unit_name(bench::Metric::MPointsPerSec), "MPoints/sec");
  EXPECT_FALSE(bench::higher_is_better(bench::Metric::Seconds));
  EXPECT_TRUE(bench::higher_is_better(bench::Metric::GBps));
}

TEST(Registry, TableIIOrderAndLookup) {
  const auto& all = bench::real_world_benchmarks();
  ASSERT_EQ(all.size(), 14u);
  EXPECT_EQ(all.front()->name(), "BFS");
  EXPECT_EQ(all.back()->name(), "FDTD");
  EXPECT_EQ(&bench::benchmark_by_name("FFT"), all[4]);
  EXPECT_EQ(bench::benchmark_by_name("MaxFlops").name(), "MaxFlops");
  EXPECT_THROW(bench::benchmark_by_name("NoSuch"), InvalidArgument);
}

TEST(Registry, FailedResultsNeverCarryValues) {
  bench::Options o;
  o.scale = 0.125;
  const auto r = bench::benchmark_by_name("FFT").run(
      arch::cellbe(), arch::Toolchain::OpenCl, o);
  EXPECT_EQ(r.status, "ABT");
  EXPECT_EQ(r.value, 0.0);
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace gpc
