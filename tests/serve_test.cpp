// gpc::serve tests: submit/complete/readback through both front-ends, the
// content-addressed compiled-kernel cache (second submission of the same
// AST + front-end + device never recompiles), bounded admission (queue-full
// SHED), deadline handling (pre-dequeue shed and the deadline->step-budget
// watchdog abort), the per-device circuit breaker state machine, per-job
// thread-local fault plans, gpc::virt quota pressure, and exactly-once
// completion accounting through shutdown. Labelled "serve" in ctest and run under ThreadSanitizer
// by tools/run_tsan.sh — the queue handoff and completion latch must be
// clean.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/device_spec.h"
#include "common/error.h"
#include "harness/session.h"
#include "kernel/builder.h"
#include "resil/fault.h"
#include "resil/policy.h"
#include "serve/cache.h"
#include "serve/serve.h"
#include "virt/virt.h"

namespace gpc {
namespace {

using arch::Toolchain;
using kernel::KernelBuilder;
using kernel::KernelDef;
using kernel::Unroll;
using kernel::Val;
using kernel::Var;

// One sim worker by default; an explicit GPC_SIM_THREADS (the ctest
// determinism matrix) is kept (same rationale as virt_test.cpp).
const bool g_single_threaded = [] {
  ::setenv("GPC_SIM_THREADS", "1", /*overwrite=*/0);
  return true;
}();

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override { clean(); }
  void TearDown() override { clean(); }

  static void clean() {
    resil::FaultPlan::instance().reset();
    resil::reset_counters();
    resil::set_policy_override(std::nullopt);
    ::unsetenv("GPC_RETRY");
    ::unsetenv("GPC_DEGRADE");
    ::unsetenv("GPC_WATCHDOG");
  }
};

std::shared_ptr<const KernelDef> copy_kernel(const std::string& name = "copy1") {
  KernelBuilder kb(name);
  auto in = kb.ptr_param("in", ir::Type::S32);
  auto out = kb.ptr_param("out", ir::Type::S32);
  kb.st(out, kb.global_id_x(), kb.ld(in, kb.global_id_x()));
  return std::make_shared<KernelDef>(kb.finish());
}

std::shared_ptr<const KernelDef> scale_kernel(int factor) {
  KernelBuilder kb("scale");
  auto in = kb.ptr_param("in", ir::Type::S32);
  auto out = kb.ptr_param("out", ir::Type::S32);
  kb.st(out, kb.global_id_x(), kb.ld(in, kb.global_id_x()) * kb.c32(factor));
  return std::make_shared<KernelDef>(kb.finish());
}

std::shared_ptr<const KernelDef> spin_kernel(int iters) {
  KernelBuilder kb("spin");
  auto out = kb.ptr_param("out", ir::Type::S32);
  Var acc = kb.var_s32("acc");
  kb.set(acc, kb.c32(0));
  Var i = kb.var_s32("i");
  kb.for_(i, 0, kb.c32(iters), 1, Unroll::none(),
          [&] { kb.set(acc, Val(acc) + Val(i)); });
  kb.st(out, kb.c32(0), acc);
  return std::make_shared<KernelDef>(kb.finish());
}

std::vector<unsigned char> s32_bytes(const std::vector<std::int32_t>& v) {
  std::vector<unsigned char> out(v.size() * sizeof(std::int32_t));
  std::memcpy(out.data(), v.data(), out.size());
  return out;
}

std::vector<std::int32_t> s32_values(const std::vector<unsigned char>& bytes) {
  std::vector<std::int32_t> out(bytes.size() / sizeof(std::int32_t));
  std::memcpy(out.data(), bytes.data(), bytes.size());
  return out;
}

/// A ready-to-submit copy job over `n` elements with input i -> i * 3.
serve::JobSpec copy_job(const std::shared_ptr<const KernelDef>& k, int n,
                        Toolchain tc = Toolchain::Cuda) {
  std::vector<std::int32_t> in(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) in[static_cast<std::size_t>(i)] = i * 3;
  serve::JobSpec job;
  job.kernel = k;
  job.device = &arch::gtx480();
  job.toolchain = tc;
  job.grid = {std::max(1, n / 32), 1, 1};
  job.block = {32, 1, 1};
  job.args.push_back(serve::JobArg::buffer(s32_bytes(in), /*readback=*/false));
  job.args.push_back(serve::JobArg::buffer(
      s32_bytes(std::vector<std::int32_t>(static_cast<std::size_t>(n), 0)),
      /*readback=*/true));
  return job;
}

std::unique_ptr<resil::FaultPlan> plan_with(resil::Site site, double p,
                                            std::uint64_t seed,
                                            std::uint64_t count =
                                                ~std::uint64_t{0}) {
  auto plan = std::make_unique<resil::FaultPlan>();
  resil::SiteSpec s;
  s.enabled = true;
  s.probability = p;
  s.seed = seed;
  s.count = count;
  plan->set(site, s);
  return plan;
}

// ---------------------------------------------------------------------------
// Submit / complete / readback

TEST_F(ServeTest, MalformedPerLaunchVariablesFailTheServerNotTheJobs) {
  // A configuration error is the caller's, not a job outcome: the server
  // refuses to start instead of classifying every job ABT.
  for (const char* var : {"GPC_AIWC", "GPC_SIM_SANITIZE"}) {
    SCOPED_TRACE(var);
    ::setenv(var, "yes", 1);
    try {
      serve::Server server;
      ADD_FAILURE() << "server started with " << var << "=yes";
    } catch (const InvalidArgument& e) {
      const std::string msg = e.what();
      EXPECT_EQ(msg.rfind(std::string(var) + ": bad value", 0), 0u) << msg;
    }
    ::unsetenv(var);
  }
}

TEST_F(ServeTest, SubmitCompletesWithReadback) {
  serve::ServeConfig cfg;
  cfg.workers = 2;
  serve::Server server(cfg);
  const auto k = copy_kernel();
  serve::JobHandle h = server.submit(copy_job(k, 64));
  ASSERT_TRUE(h.valid());
  const serve::Completion& c = h.wait();
  EXPECT_EQ(c.cls, serve::JobClass::Ok);
  EXPECT_EQ(c.status, "OK");
  EXPECT_TRUE(c.detail.empty());
  ASSERT_EQ(c.outputs.size(), 1u);
  const std::vector<std::int32_t> out = s32_values(c.outputs[0]);
  ASSERT_EQ(out.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * 3);
  EXPECT_GT(c.result.stats.total.mem_issues, 0u);
  server.shutdown();
  const serve::Server::Stats s = server.stats();
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.ok, 1u);
}

TEST_F(ServeTest, ServesBothFrontEnds) {
  serve::ServeConfig cfg;
  cfg.workers = 1;
  serve::Server server(cfg);
  const auto k = copy_kernel();
  serve::JobHandle cu = server.submit(copy_job(k, 32, Toolchain::Cuda));
  serve::JobSpec ocl_job = copy_job(k, 32, Toolchain::OpenCl);
  ocl_job.device = &arch::hd5870();
  serve::JobHandle cl = server.submit(std::move(ocl_job));
  EXPECT_EQ(cu.wait().cls, serve::JobClass::Ok);
  EXPECT_EQ(cl.wait().cls, serve::JobClass::Ok);
  // Results are the direct-session results, bit for bit.
  EXPECT_EQ(s32_values(cu.wait().outputs[0]), s32_values(cl.wait().outputs[0]));
}

// Each of 32 threads reads the word `past` elements beyond the end of its
// 32-element `out` (past the session's bump pointer), reports it in
// out[tid], then stores a marker there.
std::shared_ptr<const KernelDef> stray_store_kernel(int past) {
  KernelBuilder kb("stray_store");
  auto out = kb.ptr_param("out", ir::Type::S32);
  Val stray = kb.tid_x() + (32 + past);
  Var seen = kb.var_s32("seen");
  kb.set(seen, kb.ld(out, stray));
  kb.st(out, stray, kb.c32(0x5eed));
  kb.st(out, kb.tid_x(), seen);
  return std::make_shared<KernelDef>(kb.finish());
}

TEST_F(ServeTest, StoresPastAJobsBuffersDoNotLeakIntoTheNextJob) {
  // One worker, so job B runs on the session job A dirtied, at the same
  // addresses: the per-job reset must have zeroed A's stray stores.
  serve::ServeConfig cfg;
  cfg.workers = 1;
  serve::Server server(cfg);
  const auto k = stray_store_kernel(4096);
  for (Toolchain tc : {Toolchain::Cuda, Toolchain::OpenCl}) {
    for (int job = 0; job < 2; ++job) {
      serve::JobSpec spec;
      spec.kernel = k;
      spec.device = &arch::gtx480();
      spec.toolchain = tc;
      spec.grid = {1, 1, 1};
      spec.block = {32, 1, 1};
      spec.args.push_back(serve::JobArg::buffer(
          s32_bytes(std::vector<std::int32_t>(32, -1)), /*readback=*/true));
      const serve::JobHandle h = server.submit(std::move(spec));
      const serve::Completion& c = h.wait();
      ASSERT_EQ(c.cls, serve::JobClass::Ok) << c.detail;
      EXPECT_EQ(s32_values(c.outputs[0]), std::vector<std::int32_t>(32, 0))
          << "job " << job;
    }
  }
  server.shutdown();
  EXPECT_EQ(server.stats().ok, 4u);
}

TEST_F(ServeTest, MalformedJobsAreRejectedNotShed) {
  serve::ServeConfig cfg;
  cfg.workers = 1;
  serve::Server server(cfg);
  serve::JobSpec job;  // no kernel / device
  EXPECT_THROW(server.submit(std::move(job)), InvalidArgument);
  serve::JobSpec tenant_job = copy_job(copy_kernel(), 32);
  tenant_job.tenant = 0;  // no attach_virt
  EXPECT_THROW(server.submit(std::move(tenant_job)), InvalidArgument);
  EXPECT_EQ(server.stats().completed, 0u);
}

TEST_F(ServeTest, OnCompleteCallbackFiresExactlyOnce) {
  serve::ServeConfig cfg;
  cfg.workers = 2;
  serve::Server server(cfg);
  std::atomic<int> calls{0};
  const auto k = copy_kernel();
  constexpr int kJobs = 16;
  std::vector<serve::JobHandle> handles;
  for (int i = 0; i < kJobs; ++i) {
    serve::JobSpec job = copy_job(k, 32);
    job.on_complete = [&](const serve::Completion&) {
      calls.fetch_add(1, std::memory_order_relaxed);
    };
    handles.push_back(server.submit(std::move(job)));
  }
  server.drain();
  EXPECT_EQ(calls.load(), kJobs);
  for (const auto& h : handles) EXPECT_TRUE(h.done());
}

// ---------------------------------------------------------------------------
// Compiled-kernel cache

TEST_F(ServeTest, AstHashIsStructural) {
  const auto a = copy_kernel();
  const auto b = copy_kernel();  // built independently, same structure
  EXPECT_EQ(serve::ast_hash(*a), serve::ast_hash(*b));
  EXPECT_NE(serve::ast_hash(*a), serve::ast_hash(*scale_kernel(2)));
  // Same structure, different literal -> different code -> different hash.
  EXPECT_NE(serve::ast_hash(*scale_kernel(2)), serve::ast_hash(*scale_kernel(3)));
  // The kernel's name names the compiled artefact and enters the hash.
  EXPECT_NE(serve::ast_hash(*copy_kernel("copy1")),
            serve::ast_hash(*copy_kernel("copy2")));
}

TEST_F(ServeTest, SecondSubmissionNeverRecompiles) {
  serve::ServeConfig cfg;
  cfg.workers = 1;  // serialized, so hit/miss attribution is deterministic
  serve::Server server(cfg);
  const auto k = copy_kernel();

  const serve::JobHandle h1 = server.submit(copy_job(k, 32));
  const serve::Completion& first = h1.wait();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(server.cache_stats().misses, 1u);
  EXPECT_EQ(server.cache_stats().hits, 0u);

  // Same AST + front-end + device: MUST be a cache hit, no recompile.
  const serve::JobHandle h2 = server.submit(copy_job(k, 32));
  const serve::Completion& second = h2.wait();
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(server.cache_stats().misses, 1u);
  EXPECT_EQ(server.cache_stats().hits, 1u);

  // A structurally identical def built by a different client also hits.
  const serve::JobHandle h3 = server.submit(copy_job(copy_kernel(), 32));
  EXPECT_TRUE(h3.wait().cache_hit);
  EXPECT_EQ(server.cache_stats().misses, 1u);

  // Same AST through the other front-end: distinct compiled artefact.
  serve::JobSpec ocl_job = copy_job(k, 32, Toolchain::OpenCl);
  ocl_job.device = &arch::hd5870();
  const serve::JobHandle h4 = server.submit(std::move(ocl_job));
  EXPECT_FALSE(h4.wait().cache_hit);
  EXPECT_EQ(server.cache_stats().misses, 2u);

  // Cached results are the same results: outputs bit-identical.
  EXPECT_EQ(s32_values(first.outputs[0]), s32_values(second.outputs[0]));
  const serve::Server::Stats s = server.stats();
  EXPECT_EQ(s.cache_hits, 2u);
  EXPECT_EQ(s.cache_misses, 2u);
}

// ---------------------------------------------------------------------------
// Bounded admission + deadlines

TEST_F(ServeTest, QueueFullShedsInsteadOfBlocking) {
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.shards = 1;
  cfg.queue_cap = 2;
  serve::Server server(cfg);
  server.pause();
  // Let the worker observe the pause before we fill the queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const auto k = copy_kernel();
  serve::JobHandle a = server.submit(copy_job(k, 32));
  serve::JobHandle b = server.submit(copy_job(k, 32));
  serve::JobHandle c = server.submit(copy_job(k, 32));  // over capacity
  ASSERT_TRUE(c.done());  // shed synchronously on the submitting thread
  EXPECT_EQ(c.wait().cls, serve::JobClass::Shed);
  EXPECT_NE(c.wait().detail.find("admission rejected"), std::string::npos);
  server.resume();
  EXPECT_EQ(a.wait().cls, serve::JobClass::Ok);
  EXPECT_EQ(b.wait().cls, serve::JobClass::Ok);
  server.shutdown();
  const serve::Server::Stats s = server.stats();
  EXPECT_EQ(s.submitted, 3u);
  EXPECT_EQ(s.completed, 3u);
  EXPECT_EQ(s.ok, 2u);
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(s.max_queue_depth, 2u);
  EXPECT_EQ(resil::counters().shed.load(), 1u);
}

TEST_F(ServeTest, ExpiredDeadlineShedsBeforeExecution) {
  serve::ServeConfig cfg;
  cfg.workers = 1;
  serve::Server server(cfg);
  server.pause();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  serve::JobSpec job = copy_job(copy_kernel(), 32);
  job.deadline_ms = 0.001;  // expires while the server is paused
  serve::JobHandle h = server.submit(std::move(job));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.resume();
  const serve::Completion& c = h.wait();
  EXPECT_EQ(c.cls, serve::JobClass::Shed);
  EXPECT_NE(c.detail.find("deadline"), std::string::npos);
}

TEST_F(ServeTest, DeadlineBecomesWatchdogBudget) {
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.deadline_ms = 1000;   // generous wall-clock deadline...
  cfg.steps_per_ms = 10;    // ...but a 10k-step execution budget
  serve::Server server(cfg);
  const std::uint64_t trips_before = resil::counters().watchdog_trips.load();
  serve::JobSpec job;
  job.kernel = spin_kernel(2'000'000);
  job.device = &arch::gtx480();
  job.grid = {1, 1, 1};
  job.block = {32, 1, 1};
  job.args.push_back(serve::JobArg::buffer(
      s32_bytes(std::vector<std::int32_t>(32, 0)), /*readback=*/false));
  const serve::JobHandle h = server.submit(std::move(job));
  // The over-budget kernel terminates as a classified DeviceFault abort,
  // not a wall-clock stall.
  EXPECT_EQ(h.wait().cls, serve::JobClass::Abt);
  EXPECT_GT(resil::counters().watchdog_trips.load(), trips_before);
}

// ---------------------------------------------------------------------------
// Per-job fault plans + circuit breaker

TEST_F(ServeTest, ThreadPlanOverrideScopesToJob) {
  auto local = plan_with(resil::Site::Build, 1.0, 7);
  EXPECT_FALSE(resil::armed());
  {
    resil::ThreadPlanScope scope(local.get());
    EXPECT_TRUE(resil::armed());
    EXPECT_TRUE(resil::sample(resil::Site::Build, "x").has_value());
    EXPECT_EQ(local->injections(resil::Site::Build), 1u);
  }
  EXPECT_FALSE(resil::armed());
  // The process-wide plan never saw the sample.
  EXPECT_EQ(resil::FaultPlan::instance().calls(resil::Site::Build), 0u);
}

TEST_F(ServeTest, PerJobFaultPlanIsDeterministic) {
  serve::ServeConfig cfg;
  cfg.workers = 2;
  serve::Server server(cfg);
  const auto k = copy_kernel();
  // A faulted job aborts; its neighbours (no plan) are untouched.
  serve::JobSpec bad = copy_job(k, 32);
  bad.fault_plan = plan_with(resil::Site::MidGrid, 1.0, 42);
  serve::JobHandle hb = server.submit(std::move(bad));
  serve::JobHandle ok1 = server.submit(copy_job(k, 32));
  serve::JobHandle ok2 = server.submit(copy_job(k, 32));
  const serve::Completion& cb = hb.wait();
  EXPECT_EQ(cb.cls, serve::JobClass::Abt);
  EXPECT_NE(cb.detail.find("midgrid"), std::string::npos);
  EXPECT_EQ(ok1.wait().cls, serve::JobClass::Ok);
  EXPECT_EQ(ok2.wait().cls, serve::JobClass::Ok);
}

TEST_F(ServeTest, BreakerTripsOpensAndSheds) {
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.breaker = 2;
  cfg.breaker_cooldown_ms = 60'000;  // stays open for the rest of the test
  serve::Server server(cfg);
  const auto k = copy_kernel();
  for (int i = 0; i < 2; ++i) {
    serve::JobSpec bad = copy_job(k, 32);
    bad.fault_plan = plan_with(resil::Site::MidGrid, 1.0, 42 + i);
    EXPECT_EQ(server.submit(std::move(bad)).wait().cls, serve::JobClass::Abt);
  }
  // Two consecutive DeviceFaults tripped the breaker: healthy jobs for the
  // same device are now shed during the cooldown.
  const serve::JobHandle hshed = server.submit(copy_job(k, 32));
  EXPECT_EQ(hshed.wait().cls, serve::JobClass::Shed);
  EXPECT_NE(hshed.wait().detail.find("circuit breaker open"),
            std::string::npos);
  const serve::Server::Stats s = server.stats();
  EXPECT_EQ(s.breaker_trips, 1u);
  EXPECT_EQ(s.abt, 2u);
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(resil::counters().breaker_trips.load(), 1u);
}

TEST_F(ServeTest, BreakerHalfOpenProbeClosesOnSuccess) {
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.breaker = 1;
  cfg.breaker_cooldown_ms = 0;  // next admission is immediately the probe
  serve::Server server(cfg);
  const auto k = copy_kernel();
  serve::JobSpec bad = copy_job(k, 32);
  bad.fault_plan = plan_with(resil::Site::MidGrid, 1.0, 9);
  EXPECT_EQ(server.submit(std::move(bad)).wait().cls, serve::JobClass::Abt);
  EXPECT_EQ(server.stats().breaker_trips, 1u);
  // Cooldown elapsed: the next job is the HalfOpen probe; its success
  // closes the breaker and normal service resumes.
  EXPECT_EQ(server.submit(copy_job(k, 32)).wait().cls, serve::JobClass::Ok);
  EXPECT_EQ(server.submit(copy_job(k, 32)).wait().cls, serve::JobClass::Ok);
  EXPECT_EQ(server.stats().breaker_trips, 1u);
}

TEST_F(ServeTest, BreakerFailedProbeReopens) {
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.breaker = 1;
  cfg.breaker_cooldown_ms = 0;
  serve::Server server(cfg);
  const auto k = copy_kernel();
  for (int i = 0; i < 2; ++i) {
    serve::JobSpec bad = copy_job(k, 32);
    bad.fault_plan = plan_with(resil::Site::MidGrid, 1.0, 100 + i);
    EXPECT_EQ(server.submit(std::move(bad)).wait().cls, serve::JobClass::Abt);
  }
  // First job tripped the breaker; the second was the HalfOpen probe and
  // its DeviceFault re-opened it — two trips total.
  EXPECT_EQ(server.stats().breaker_trips, 2u);
}

// ---------------------------------------------------------------------------
// gpc::virt quota pressure

TEST_F(ServeTest, TenantQuotaPressureDegradesGracefully) {
  virt::VirtConfig vcfg;
  vcfg.tenants = 2;
  vcfg.quota_bytes = std::size_t{1} << 20;  // 1 MiB per tenant
  vcfg.phys_bytes = std::size_t{16} << 20;
  virt::VirtualDeviceManager mgr(vcfg);
  serve::ServeConfig cfg;
  cfg.workers = 1;
  serve::Server server(cfg);
  server.attach_virt(&mgr);

  // Over-quota tenant job: classified ABT, never a crash or a hang.
  serve::JobSpec big = copy_job(copy_kernel(), 32);
  big.tenant = 0;
  big.args[0] = serve::JobArg::buffer(
      std::vector<unsigned char>(std::size_t{2} << 20, 0xAB), false);
  const serve::JobHandle hb = server.submit(std::move(big));
  EXPECT_EQ(hb.wait().cls, serve::JobClass::Abt);

  // The neighbour tenant is unaffected.
  serve::JobSpec small = copy_job(copy_kernel(), 32);
  small.tenant = 1;
  const serve::JobHandle hs = server.submit(std::move(small));
  EXPECT_EQ(hs.wait().cls, serve::JobClass::Ok);

  // Out-of-range tenant id is a submit-time InvalidArgument.
  serve::JobSpec bad = copy_job(copy_kernel(), 32);
  bad.tenant = 7;
  EXPECT_THROW(server.submit(std::move(bad)), InvalidArgument);
  server.shutdown();
}

// ---------------------------------------------------------------------------
// Exactly-once accounting through shutdown + concurrency

TEST_F(ServeTest, ShutdownAccountsEveryJobExactlyOnce) {
  serve::ServeConfig cfg;
  cfg.workers = 2;
  cfg.shards = 2;
  serve::Server server(cfg);
  const auto k = copy_kernel();
  std::vector<serve::JobHandle> handles;
  for (int i = 0; i < 24; ++i) handles.push_back(server.submit(copy_job(k, 32)));
  server.shutdown();
  for (const auto& h : handles) EXPECT_TRUE(h.done());
  const serve::Server::Stats s = server.stats();
  EXPECT_EQ(s.submitted, 24u);
  EXPECT_EQ(s.completed, 24u);
  EXPECT_EQ(s.ok + s.deg + s.abt + s.shed, 24u);
  // Submits after shutdown shed immediately — still exactly one completion.
  serve::JobHandle late = server.submit(copy_job(k, 32));
  EXPECT_EQ(late.wait().cls, serve::JobClass::Shed);
  EXPECT_NE(late.wait().detail.find("shut down"), std::string::npos);
  EXPECT_EQ(server.stats().completed, 25u);
}

TEST_F(ServeTest, ConcurrentMixedLoadCompletesEverything) {
  serve::ServeConfig cfg;
  cfg.workers = 4;
  cfg.shards = 2;
  cfg.batch = 4;
  serve::Server server(cfg);
  const auto copy = copy_kernel();
  const auto scale = scale_kernel(5);
  constexpr int kJobs = 96;
  std::vector<serve::JobHandle> handles;
  handles.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    serve::JobSpec job = copy_job(i % 2 == 0 ? copy : scale, 32);
    handles.push_back(server.submit(std::move(job)));
  }
  server.drain();
  for (int i = 0; i < kJobs; ++i) {
    const serve::Completion& c = handles[static_cast<std::size_t>(i)].wait();
    ASSERT_EQ(c.cls, serve::JobClass::Ok) << c.detail;
    const std::vector<std::int32_t> out = s32_values(c.outputs[0]);
    const int factor = i % 2 == 0 ? 1 : 5;
    for (int j = 0; j < 32; ++j) {
      ASSERT_EQ(out[static_cast<std::size_t>(j)], j * 3 * factor);
    }
  }
  server.shutdown();
  const serve::Server::Stats s = server.stats();
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(s.ok, static_cast<std::uint64_t>(kJobs));
  // Exactly one compile per distinct (AST, front-end, device).
  EXPECT_EQ(s.cache_misses, 2u);
  EXPECT_EQ(s.cache_hits, static_cast<std::uint64_t>(kJobs) - 2u);
  EXPECT_GE(s.batches, 1u);
  EXPECT_EQ(s.batched_jobs, static_cast<std::uint64_t>(kJobs));
}

}  // namespace
}  // namespace gpc
