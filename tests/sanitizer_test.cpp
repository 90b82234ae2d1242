// Device-side sanitizer (racecheck / memcheck / synccheck) and fault-path
// tests: the RdxS warp-width hazards of DESIGN.md §8 must be flagged at
// wavefront 64 and on the serialising width-1 runtimes while staying silent
// at warp 32, per-allocation memcheck must catch what the whole-heap bounds
// test accepts, and kernel faults must stop the grid early and surface
// through both host APIs with their native error models.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "arch/device_spec.h"
#include "bench_kernels/kernels.h"
#include "common/error.h"
#include "compiler/pipeline.h"
#include "harness/session.h"
#include "kernel/builder.h"
#include "ocl/opencl.h"
#include "sim/launch.h"
#include "sim/memory.h"
#include "sim/sanitizer.h"

namespace gpc {
namespace {

using arch::Toolchain;
using kernel::KernelBuilder;
using kernel::KernelDef;
using kernel::Unroll;
using kernel::Val;
using kernel::Var;

sim::LaunchResult run_on(const arch::DeviceSpec& spec, const KernelDef& def,
                         Toolchain tc, sim::LaunchConfig cfg,
                         std::vector<sim::KernelArg> args,
                         sim::DeviceMemory& mem) {
  auto ck = compiler::compile(def, tc);
  const auto& rt = tc == Toolchain::Cuda ? arch::cuda_runtime()
                                         : arch::opencl_runtime();
  return sim::launch_kernel(spec, rt, ck, cfg, args, mem);
}

int count_tool(const sim::SanitizerReport& rep, sim::SanitizerTool tool) {
  int c = 0;
  for (const auto& f : rep.findings) c += (f.tool == tool);
  return c;
}

bool has_kind(const sim::SanitizerReport& rep, const std::string& kind) {
  for (const auto& f : rep.findings) {
    if (f.kind == kind) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Option parsing

TEST(SanitizeOptions, ParseSpec) {
  EXPECT_FALSE(sim::parse_sanitize_spec(nullptr).any());
  EXPECT_FALSE(sim::parse_sanitize_spec("").any());
  const auto r = sim::parse_sanitize_spec("race");
  EXPECT_TRUE(r.race);
  EXPECT_FALSE(r.mem);
  EXPECT_FALSE(r.sync);
  const auto rm = sim::parse_sanitize_spec("race,mem");
  EXPECT_TRUE(rm.race && rm.mem);
  EXPECT_FALSE(rm.sync);
  const auto all = sim::parse_sanitize_spec("all");
  EXPECT_TRUE(all.race && all.mem && all.sync);
  const auto one = sim::parse_sanitize_spec("1");
  EXPECT_TRUE(one.race && one.mem && one.sync);
  // An unknown token fails loudly, even next to known ones.
  EXPECT_THROW(sim::parse_sanitize_spec("bogus,sync"), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Racecheck on the real RdxS block-sort kernel (DESIGN.md §8)

sim::LaunchResult run_radix_block(const arch::DeviceSpec& spec,
                                  sim::SanitizeOptions san,
                                  std::vector<std::int32_t>* keys_staged) {
  const int block = 256, radix_bits = 2;
  const int digits = 1 << radix_bits;
  const int nblocks = 4, n = block * nblocks;
  auto ck = compiler::compile(
      bench::kernels::radix_block_sort(block, radix_bits),
      Toolchain::Cuda);
  sim::DeviceMemory mem(std::size_t{64} << 20);
  std::vector<std::int32_t> keys(n), vals(n);
  for (int i = 0; i < n; ++i) {
    keys[i] = (i * 37 + 11) & 255;
    vals[i] = i;
  }
  const auto d_ki = mem.alloc(static_cast<std::size_t>(n) * 4);
  mem.write(d_ki, keys.data(), static_cast<std::size_t>(n) * 4);
  const auto d_vi = mem.alloc(static_cast<std::size_t>(n) * 4);
  mem.write(d_vi, vals.data(), static_cast<std::size_t>(n) * 4);
  const auto d_ko = mem.alloc(static_cast<std::size_t>(n) * 4);
  const auto d_vo = mem.alloc(static_cast<std::size_t>(n) * 4);
  const auto d_hist =
      mem.alloc(static_cast<std::size_t>(digits) * nblocks * 4);
  const auto d_start =
      mem.alloc(static_cast<std::size_t>(nblocks) * digits * 4);
  std::vector<sim::KernelArg> args = {
      sim::KernelArg::ptr(d_ki),   sim::KernelArg::ptr(d_vi),
      sim::KernelArg::ptr(d_ko),   sim::KernelArg::ptr(d_vo),
      sim::KernelArg::ptr(d_hist), sim::KernelArg::ptr(d_start),
      sim::KernelArg::s32(0),      sim::KernelArg::s32(nblocks)};
  sim::LaunchConfig cfg;
  cfg.grid = {nblocks, 1, 1};
  cfg.block = {block, 1, 1};
  cfg.sanitize = san;
  auto r = sim::launch_kernel(spec, arch::cuda_runtime(), ck, cfg, args, mem);
  if (keys_staged != nullptr) {
    keys_staged->resize(n);
    mem.read(d_ko, keys_staged->data(), static_cast<std::size_t>(n) * 4);
  }
  return r;
}

TEST(Racecheck, FlagsRdxSLeaderFoldOnWavefront64) {
  sim::SanitizeOptions san;
  san.race = true;
  const auto r = run_radix_block(arch::hd5870(), san, nullptr);
  EXPECT_TRUE(r.sanitizer.enabled());
  // Mechanism (a): lanes 0 and 32 of one 64-wide wavefront collide on the
  // barrier-free digit_count read-modify-write in lockstep.
  EXPECT_GT(count_tool(r.sanitizer, sim::SanitizerTool::Racecheck), 0);
  EXPECT_TRUE(has_kind(r.sanitizer, "lost-update") ||
              has_kind(r.sanitizer, "write-write-conflict"))
      << r.sanitizer.to_string();
  EXPECT_FALSE(r.sanitizer.to_string().empty());
}

TEST(Racecheck, SilentOnWarp32) {
  sim::SanitizeOptions san;
  san.race = true;
  const auto r = run_radix_block(arch::gtx480(), san, nullptr);
  EXPECT_TRUE(r.sanitizer.enabled());
  // The kernel's warp-size-32 assumption holds on NVIDIA hardware: no
  // racecheck findings (Table VI "ok").
  EXPECT_EQ(count_tool(r.sanitizer, sim::SanitizerTool::Racecheck), 0)
      << r.sanitizer.to_string();
}

TEST(Racecheck, FlagsRdxSWarpScanOnSerialisingDevice) {
  sim::SanitizeOptions san;
  san.race = true;
  const auto r = run_radix_block(arch::intel920(), san, nullptr);
  // Mechanism (b): with warp_size 1 every thread runs to the barrier alone,
  // so the barrier-free Hillis-Steele warp scan reads values its assumed
  // 32-wide warp siblings produced out of lockstep order.
  EXPECT_TRUE(has_kind(r.sanitizer, "split-warp-read-after-write"))
      << r.sanitizer.to_string();
}

TEST(Racecheck, DoesNotPerturbExecution) {
  // Same launch with and without the sanitizer: bit-identical results.
  std::vector<std::int32_t> plain, checked;
  sim::SanitizeOptions san;
  san.race = true;
  san.mem = true;
  (void)run_radix_block(arch::hd5870(), {}, &plain);
  (void)run_radix_block(arch::hd5870(), san, &checked);
  EXPECT_EQ(plain, checked);
}

TEST(Racecheck, ReportEmptyAndDisabledWhenOff) {
  const auto r = run_radix_block(arch::hd5870(), {}, nullptr);
  EXPECT_FALSE(r.sanitizer.enabled());
  EXPECT_TRUE(r.sanitizer.clean());
  EXPECT_TRUE(r.sanitizer.to_string().empty());
}

// ---------------------------------------------------------------------------
// Memcheck: per-allocation bounds and uninitialised shared reads

KernelDef read_at_kernel(int index) {
  KernelBuilder kb("read_at");
  auto in = kb.ptr_param("in", ir::Type::S32);
  auto out = kb.ptr_param("out", ir::Type::S32);
  kb.st(out, kb.c32(0), kb.ld(in, kb.c32(index)));
  return kb.finish();
}

TEST(Memcheck, FlagsReadPastAllocationIntoPadding) {
  sim::DeviceMemory mem(1 << 20);
  // 260 bytes rounds up to a 512-byte slot: bytes [516, 768) after the
  // allocation are alignment padding the whole-heap check accepts.
  const auto d_in = mem.alloc(260);
  const auto d_out = mem.alloc(64);
  sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {1, 1, 1};
  cfg.sanitize.mem = true;
  // Element 66 is 4 bytes past the end of the 260-byte allocation.
  const auto r = run_on(arch::gtx480(), read_at_kernel(66), Toolchain::Cuda,
                        cfg, {sim::KernelArg::ptr(d_in),
                              sim::KernelArg::ptr(d_out)},
                        mem);
  EXPECT_TRUE(has_kind(r.sanitizer, "global-oob")) << r.sanitizer.to_string();
  const auto& f = r.sanitizer.findings.front();
  EXPECT_EQ(f.tool, sim::SanitizerTool::Memcheck);
  EXPECT_NE(f.message.find("past the end"), std::string::npos) << f.message;
}

TEST(Memcheck, FlagsNeighbouringBufferReadWithRedZone) {
  sim::DeviceMemory mem(1 << 20);
  // 256-byte allocations tile the 256-aligned heap exactly, so an overrun
  // of `a` lands INSIDE `b` and no bounds rule can object. Red zones
  // restore the gap; DeviceMemory enables them itself when
  // GPC_SIM_SANITIZE=mem is set process-wide.
  mem.set_red_zone(256);
  const auto d_a = mem.alloc(256);
  const auto d_b = mem.alloc(256);
  EXPECT_GE(d_b - d_a, std::uint64_t{512});
  sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {1, 1, 1};
  cfg.sanitize.mem = true;
  const auto r = run_on(arch::gtx480(), read_at_kernel(64), Toolchain::Cuda,
                        cfg, {sim::KernelArg::ptr(d_a),
                              sim::KernelArg::ptr(d_b)},
                        mem);
  EXPECT_TRUE(has_kind(r.sanitizer, "global-oob")) << r.sanitizer.to_string();
}

TEST(Memcheck, SilentOnInBoundsAccess) {
  sim::DeviceMemory mem(1 << 20);
  const auto d_in = mem.alloc(260);
  const auto d_out = mem.alloc(64);
  sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {1, 1, 1};
  cfg.sanitize.mem = true;
  const auto r = run_on(arch::gtx480(), read_at_kernel(64), Toolchain::Cuda,
                        cfg, {sim::KernelArg::ptr(d_in),
                              sim::KernelArg::ptr(d_out)},
                        mem);
  EXPECT_TRUE(r.sanitizer.clean()) << r.sanitizer.to_string();
}

TEST(Memcheck, FlagsUninitialisedSharedRead) {
  KernelBuilder kb("uninit_shared");
  auto out = kb.ptr_param("out", ir::Type::S32);
  auto s = kb.shared_array("s", ir::Type::S32, 32);
  kb.st(out, kb.tid_x(), kb.lds(s, kb.tid_x()));
  auto def = kb.finish();

  sim::DeviceMemory mem(1 << 20);
  const auto d_out = mem.alloc(32 * 4);
  sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {32, 1, 1};
  cfg.sanitize.mem = true;
  const auto r = run_on(arch::gtx480(), def, Toolchain::Cuda, cfg,
                        {sim::KernelArg::ptr(d_out)}, mem);
  EXPECT_TRUE(has_kind(r.sanitizer, "uninit-shared-read"))
      << r.sanitizer.to_string();
}

// ---------------------------------------------------------------------------
// Synccheck: divergent barriers report per-lane provenance

KernelDef divergent_barrier_kernel() {
  KernelBuilder kb("divergent_bar");
  auto out = kb.ptr_param("out", ir::Type::S32);
  kb.if_(kb.tid_x() < 16, [&] { kb.barrier(); });
  kb.st(out, kb.tid_x(), kb.c32(1));
  return kb.finish();
}

TEST(Synccheck, ReportsAndContinues) {
  sim::DeviceMemory mem(1 << 20);
  const auto d_out = mem.alloc(64 * 4);
  sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {64, 1, 1};
  cfg.sanitize.sync = true;
  std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(d_out)};
  sim::LaunchResult r;
  ASSERT_NO_THROW(r = run_on(arch::gtx480(), divergent_barrier_kernel(),
                             Toolchain::Cuda, cfg, args, mem));
  ASSERT_TRUE(has_kind(r.sanitizer, "divergent-barrier"))
      << r.sanitizer.to_string();
  // Per-lane provenance: who arrived, where the others were.
  const auto& f = r.sanitizer.findings.front();
  EXPECT_NE(f.message.find("arrived at the barrier"), std::string::npos)
      << f.message;
  EXPECT_NE(f.message.find("is at micro-op"), std::string::npos) << f.message;
  // Report-and-continue: every thread still ran to completion.
  std::vector<std::int32_t> out(64);
  mem.read(d_out, out.data(), out.size() * 4);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(out[i], 1) << "thread " << i;
}

TEST(Synccheck, FaultMessageCarriesProvenanceWhenOff) {
  sim::DeviceMemory mem(1 << 20);
  const auto d_out = mem.alloc(64 * 4);
  sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {64, 1, 1};
  std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(d_out)};
  try {
    (void)run_on(arch::gtx480(), divergent_barrier_kernel(), Toolchain::Cuda,
                 cfg, args, mem);
    FAIL() << "expected DeviceFault";
  } catch (const DeviceFault& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("divergent barrier"), std::string::npos) << msg;
    EXPECT_NE(msg.find("arrived at the barrier"), std::string::npos) << msg;
  }
}

// ---------------------------------------------------------------------------
// Environment enablement, end to end through the OpenCL platform API

TEST(SanitizerEnv, EnablesChecksAndPlumbsReportIntoEvent) {
  ::setenv("GPC_SIM_SANITIZE", "race", 1);
  const int block = 256, radix_bits = 2;
  const int digits = 1 << radix_bits;
  const int nblocks = 2, n = block * nblocks;
  ocl::Context ctx(arch::hd5870());
  ocl::CommandQueue q(ctx);
  ocl::Kernel k(compiler::compile(
      bench::kernels::radix_block_sort(block, radix_bits),
      Toolchain::OpenCl));
  std::vector<std::int32_t> keys(n, 3), vals(n, 0);
  auto b_ki = ctx.create_buffer(static_cast<std::size_t>(n) * 4);
  auto b_vi = ctx.create_buffer(static_cast<std::size_t>(n) * 4);
  auto b_ko = ctx.create_buffer(static_cast<std::size_t>(n) * 4);
  auto b_vo = ctx.create_buffer(static_cast<std::size_t>(n) * 4);
  auto b_hist = ctx.create_buffer(static_cast<std::size_t>(digits) *
                                  nblocks * 4);
  auto b_start = ctx.create_buffer(static_cast<std::size_t>(nblocks) *
                                   digits * 4);
  ASSERT_EQ(q.enqueue_write_buffer(b_ki, keys.data(),
                                   static_cast<std::size_t>(n) * 4),
            ocl::Status::Success);
  ASSERT_EQ(q.enqueue_write_buffer(b_vi, vals.data(),
                                   static_cast<std::size_t>(n) * 4),
            ocl::Status::Success);
  std::vector<sim::KernelArg> args = {
      sim::KernelArg::ptr(b_ki.addr),   sim::KernelArg::ptr(b_vi.addr),
      sim::KernelArg::ptr(b_ko.addr),   sim::KernelArg::ptr(b_vo.addr),
      sim::KernelArg::ptr(b_hist.addr), sim::KernelArg::ptr(b_start.addr),
      sim::KernelArg::s32(0),           sim::KernelArg::s32(nblocks)};
  ocl::Event ev;
  const ocl::Status st =
      q.enqueue_nd_range(k, {n, 1, 1}, {block, 1, 1}, args, &ev);
  ::unsetenv("GPC_SIM_SANITIZE");
  ASSERT_EQ(st, ocl::Status::Success);
  EXPECT_TRUE(ev.sanitizer.enabled());
  EXPECT_GT(count_tool(ev.sanitizer, sim::SanitizerTool::Racecheck), 0)
      << ev.sanitizer.to_string();
}

// ---------------------------------------------------------------------------
// Fault paths through both runtimes (Table VI "ABT" mechanics)

class FaultPathTest : public ::testing::TestWithParam<Toolchain> {};

KernelDef oob_global_kernel() {
  KernelBuilder kb("oob_global");
  auto out = kb.ptr_param("out", ir::Type::S32);
  // 2^28 elements = 1 GiB offset: far outside any simulated heap.
  kb.st(out, kb.c32(1 << 28), kb.c32(7));
  return kb.finish();
}

KernelDef oob_shared_kernel() {
  KernelBuilder kb("oob_shared");
  auto out = kb.ptr_param("out", ir::Type::S32);
  auto s = kb.shared_array("s", ir::Type::S32, 8);
  kb.sts(s, kb.c32(4096), kb.c32(1));
  kb.st(out, kb.c32(0), kb.lds(s, kb.c32(0)));
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

TEST_P(FaultPathTest, OutOfBoundsGlobalAccessFaults) {
  harness::DeviceSession s(arch::gtx480(), GetParam());
  const auto d_out = s.alloc(256);
  auto ck = s.compile(oob_global_kernel());
  EXPECT_THROW(
      (void)s.launch(ck, {1, 1, 1}, {1, 1, 1}, {{sim::KernelArg::ptr(d_out)}}),
      DeviceFault);
}

TEST_P(FaultPathTest, OutOfBoundsSharedAccessFaults) {
  harness::DeviceSession s(arch::gtx480(), GetParam());
  const auto d_out = s.alloc(256);
  auto ck = s.compile(oob_shared_kernel());
  EXPECT_THROW(
      (void)s.launch(ck, {1, 1, 1}, {1, 1, 1}, {{sim::KernelArg::ptr(d_out)}}),
      DeviceFault);
}

TEST_P(FaultPathTest, DivergentBarrierFaults) {
  harness::DeviceSession s(arch::gtx480(), GetParam());
  const auto d_out = s.alloc(64 * 4);
  auto ck = s.compile(divergent_barrier_kernel());
  EXPECT_THROW(
      (void)s.launch(ck, {1, 1, 1}, {64, 1, 1},
                     {{sim::KernelArg::ptr(d_out)}}),
      DeviceFault);
}

TEST_P(FaultPathTest, InstructionBudgetFaults) {
  ::setenv("GPC_WATCHDOG", "1000", 1);
  harness::DeviceSession s(arch::gtx480(), GetParam());
  const auto d_out = s.alloc(256);
  auto ck = s.compile(spin_kernel(1 << 20));
  try {
    (void)s.launch(ck, {1, 1, 1}, {32, 1, 1}, {{sim::KernelArg::ptr(d_out)}});
    ::unsetenv("GPC_WATCHDOG");
    FAIL() << "expected DeviceFault";
  } catch (const DeviceFault& e) {
    ::unsetenv("GPC_WATCHDOG");
    EXPECT_NE(std::string(e.what()).find("instruction budget"),
              std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(BothRuntimes, FaultPathTest,
                         ::testing::Values(Toolchain::Cuda,
                                           Toolchain::OpenCl),
                         [](const auto& info) {
                           return info.param == Toolchain::Cuda ? "Cuda"
                                                                : "OpenCl";
                         });

TEST(FaultPath, StepBudgetConfigurableViaLaunchConfig) {
  sim::DeviceMemory mem(1 << 20);
  const auto d_out = mem.alloc(256);
  sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {32, 1, 1};
  cfg.step_budget = 1000;
  EXPECT_THROW((void)run_on(arch::gtx480(), spin_kernel(1 << 20),
                            Toolchain::Cuda, cfg,
                            {sim::KernelArg::ptr(d_out)}, mem),
               DeviceFault);
  // A generous budget lets the same kernel finish.
  cfg.step_budget = std::uint64_t{1} << 40;
  EXPECT_NO_THROW((void)run_on(arch::gtx480(), spin_kernel(1 << 20),
                               Toolchain::Cuda, cfg,
                               {sim::KernelArg::ptr(d_out)}, mem));
}

TEST(FaultPath, OpenClSurfacesDeviceFaultStatusWithDetail) {
  ocl::Context ctx(arch::gtx480());
  ocl::CommandQueue q(ctx);
  ocl::Kernel k(compiler::compile(oob_global_kernel(), Toolchain::OpenCl));
  auto b_out = ctx.create_buffer(256);
  std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(b_out.addr)};
  const ocl::Status st = q.enqueue_nd_range(k, {1, 1, 1}, {1, 1, 1}, args);
  EXPECT_EQ(st, ocl::Status::DeviceFault);
  EXPECT_EQ(std::string(ocl::to_string(st)), "CL_DEVICE_FAULT");
  EXPECT_FALSE(q.last_error().empty());
  // A later successful enqueue clears the sticky detail.
  ocl::Kernel ok(compiler::compile(read_at_kernel(0), Toolchain::OpenCl));
  auto b_in = ctx.create_buffer(256);
  ASSERT_EQ(q.enqueue_nd_range(
                ok, {1, 1, 1}, {1, 1, 1},
                {{sim::KernelArg::ptr(b_in.addr),
                  sim::KernelArg::ptr(b_out.addr)}}),
            ocl::Status::Success);
  EXPECT_TRUE(q.last_error().empty());
}

// Every block writes its slot then faults: with batch cancellation the
// first fault stops the grid, so only a bounded prefix of blocks ran.
TEST(FaultPath, FaultStopsGridEarly) {
  KernelBuilder kb("fault_everywhere");
  auto out = kb.ptr_param("out", ir::Type::S32);
  kb.if_(kb.tid_x() == 0, [&] {
    kb.st(out, kb.ctaid_x(), kb.c32(1));
    kb.st(out, kb.c32(1 << 28), kb.c32(1));  // hard OOB: every block faults
  });
  auto def = kb.finish();

  const int nblocks = 8192;
  harness::DeviceSession s(arch::gtx480(), Toolchain::Cuda);
  const auto d_out = s.alloc(static_cast<std::size_t>(nblocks) * 4);
  std::vector<std::int32_t> zero(nblocks, 0);
  s.write(d_out, zero.data(), zero.size() * 4);
  auto ck = s.compile(def);
  EXPECT_THROW((void)s.launch(ck, {nblocks, 1, 1}, {32, 1, 1},
                              {{sim::KernelArg::ptr(d_out)}}),
               DeviceFault);
  std::vector<std::int32_t> host(nblocks);
  s.read(host.data(), d_out, host.size() * 4);
  int ran = 0;
  for (int i = 0; i < nblocks; ++i) ran += (host[i] != 0);
  EXPECT_GT(ran, 0);
  EXPECT_LT(ran, nblocks / 2) << "grid was not stopped early";
}

}  // namespace
}  // namespace gpc
