// Production-engine differential tests: the production engine (computed-goto
// dispatch with superinstruction fusion on the convergent path, the
// reconvergence-stack cohort scheduler for divergent warps) must be
// bit-identical to the min-PC oracle for every registered benchmark, through
// both compiler front-ends, with the sanitizer on and off, and under
// gpc::virt preempt/resume slicing. The decode-level fusion pass is locked
// structurally (fused groups annotate, never rewrite, the micro-op stream),
// and integer div/rem-by-zero keeps its CUDA semantics (result 0, memcheck
// diagnostic) on both. The two share one definition of every op
// (sim/op_semantics.h), so op semantics are checked against host values in
// tests/interp_ops_test.cpp; these tests lock scheduling, fusion and
// accounting. Labelled "dispatch" in ctest; tools/run_tsan.sh runs it under
// tsan.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "arch/device_spec.h"
#include "bench_kernels/kernels.h"
#include "bench_kernels/registry.h"
#include "compiler/pipeline.h"
#include "harness/benchmark.h"
#include "harness/session.h"
#include "kernel/builder.h"
#include "common/error.h"
#include "sim/decode.h"
#include "sim/launch.h"
#include "sim/sanitizer.h"
#include "virt/virt.h"

namespace gpc {
namespace {

using arch::Toolchain;
using kernel::KernelBuilder;
using kernel::KernelDef;
using kernel::Val;
using kernel::Var;

// Default to one simulator thread; an explicit GPC_SIM_THREADS (the ctest
// determinism matrix) is kept, and the exact equality below must hold there
// too (same reasoning as differential_test.cpp).
const bool g_single_sim_thread = [] {
  ::setenv("GPC_SIM_THREADS", "1", /*overwrite=*/0);
  return true;
}();

/// The two ways to run a block: the min-PC oracle and the production engine.
enum class Engine { Oracle, Production };

/// RAII engine selector over the one test hook that picks it.
class EngineGuard {
 public:
  explicit EngineGuard(Engine e) : prev_(sim::convergent_fast_path_enabled()) {
    sim::set_convergent_fast_path(e == Engine::Production);
  }
  ~EngineGuard() { sim::set_convergent_fast_path(prev_); }

 private:
  bool prev_;
};

const char* engine_name(Engine e) {
  return e == Engine::Oracle ? "oracle" : "production";
}

void PrintTo(Engine e, std::ostream* os) { *os << engine_name(e); }

/// Full BlockStats equality including the dynamic instruction mix
/// (xkind_issues is engine-invariant by design), excluding only the fused_*
/// and cohort_* diagnostics of HOW the interpreter ran (stats.h).
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
  for (int k = 0; k < sim::kNumXKinds; ++k) {
    EXPECT_EQ(a.xkind_issues[k], b.xkind_issues[k])
        << "instruction-mix bucket " << sim::to_string(static_cast<sim::XKind>(k));
  }
  EXPECT_EQ(a.flops, b.flops);
}

// ---------------------------------------------------------------------------
// Names

TEST(DispatchKnob, XKindNamesAreUniqueAndStable) {
  std::vector<std::string> names;
  for (int k = 0; k < sim::kNumXKinds; ++k) {
    names.emplace_back(sim::to_string(static_cast<sim::XKind>(k)));
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_FALSE(names[i].empty());
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
  EXPECT_EQ(names[static_cast<int>(sim::XKind::MemShared)], "mem_shared");
  EXPECT_EQ(names[static_cast<int>(sim::XKind::FloatOp)], "float_op");
}

// ---------------------------------------------------------------------------
// Decode-level fusion: groups annotate the stream, they never rewrite it

void expect_fusion_is_annotation_only(const ir::Function& fn) {
  const sim::DecodedProgram plain = sim::decode(fn, /*fuse=*/false);
  const sim::DecodedProgram fused = sim::decode(fn, /*fuse=*/true);

  // The unfused decode is the reference: no groups anywhere.
  EXPECT_EQ(plain.fusion.total_groups(), 0u);
  EXPECT_EQ(plain.fusion.fused_ops, 0u);
  for (const sim::MicroOp& m : plain.ops) EXPECT_EQ(m.fused_len, 0);

  // Fusion must not add, drop or reorder micro-ops: every per-op field that
  // drives execution semantics is unchanged; only the widened handler index
  // of a group head and the fused_len/pattern annotations may differ.
  ASSERT_EQ(fused.ops.size(), plain.ops.size());
  EXPECT_EQ(fused.fusion.total_ops, fused.ops.size());
  std::uint32_t ops_in_groups = 0;
  std::size_t next_free = 0;  // first pc not covered by a previous group
  for (std::size_t pc = 0; pc < fused.ops.size(); ++pc) {
    const sim::MicroOp& f = fused.ops[pc];
    const sim::MicroOp& p = plain.ops[pc];
    EXPECT_EQ(static_cast<int>(f.kind), static_cast<int>(p.kind)) << pc;
    EXPECT_EQ(static_cast<int>(f.op), static_cast<int>(p.op)) << pc;
    EXPECT_EQ(static_cast<int>(f.type), static_cast<int>(p.type)) << pc;
    EXPECT_EQ(f.dst, p.dst) << pc;
    EXPECT_EQ(f.guard, p.guard) << pc;
    EXPECT_EQ(f.target, p.target) << pc;
    EXPECT_EQ(f.a.reg, p.a.reg) << pc;
    EXPECT_EQ(f.a.imm, p.a.imm) << pc;
    EXPECT_EQ(f.b.reg, p.b.reg) << pc;
    EXPECT_EQ(f.b.imm, p.b.imm) << pc;
    EXPECT_EQ(f.c.reg, p.c.reg) << pc;
    EXPECT_EQ(f.c.imm, p.c.imm) << pc;
    EXPECT_EQ(f.flops, p.flops) << pc;
    EXPECT_EQ(static_cast<int>(f.issue), static_cast<int>(p.issue)) << pc;
    if (f.fused_len == 0) {
      // Interior and unfused ops keep their ordinary handler: a branch into
      // the middle of a group must execute it unfused.
      EXPECT_EQ(static_cast<int>(f.xop), static_cast<int>(p.xop)) << pc;
    } else {
      // Group head: >= 2 ops, inside the program, not overlapping the
      // previous group.
      EXPECT_GE(f.fused_len, 2) << pc;
      EXPECT_LE(pc + f.fused_len, fused.ops.size()) << pc;
      EXPECT_GE(pc, next_free) << "overlapping fused groups at pc " << pc;
      next_free = pc + f.fused_len;
      ops_in_groups += f.fused_len;
      for (std::size_t j = pc + 1; j < pc + f.fused_len; ++j) {
        EXPECT_EQ(fused.ops[j].fused_len, 0)
            << "interior op " << j << " marked as a head";
      }
    }
  }
  // The census agrees with the annotations.
  EXPECT_EQ(fused.fusion.fused_ops, ops_in_groups);
  std::uint32_t heads = 0;
  for (const sim::MicroOp& m : fused.ops) heads += m.fused_len != 0;
  EXPECT_EQ(fused.fusion.total_groups(), heads);
}

TEST(Fusion, AnnotatesWithoutRewritingFftBothFrontEnds) {
  const auto def = bench::kernels::fft_forward();
  for (auto tc : {Toolchain::Cuda, Toolchain::OpenCl}) {
    SCOPED_TRACE(arch::to_string(tc));
    const auto ck = compiler::compile(def, tc);
    expect_fusion_is_annotation_only(ck.fn);
  }
  // Table V's point, statically: the OpenCL front end re-expands address
  // math per access, so the fusion pass must find idioms there.
  const auto cl = compiler::compile(def, Toolchain::OpenCl);
  EXPECT_GT(sim::decode(cl.fn, true).fusion.total_groups(), 0u);
}

TEST(Fusion, AnnotatesWithoutRewritingMxM) {
  const auto ck = compiler::compile(bench::kernels::mxm(16),
                                    Toolchain::Cuda);
  expect_fusion_is_annotation_only(ck.fn);
  EXPECT_GT(sim::decode(ck.fn, true).fusion.total_groups(), 0u)
      << "the tiled SGEMM inner loop is mad/addr-gen idiom central";
}

// ---------------------------------------------------------------------------
// Engine differential: every registered benchmark, both front-ends, the
// production engine vs the min-PC oracle

class DispatchDifferential
    : public ::testing::TestWithParam<const bench::Benchmark*> {};

TEST_P(DispatchDifferential, AllEnginesMatchMinPcOnAllBenchmarks) {
  const bench::Benchmark& b = *GetParam();
  bench::Options opts;
  opts.scale = 0.25;

  struct Combo {
    const arch::DeviceSpec& device;
    Toolchain tc;
  };
  // Both lockstep widths (warp 32 / wavefront 64) and both front-ends.
  const Combo combos[] = {{arch::gtx480(), Toolchain::Cuda},
                          {arch::hd5870(), Toolchain::OpenCl}};

  for (const Combo& combo : combos) {
    SCOPED_TRACE(b.name() + " on " + combo.device.name);
    bench::Result ref;
    {
      EngineGuard guard(Engine::Oracle);
      ref = b.run(combo.device, combo.tc, opts);
    }
    EngineGuard guard(Engine::Production);
    const bench::Result got = b.run(combo.device, combo.tc, opts);
    EXPECT_EQ(got.status, ref.status);
    EXPECT_EQ(got.correct, ref.correct);
    EXPECT_EQ(got.launches, ref.launches);
    EXPECT_EQ(got.value, ref.value);
    EXPECT_EQ(got.seconds, ref.seconds);
    expect_stats_equal(got.stats, ref.stats);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRealWorld, DispatchDifferential,
    ::testing::ValuesIn(bench::real_world_benchmarks()),
    [](const ::testing::TestParamInfo<const bench::Benchmark*>& info) {
      return info.param->name();
    });

// The production engine really executes superinstructions on a convergent
// workload (otherwise the differential above would pass vacuously with
// fusion dead); the min-PC oracle never does.
TEST(DispatchDifferential2, FusedExecutionHappensOnlyInGotoEngines) {
  const bench::Benchmark& mxm = bench::benchmark_by_name("MxM");
  bench::Options opts;
  opts.scale = 0.25;
  std::uint64_t fused[2] = {};
  for (const Engine e : {Engine::Oracle, Engine::Production}) {
    EngineGuard guard(e);
    const bench::Result r = mxm.run(arch::gtx480(), Toolchain::Cuda, opts);
    ASSERT_EQ(r.status, "OK");
    fused[static_cast<int>(e)] = r.stats.fused_groups;
  }
  EXPECT_EQ(fused[static_cast<int>(Engine::Oracle)], 0u);
  EXPECT_GT(fused[static_cast<int>(Engine::Production)], 0u);
}

// ---------------------------------------------------------------------------
// Sanitizer on/off: the checking layer must not change results in either
// engine, and production must agree with the oracle while it is on (the
// production engine routes sanitized memory ops through the generic path —
// that seam is exactly what this locks).

TEST(DispatchSanitizer, SanitizedRunsStayBitIdenticalInEveryEngine) {
  const bench::Benchmark& b = bench::benchmark_by_name("MxM");
  bench::Options opts;
  opts.scale = 0.25;

  bench::Result ref;  // oracle, sanitizer off
  {
    EngineGuard guard(Engine::Oracle);
    ref = b.run(arch::gtx480(), Toolchain::Cuda, opts);
  }
  ::setenv("GPC_SIM_SANITIZE", "all", /*overwrite=*/1);
  for (const Engine e : {Engine::Oracle, Engine::Production}) {
    SCOPED_TRACE(engine_name(e));
    EngineGuard guard(e);
    const bench::Result got = b.run(arch::gtx480(), Toolchain::Cuda, opts);
    EXPECT_EQ(got.status, ref.status);
    EXPECT_EQ(got.value, ref.value);
    EXPECT_EQ(got.seconds, ref.seconds);
    expect_stats_equal(got.stats, ref.stats);
  }
  ::unsetenv("GPC_SIM_SANITIZE");
}

// ---------------------------------------------------------------------------
// virt preempt/resume: maximal slicing (one block per slice) must stay
// bit-identical on both engines — checkpoint/restore cuts through the
// production engine's converged runs.

class DispatchVirt : public ::testing::TestWithParam<Engine> {};

TEST_P(DispatchVirt, ForceSlicedTenantMatchesPlainSessionPerEngine) {
  EngineGuard guard(GetParam());
  for (const char* name : {"MxM", "BFS"}) {  // convergent + divergent
    SCOPED_TRACE(name);
    const bench::Benchmark& b = bench::benchmark_by_name(name);
    bench::Options opts;
    opts.scale = 0.25;

    harness::DeviceSession plain(arch::gtx480(), Toolchain::Cuda);
    const bench::Result want = b.run_in_session(plain, opts);

    virt::VirtConfig cfg;
    cfg.tenants = 1;
    cfg.slice = 1;
    cfg.force_slice = true;
    virt::VirtualDeviceManager mgr(cfg);
    harness::TenantSession tenant(arch::gtx480(), Toolchain::Cuda,
                                  mgr.tenant(0));
    const bench::Result got = b.run_in_session(tenant, opts);

    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.launches, want.launches);
    EXPECT_EQ(got.value, want.value);
    EXPECT_DOUBLE_EQ(got.seconds, want.seconds);
    expect_stats_equal(got.stats, want.stats);
    EXPECT_GT(mgr.tenant(0).stats().preemptions, 0u)
        << "slicing did not actually preempt";
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, DispatchVirt,
                         ::testing::Values(Engine::Oracle,
                                           Engine::Production),
                         [](const ::testing::TestParamInfo<Engine>& info) {
                           return std::string(engine_name(info.param));
                         });

// ---------------------------------------------------------------------------
// Integer div/rem by zero: result 0 on the device on both engines, one
// deduplicated memcheck diagnostic per static micro-op when enabled.

TEST(DispatchDivByZero, QuotientIsZeroAndMemcheckFlagsItInEveryEngine) {
  // out[tid] = p0 / (tid - 2) + p0 % (tid - 2): lane 2 divides by zero in
  // both the quotient and the remainder.
  KernelBuilder kb("divz");
  auto out = kb.ptr_param("out", ir::Type::S32);
  Val p0 = kb.s32_param("p0");
  Val d = kb.tid_x() - kb.c32(2);
  kb.st(out, kb.tid_x(), p0 / d + p0 % d);
  const auto def = kb.finish();

  const int threads = 32;
  const int p0v = 91;
  std::vector<std::int32_t> want(threads);
  for (int t = 0; t < threads; ++t) {
    want[t] = t == 2 ? 0 : p0v / (t - 2) + p0v % (t - 2);
  }

  for (auto tc : {Toolchain::Cuda, Toolchain::OpenCl}) {
    SCOPED_TRACE(arch::to_string(tc));
    const auto ck = compiler::compile(def, tc);
    for (const Engine e : {Engine::Oracle, Engine::Production}) {
      SCOPED_TRACE(engine_name(e));
      EngineGuard guard(e);
      for (const bool sanitize : {false, true}) {
        sim::DeviceMemory mem(1 << 20);
        const auto d_out = mem.alloc(threads * 4);
        sim::LaunchConfig cfg;
        cfg.grid = {1, 1, 1};
        cfg.block = {threads, 1, 1};
        cfg.sanitize.mem = sanitize;
        std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(d_out),
                                            sim::KernelArg::s32(p0v)};
        const auto r = sim::launch_kernel(arch::gtx480(),
                                          arch::cuda_runtime(), ck, cfg,
                                          args, mem);
        std::vector<std::int32_t> got(threads);
        mem.read(d_out, got.data(), threads * 4);
        EXPECT_EQ(got, want) << "sanitize=" << sanitize;
        int divz_findings = 0;
        std::uint64_t occurrences = 0;
        for (const auto& fnd : r.sanitizer.findings) {
          if (fnd.kind == "div-by-zero") {
            EXPECT_EQ(fnd.tool, sim::SanitizerTool::Memcheck);
            ++divz_findings;
            occurrences += fnd.occurrences;
          }
        }
        if (sanitize) {
          // Two static sites (Div, Rem), deduplicated per micro-op.
          EXPECT_EQ(divz_findings, 2);
          EXPECT_GE(occurrences, 2u);
        } else {
          EXPECT_EQ(divz_findings, 0);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Cohort-scheduler divergence battery: hand-built kernels with known
// divergence shapes — nested branches four deep, a loop broken out of under
// a divergent guard, a warp ground down to width-1 cohorts, and divergent
// barriers (fault and synccheck report) — must behave identically on the
// oracle and the production engine, through both front-ends, and the cohort
// diagnostics must light up exactly when the cohort scheduler ran.

struct DivergentRun {
  std::vector<std::int32_t> out;
  sim::BlockStats stats;
  std::string fault;  // DeviceFault message; empty when the launch completed
  std::vector<sim::SanitizerFinding> findings;
};

/// Launches `def` on two blocks of `threads` (gtx480, warp 32) under the
/// CURRENT engine selection and returns outputs + stats + fault/findings.
/// The output buffer holds one s32 per thread, indexed by global id.
DivergentRun run_divergent_kernel(const kernel::KernelDef& def, Toolchain tc,
                                  int threads, bool synccheck = false) {
  const auto ck = compiler::compile(def, tc);
  sim::DeviceMemory mem(1 << 20);
  const int outputs = 2 * threads;
  const auto d_out = mem.alloc(static_cast<std::size_t>(outputs) * 4);
  sim::LaunchConfig cfg;
  cfg.grid = {2, 1, 1};
  cfg.block = {threads, 1, 1};
  cfg.sanitize.sync = synccheck;
  std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(d_out)};
  DivergentRun r;
  try {
    const auto lr = sim::launch_kernel(arch::gtx480(), arch::cuda_runtime(),
                                       ck, cfg, args, mem);
    r.stats = lr.stats.total;
    r.findings = lr.sanitizer.findings;
  } catch (const DeviceFault& e) {
    r.fault = e.what();
  }
  r.out.resize(outputs);
  mem.read(d_out, r.out.data(), static_cast<std::size_t>(outputs) * 4);
  return r;
}

/// Runs `def` on the oracle and the production engine, for both
/// front-ends, and demands bit-identical outputs, stats and fault strings.
/// Returns both engines' runs of the LAST toolchain (oracle first) for extra
/// assertions.
std::vector<DivergentRun> expect_divergence_differential(
    const std::function<kernel::KernelDef()>& make, int threads,
    bool synccheck = false) {
  std::vector<DivergentRun> engine_runs;
  for (auto tc : {Toolchain::Cuda, Toolchain::OpenCl}) {
    SCOPED_TRACE(arch::to_string(tc));
    engine_runs.clear();
    DivergentRun ref;
    {
      EngineGuard guard(Engine::Oracle);
      ref = run_divergent_kernel(make(), tc, threads, synccheck);
    }
    // The oracle never runs the cohort scheduler: its diagnostics stay zero.
    EXPECT_EQ(ref.stats.cohort_splits, 0u);
    EXPECT_EQ(ref.stats.cohort_merges, 0u);
    EXPECT_EQ(ref.stats.cohort_max_live, 0u);
    EXPECT_EQ(ref.stats.div_depth_max, 0u);
    {
      EngineGuard guard(Engine::Production);
      DivergentRun got = run_divergent_kernel(make(), tc, threads, synccheck);
      EXPECT_EQ(got.out, ref.out);
      EXPECT_EQ(got.fault, ref.fault);
      expect_stats_equal(got.stats, ref.stats);
      EXPECT_EQ(got.findings.size(), ref.findings.size());
      for (std::size_t i = 0;
           i < std::min(got.findings.size(), ref.findings.size()); ++i) {
        EXPECT_EQ(got.findings[i].kind, ref.findings[i].kind);
        EXPECT_EQ(got.findings[i].message, ref.findings[i].message);
        EXPECT_EQ(got.findings[i].pc, ref.findings[i].pc);
        EXPECT_EQ(got.findings[i].occurrences, ref.findings[i].occurrences);
        EXPECT_EQ(got.findings[i].cohort_mask, ref.findings[i].cohort_mask);
      }
      engine_runs.push_back(std::move(ref));
      engine_runs.push_back(std::move(got));
    }
  }
  return engine_runs;
}

KernelDef nested_branches_kernel() {
  // Four nested tid-bit guards, each with a trailing statement in the
  // enclosing body so every level keeps a distinct reconvergence point
  // (otherwise the joins collapse into one and the nesting flattens). The
  // innermost body carries five assignments — past the CUDA policy's
  // predication window and OpenCL's single-assign selp conversion — so all
  // four levels lower to real branches in both front-ends and the
  // reconvergence stack reaches depth 4 with up to five live cohorts.
  KernelBuilder kb("nested4");
  auto out = kb.ptr_param("out", ir::Type::S32);
  Val t = kb.tid_x();
  Var acc = kb.var_s32("acc");
  kb.set(acc, t);
  kb.if_((t & 1) == 1, [&] {
    kb.set(acc, Val(acc) + 1000);
    kb.if_((t & 2) == 2, [&] {
      kb.set(acc, Val(acc) + 2000);
      kb.if_((t & 4) == 4, [&] {
        kb.set(acc, Val(acc) + 4000);
        kb.if_((t & 8) == 8, [&] {
          kb.set(acc, Val(acc) + 8000);
          kb.set(acc, Val(acc) + 1);
          kb.set(acc, Val(acc) + 1);
          kb.set(acc, Val(acc) + 1);
          kb.set(acc, Val(acc) + 1);
        });
        kb.set(acc, Val(acc) + 40);  // join of the t&8 if
      });
      kb.set(acc, Val(acc) + 30);  // join of the t&4 if
    });
    kb.set(acc, Val(acc) + 20);  // join of the t&2 if
  });
  kb.st(out, kb.global_id_x(), acc);
  return kb.finish();
}

TEST(DispatchDivergence, NestedBranchesDepthFourBitIdentical) {
  const auto runs =
      expect_divergence_differential(nested_branches_kernel, 32);
  // The production engine must have recorded splits, merges and the
  // nesting depth.
  ASSERT_EQ(runs.size(), 2u);
  const DivergentRun& prod = runs[1];
  EXPECT_GT(prod.stats.cohort_splits, 0u);
  EXPECT_GT(prod.stats.cohort_merges, 0u);
  EXPECT_GE(prod.stats.cohort_max_live, 3u);
  EXPECT_GE(prod.stats.div_depth_max, 4u);
  // Output spot-check against the host: lane 15 takes every branch.
  EngineGuard guard(Engine::Production);
  const DivergentRun r =
      run_divergent_kernel(nested_branches_kernel(), Toolchain::Cuda, 32);
  EXPECT_EQ(r.out[15], 15 + 15000 + 4 + 90);
  EXPECT_EQ(r.out[14], 14);              // bit 0 clear: no branch taken
  EXPECT_EQ(r.out[7], 7 + 7000 + 90);    // bits 0..2 set, bit 3 clear
  EXPECT_GT(r.stats.cohort_splits, 0u);
}

TEST(DispatchDivergence, LoopBreakFromDivergentGuardBitIdentical) {
  // while (run) { ++i; if (i + tid >= 40) run = 0; } — the loop condition
  // is uniform but the break guard diverges, so lanes leave the loop on
  // different iterations through a split inside the loop body.
  const auto make = [] {
    KernelBuilder kb("divbreak");
    auto out = kb.ptr_param("out", ir::Type::S32);
    Val t = kb.tid_x();
    Var i = kb.var_s32("i");
    Var run = kb.var_s32("run");
    kb.set(i, kb.c32(0));
    kb.set(run, kb.c32(1));
    kb.while_(Val(run) == 1, [&] {
      kb.set(i, Val(i) + 1);
      kb.if_(Val(i) + t >= 40, [&] { kb.set(run, kb.c32(0)); });
    });
    kb.st(out, kb.global_id_x(), i);
    return kb.finish();
  };
  expect_divergence_differential(make, 32);
  EngineGuard guard(Engine::Production);
  const DivergentRun r = run_divergent_kernel(make(), Toolchain::Cuda, 32);
  for (int g = 0; g < 64; ++g) {
    EXPECT_EQ(r.out[g], 40 - (g % 32)) << "global id " << g;
  }
}

TEST(DispatchDivergence, WarpGrindsDownToWidthOneCohorts) {
  // Trip count == tid: one lane leaves the loop per iteration until a
  // single-lane cohort loops alone — the full-split shape the per-step
  // min-PC scan was worst at.
  const auto make = [] {
    KernelBuilder kb("fullsplit");
    auto out = kb.ptr_param("out", ir::Type::S32);
    Val t = kb.tid_x();
    Var i = kb.var_s32("i");
    Var acc = kb.var_s32("acc");
    kb.set(i, kb.c32(0));
    kb.set(acc, kb.c32(1));
    kb.while_(Val(i) < t, [&] {
      kb.set(acc, 3 * Val(acc) + Val(i));
      kb.set(i, Val(i) + 1);
    });
    kb.st(out, kb.global_id_x(), acc);
    return kb.finish();
  };
  const auto runs = expect_divergence_differential(make, 32);
  ASSERT_EQ(runs.size(), 2u);
  // One split per lane departure per warp, two blocks of one warp each.
  EXPECT_GE(runs[1].stats.cohort_splits, 60u);
  EXPECT_GT(runs[1].stats.cohort_merges, 0u);
  EngineGuard guard(Engine::Production);
  const DivergentRun r = run_divergent_kernel(make(), Toolchain::Cuda, 32);
  for (int g = 0; g < 64; ++g) {
    // The device's s32 arithmetic wraps; so does the host's, in uint32.
    std::uint32_t acc = 1;
    for (int i = 0; i < g % 32; ++i) acc = 3 * acc + i;
    EXPECT_EQ(r.out[g], static_cast<std::int32_t>(acc)) << "global id " << g;
  }
}

KernelDef divergent_barrier_kernel() {
  // Lanes 0..7 of each warp reach the barrier while lanes 8+ wait at the
  // join: an illegal divergent barrier in every scheduler.
  KernelBuilder kb("divbar");
  auto out = kb.ptr_param("out", ir::Type::S32);
  Val t = kb.tid_x();
  kb.if_(t < 8, [&] { kb.barrier(); });
  kb.st(out, kb.global_id_x(), t);
  return kb.finish();
}

TEST(DispatchDivergence, DivergentBarrierFaultsIdenticallyInEveryEngine) {
  const auto runs = expect_divergence_differential(divergent_barrier_kernel,
                                                   32);
  for (const DivergentRun& r : runs) {
    EXPECT_NE(r.fault.find("divergent barrier"), std::string::npos)
        << r.fault;
    EXPECT_NE(r.fault.find("arrived at the barrier"), std::string::npos)
        << r.fault;
    // The detail names the arriving lanes, not the warp's pre-split
    // population: threads 0..7 arrived, the rest are reported elsewhere.
    EXPECT_NE(r.fault.find("threads 0,1,2,3,4,5,6,7"), std::string::npos)
        << r.fault;
  }
}

TEST(DispatchDivergence, SynccheckReportsArrivedCohortMask) {
  const auto runs = expect_divergence_differential(divergent_barrier_kernel,
                                                   32, /*synccheck=*/true);
  for (const DivergentRun& r : runs) {
    EXPECT_TRUE(r.fault.empty()) << r.fault;  // report-and-continue
    ASSERT_EQ(r.findings.size(), 1u);
    const sim::SanitizerFinding& f = r.findings[0];
    EXPECT_EQ(f.tool, sim::SanitizerTool::Synccheck);
    EXPECT_EQ(f.kind, "divergent-barrier");
    // The live mask at the faulting PC: exactly lanes 0..7 arrived.
    EXPECT_EQ(f.cohort_mask, 0xffu);
    EXPECT_EQ(f.occurrences, 2u);  // one per block
  }
}

TEST(DispatchDivergence, BarrierLoopStragglersReportedAtTrueLocation) {
  // while (i < tid) { barrier(); ++i; } — every round the lanes done with
  // the loop are en route to Exit when the rest arrive at the barrier, so
  // synccheck reports a violation per round. The detail must name the
  // stragglers at their TRUE current micro-op: the pre-rewrite bug built it
  // from the warp's stale pre-split pc[] snapshot, which put them at the
  // wrong location (and could name lanes that were no longer live at all).
  const auto make = [] {
    KernelBuilder kb("barloop");
    auto out = kb.ptr_param("out", ir::Type::S32);
    Val t = kb.tid_x();
    Var i = kb.var_s32("i");
    kb.set(i, kb.c32(0));
    kb.while_(Val(i) < t, [&] {
      kb.barrier();
      kb.set(i, Val(i) + 1);
    });
    kb.st(out, kb.global_id_x(), i);
    return kb.finish();
  };
  const auto runs =
      expect_divergence_differential(make, 4, /*synccheck=*/true);
  for (const DivergentRun& r : runs) {
    EXPECT_TRUE(r.fault.empty()) << r.fault;
    ASSERT_EQ(r.findings.size(), 1u);  // one static barrier site, deduped
    const sim::SanitizerFinding& f = r.findings[0];
    EXPECT_EQ(f.kind, "divergent-barrier");
    // First violation: lanes 1..3 arrive while lane 0 is still live on its
    // way to Exit — so the mask is 0b1110 and lane 0 is named as elsewhere.
    EXPECT_EQ(f.cohort_mask, 0xeu);
    EXPECT_NE(f.message.find("thread 0 is at micro-op"), std::string::npos)
        << f.message;
    // Three violating rounds per block (arrivals {1,2,3}, {2,3}, {3}).
    EXPECT_EQ(f.occurrences, 6u);
  }
  // And the loop still completes: every lane wrote i == tid.
  EngineGuard guard(Engine::Production);
  const DivergentRun r =
      run_divergent_kernel(make(), Toolchain::Cuda, 4, /*synccheck=*/true);
  for (int g = 0; g < 8; ++g) EXPECT_EQ(r.out[g], g % 4);
}

}  // namespace
}  // namespace gpc
