// Simulator semantics tests: lockstep visibility (the §V RdxS failure
// mechanisms), divergence, barriers, coalescing, bank conflicts, caches,
// occupancy, and the timing model's qualitative behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "arch/device_spec.h"
#include "compiler/pipeline.h"
#include "kernel/builder.h"
#include "sim/cache.h"
#include "sim/launch.h"
#include "sim/memory.h"
#include "sim/timing.h"

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

// ---------------------------------------------------------------------------
// Warp-synchronous programming failure modes (paper §V, RdxS)

// The "ranking loop" idiom: each thread in what the programmer believes is a
// 32-wide warp increments a shared counter in its designated sub-step:
//   for i in 0..31: if (tid % 32 == i) cnt++        (no barriers)
// Correct iff the hardware lockstep width is exactly 32.
KernelDef ranking_loop_kernel() {
  KernelBuilder kb("ranking_loop");
  auto out = kb.ptr_param("out", ir::Type::S32);
  auto cnt = kb.shared_array("cnt", ir::Type::S32, 1);
  Val lane32 = kb.tid_x() % 32;
  kb.sts(cnt, kb.c32(0), kb.c32(0));
  kb.barrier();
  Var i = kb.var_s32("i");
  kb.for_(i, 0, kb.c32(32), 1, Unroll::none(), [&] {
    kb.if_(lane32 == Val(i),
           [&] { kb.sts(cnt, kb.c32(0), kb.lds(cnt, kb.c32(0)) + 1); });
  });
  kb.barrier();
  kb.if_(kb.tid_x() == 0, [&] { kb.st(out, kb.c32(0), kb.lds(cnt, kb.c32(0))); });
  return kb.finish();
}

int run_ranking_loop(const arch::DeviceSpec& spec) {
  sim::DeviceMemory mem(1 << 20);
  const std::uint64_t out = mem.alloc(16);
  sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {64, 1, 1};
  auto r = run_on(spec, ranking_loop_kernel(), Toolchain::OpenCl, cfg,
                  {sim::KernelArg::ptr(out)}, mem);
  (void)r;
  std::int32_t v = -1;
  mem.read(out, &v, 4);
  return v;
}

TEST(WarpSynchronous, RankingLoopCorrectOnWarp32Hardware) {
  // 64 threads = 2 warps of 32; each warp serialises its ranking loop and
  // warps do not overlap (run-to-barrier scheduling) -> 64.
  EXPECT_EQ(run_ranking_loop(arch::gtx280()), 64);
  EXPECT_EQ(run_ranking_loop(arch::gtx480()), 64);
}

TEST(WarpSynchronous, RankingLoopLosesUpdatesOnWavefront64) {
  // On HD5870 lanes i and i+32 are simultaneously active in one 64-wide
  // wavefront: both read the old counter, both write the same value — half
  // the increments vanish. This is Table VI's "FL" mechanism: "only one
  // half warp of threads are able to map keys into buckets".
  EXPECT_EQ(run_ranking_loop(arch::hd5870()), 32);
}

TEST(WarpSynchronous, RankingLoopSurvivesSerialisingRuntimes) {
  // Width-1 devices serialise whole work-items, so read-modify-write per
  // item is safe — this idiom is not what breaks on the CPU.
  EXPECT_EQ(run_ranking_loop(arch::intel920()), 64);
}

// The "warp exchange" idiom: lanes publish to shared memory and read a
// partner's slot with no barrier, relying on intra-warp lockstep.
KernelDef warp_exchange_kernel() {
  KernelBuilder kb("warp_exchange");
  auto out = kb.ptr_param("out", ir::Type::S32);
  auto buf = kb.shared_array("buf", ir::Type::S32, 64);
  Val tid = kb.tid_x();
  kb.sts(buf, tid, tid + 100);
  // No barrier: partner value is visible only under lockstep execution.
  Val partner = tid ^ 1;
  kb.st(out, tid, kb.lds(buf, partner));
  return kb.finish();
}

std::vector<std::int32_t> run_warp_exchange(const arch::DeviceSpec& spec) {
  sim::DeviceMemory mem(1 << 20);
  const std::uint64_t out = mem.alloc(64 * 4);
  sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {64, 1, 1};
  run_on(spec, warp_exchange_kernel(), Toolchain::OpenCl, cfg,
         {sim::KernelArg::ptr(out)}, mem);
  std::vector<std::int32_t> v(64);
  mem.read(out, v.data(), 64 * 4);
  return v;
}

TEST(WarpSynchronous, ExchangeWorksUnderLockstep) {
  for (const auto* spec : {&arch::gtx280(), &arch::gtx480(), &arch::hd5870()}) {
    auto v = run_warp_exchange(*spec);
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(v[i], (i ^ 1) + 100) << spec->short_name << " lane " << i;
    }
  }
}

TEST(WarpSynchronous, ExchangeReadsStaleDataWhenSerialised) {
  // Intel920 (APP CPU runtime): work-item 0 runs to the end before item 1
  // starts, so it reads item 1's slot before it was written. This is the
  // CPU-side "FL" mechanism.
  auto v = run_warp_exchange(arch::intel920());
  EXPECT_EQ(v[0], 0) << "partner slot not yet written";
  EXPECT_EQ(v[1], 100) << "lower partner already ran";
}

// ---------------------------------------------------------------------------
// Divergence & barriers

TEST(Divergence, BothBranchPathsExecuteAndReconverge) {
  KernelBuilder kb("div");
  auto out = kb.ptr_param("out", ir::Type::S32);
  Val tid = kb.tid_x();
  Var res = kb.var_s32("res");
  kb.if_else(
      (tid % 2) == 0, [&] { kb.set(res, tid * 10); },
      [&] { kb.set(res, tid * 100); });
  kb.st(out, tid, Val(res) + 1);
  auto def = kb.finish();

  sim::DeviceMemory mem(1 << 20);
  const std::uint64_t out_addr = mem.alloc(32 * 4);
  sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {32, 1, 1};
  // Force the branching lowering (OpenCL large-if path) with a loop inside.
  auto r = run_on(arch::gtx480(), def, Toolchain::OpenCl, cfg,
                  {sim::KernelArg::ptr(out_addr)}, mem);
  std::vector<std::int32_t> v(32);
  mem.read(out_addr, v.data(), 32 * 4);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(v[i], (i % 2 == 0 ? i * 10 : i * 100) + 1);
  }
  EXPECT_GT(r.stats.total.branch_issues, 0u);
}

TEST(Barriers, ProducerConsumerAcrossWarps) {
  // Thread t writes shared[t]; after a barrier, thread t reads
  // shared[(t + 37) % n] — crosses warp boundaries, so it only works if the
  // barrier synchronises the whole work-group.
  KernelBuilder kb("barrier");
  auto out = kb.ptr_param("out", ir::Type::S32);
  auto buf = kb.shared_array("buf", ir::Type::S32, 128);
  Val tid = kb.tid_x();
  kb.sts(buf, tid, tid * 3);
  kb.barrier();
  kb.st(out, tid, kb.lds(buf, (tid + 37) % 128));
  auto def = kb.finish();

  for (const auto* spec : {&arch::gtx480(), &arch::intel920(), &arch::cellbe()}) {
    sim::DeviceMemory mem(1 << 20);
    const std::uint64_t out_addr = mem.alloc(128 * 4);
    sim::LaunchConfig cfg;
    cfg.grid = {1, 1, 1};
    cfg.block = {128, 1, 1};
    run_on(*spec, def, Toolchain::OpenCl, cfg,
           {sim::KernelArg::ptr(out_addr)}, mem);
    std::vector<std::int32_t> v(128);
    mem.read(out_addr, v.data(), 128 * 4);
    for (int i = 0; i < 128; ++i) {
      EXPECT_EQ(v[i], ((i + 37) % 128) * 3) << spec->short_name;
    }
  }
}

TEST(Barriers, DivergentBarrierFaults) {
  KernelBuilder kb("divbar");
  auto out = kb.ptr_param("out", ir::Type::S32);
  kb.if_(kb.tid_x() < 16, [&] {
    Var i = kb.var_s32("i");
    // A loop forces the branching lowering; the barrier inside diverges.
    kb.for_(i, 0, kb.c32(1), 1, Unroll::none(), [&] { kb.barrier(); });
  });
  kb.st(out, kb.tid_x(), kb.c32(1));
  auto def = kb.finish();
  sim::DeviceMemory mem(1 << 20);
  const std::uint64_t out_addr = mem.alloc(32 * 4);
  sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {32, 1, 1};
  EXPECT_THROW(run_on(arch::gtx480(), def, Toolchain::OpenCl, cfg,
                      {sim::KernelArg::ptr(out_addr)}, mem),
               DeviceFault);
}

// ---------------------------------------------------------------------------
// Memory-system cost accounting

struct StatsProbe {
  sim::LaunchResult coalesced, strided;
};

StatsProbe probe_coalescing(const arch::DeviceSpec& spec) {
  auto make = [&](int stride, const char* name) {
    KernelBuilder kb(name);
    auto in = kb.ptr_param("in", ir::Type::F32);
    auto out = kb.ptr_param("out", ir::Type::F32);
    Val gid = kb.global_id_x();
    kb.st(out, gid, kb.ld(in, gid * stride));
    return kb.finish();
  };
  const int n = 4096;
  sim::DeviceMemory mem(64 << 20);
  const std::uint64_t in_addr = mem.alloc(n * 64 * 4);
  const std::uint64_t out_addr = mem.alloc(n * 4);
  sim::LaunchConfig cfg;
  cfg.grid = {n / 256, 1, 1};
  cfg.block = {256, 1, 1};
  StatsProbe p;
  p.coalesced = run_on(spec, make(1, "seq"), Toolchain::Cuda, cfg,
                       {sim::KernelArg::ptr(in_addr),
                        sim::KernelArg::ptr(out_addr)},
                       mem);
  p.strided = run_on(spec, make(32, "strided"), Toolchain::Cuda, cfg,
                     {sim::KernelArg::ptr(in_addr),
                      sim::KernelArg::ptr(out_addr)},
                     mem);
  return p;
}

TEST(Coalescing, StridedAccessMultipliesDramTraffic) {
  auto p = probe_coalescing(arch::gtx280());
  // Stride-32 f32 reads touch one 64B segment per lane.
  EXPECT_GT(p.strided.stats.total.dram_read_bytes,
            10 * p.coalesced.stats.total.dram_read_bytes);
  // Compare the DRAM component; launch overhead dominates both at this size.
  EXPECT_GT(p.strided.timing.dram_s, 5 * p.coalesced.timing.dram_s);
}

TEST(Coalescing, FermiCacheSoftensButDoesNotEraseStridePenalty) {
  auto p = probe_coalescing(arch::gtx480());
  EXPECT_GT(p.strided.stats.total.dram_read_bytes,
            4 * p.coalesced.stats.total.dram_read_bytes);
}

TEST(SharedMemory, BankConflictsRaiseSharedCycles) {
  auto make = [&](int stride, const char* name) {
    KernelBuilder kb(name);
    auto out = kb.ptr_param("out", ir::Type::F32);
    auto buf = kb.shared_array("buf", ir::Type::F32, 128 * 16);
    Val tid = kb.tid_x();
    kb.sts(buf, tid * stride, kb.cast(tid, ir::Type::F32));
    kb.barrier();
    kb.st(out, tid, kb.lds(buf, tid * stride));
    return kb.finish();
  };
  sim::DeviceMemory mem(1 << 20);
  const std::uint64_t out_addr = mem.alloc(256 * 4);
  sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {128, 1, 1};
  auto no_conflict =
      run_on(arch::gtx280(), make(1, "nc"), Toolchain::Cuda, cfg,
             {sim::KernelArg::ptr(out_addr)}, mem);
  auto conflict =
      run_on(arch::gtx280(), make(16, "cf"), Toolchain::Cuda, cfg,
             {sim::KernelArg::ptr(out_addr)}, mem);
  // Stride 16 on 16 banks: 16-way conflict.
  EXPECT_GT(conflict.stats.total.shared_cycles,
            8 * no_conflict.stats.total.shared_cycles);
}

TEST(Textures, CacheAbsorbsReuse) {
  // Every thread reads the same small window through the texture unit;
  // the cache should turn almost all fetches into hits.
  KernelBuilder kb("texreuse");
  auto data = kb.ptr_param("data", ir::Type::F32);
  auto out = kb.ptr_param("out", ir::Type::F32);
  auto tex = kb.texture("t", ir::Type::F32);
  Val gid = kb.global_id_x();
  kb.st(out, gid, kb.tex1d(tex, data, gid % 64));
  auto def = kb.finish();
  auto ck = compiler::compile(def, Toolchain::Cuda);

  sim::DeviceMemory mem(16 << 20);
  const std::uint64_t data_addr = mem.alloc(1 << 16);
  const std::uint64_t out_addr = mem.alloc(8192 * 4);
  sim::LaunchConfig cfg;
  cfg.grid = {32, 1, 1};
  cfg.block = {256, 1, 1};
  std::vector<sim::KernelArg> args = {sim::KernelArg::ptr(data_addr),
                                      sim::KernelArg::ptr(out_addr)};
  std::vector<sim::TexBinding> tex_bind = {
      {data_addr, 1 << 16, ir::Type::F32}};
  auto r = sim::launch_kernel(arch::gtx280(), arch::cuda_runtime(), ck, cfg,
                              args, mem, tex_bind);
  EXPECT_GT(r.stats.total.tex_requests, 0u);
  EXPECT_GT(static_cast<double>(r.stats.total.tex_hits),
            0.9 * static_cast<double>(r.stats.total.tex_requests));
}

TEST(ConstantMemory, BroadcastIsCheapDivergentSerialises) {
  auto make = [&](bool divergent, const char* name) {
    KernelBuilder kb(name);
    auto out = kb.ptr_param("out", ir::Type::F32);
    std::vector<float> filter(64, 1.5f);
    auto ca = kb.const_array_f32("filter", filter);
    Val tid = kb.tid_x();
    Val idx = divergent ? (tid % 64) : (tid - tid);  // same addr vs spread
    kb.st(out, tid, kb.ldc(ca, idx));
    return kb.finish();
  };
  sim::DeviceMemory mem(1 << 20);
  const std::uint64_t out_addr = mem.alloc(256 * 4);
  sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {256, 1, 1};
  auto uni = run_on(arch::gtx280(), make(false, "cu"), Toolchain::Cuda, cfg,
                    {sim::KernelArg::ptr(out_addr)}, mem);
  auto div = run_on(arch::gtx280(), make(true, "cd"), Toolchain::Cuda, cfg,
                    {sim::KernelArg::ptr(out_addr)}, mem);
  EXPECT_GT(div.stats.total.const_cycles, 10 * uni.stats.total.const_cycles);
}

TEST(CacheModel, LruSetAssociativeBasics) {
  sim::CacheModel c(4096, 64, 4);  // 16 sets x 4 ways
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(63));
  EXPECT_FALSE(c.access(64));
  // Fill one set beyond associativity: line 0 evicted by LRU.
  const int set_stride = 64 * 16;
  c.clear();
  c.access(0);
  for (int i = 1; i <= 4; ++i) c.access(i * set_stride);
  EXPECT_FALSE(c.access(0)) << "LRU evicted the oldest line";
}

// ---------------------------------------------------------------------------
// Occupancy, resources, timing

TEST(Occupancy, SharedMemoryLimitsBlocksPerSm) {
  KernelBuilder kb("occ");
  auto out = kb.ptr_param("out", ir::Type::F32);
  auto buf = kb.shared_array("buf", ir::Type::F32, 5000);  // 20 KB
  kb.sts(buf, kb.tid_x(), kb.cf(1.0));
  kb.barrier();
  kb.st(out, kb.tid_x(), kb.lds(buf, kb.tid_x()));
  auto def = kb.finish();
  auto ck = compiler::compile(def, Toolchain::Cuda);
  sim::LaunchConfig cfg;
  cfg.grid = {100, 1, 1};
  cfg.block = {128, 1, 1};
  // GTX480: 48 KB shared / 20 KB -> 2 blocks per SM.
  auto occ = sim::compute_occupancy(arch::gtx480(), ck, cfg);
  EXPECT_EQ(occ.blocks_per_sm, 2);
  EXPECT_STREQ(occ.limiter, "shared memory");
  // GTX280: 16 KB shared -> does not fit at all.
  EXPECT_THROW(sim::compute_occupancy(arch::gtx280(), ck, cfg),
               OutOfResources);
}

TEST(Occupancy, CellRegisterLimitAborts) {
  // A register-hungry kernel exceeds Cell/BE's 40-register budget — the
  // Table VI "ABT" path.
  KernelBuilder kb("fat");
  auto out = kb.ptr_param("out", ir::Type::F32);
  std::vector<Var> vs;
  for (int i = 0; i < 45; ++i) {
    vs.push_back(kb.var_f32("v" + std::to_string(i)));
    kb.set(vs.back(), kb.f32_param("x") + kb.cf(i));
  }
  Val sum = vs[0];
  for (std::size_t i = 1; i < vs.size(); ++i) sum = sum + Val(vs[i]);
  kb.st(out, kb.tid_x(), sum);
  auto def = kb.finish();
  auto ck = compiler::compile(def, Toolchain::OpenCl);
  EXPECT_GT(ck.reg_estimate, 40);
  sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {64, 1, 1};
  EXPECT_THROW(sim::compute_occupancy(arch::cellbe(), ck, cfg),
               OutOfResources);
  EXPECT_NO_THROW(sim::compute_occupancy(arch::gtx480(), ck, cfg));
}

TEST(Timing, LaunchOverheadDominatesTinyKernels) {
  KernelBuilder kb("tiny");
  auto out = kb.ptr_param("out", ir::Type::F32);
  kb.st(out, kb.tid_x(), kb.cf(1.0));
  auto def = kb.finish();
  sim::DeviceMemory mem(1 << 20);
  const std::uint64_t out_addr = mem.alloc(4096);
  sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {32, 1, 1};
  auto cu = run_on(arch::gtx480(), def, Toolchain::Cuda, cfg,
                   {sim::KernelArg::ptr(out_addr)}, mem);
  auto cl = run_on(arch::gtx480(), def, Toolchain::OpenCl, cfg,
                   {sim::KernelArg::ptr(out_addr)}, mem);
  EXPECT_GT(cu.timing.launch_s / cu.timing.seconds, 0.5);
  EXPECT_GT(cl.timing.seconds, cu.timing.seconds)
      << "OpenCL pays more enqueue latency (§IV-B.4)";
}

TEST(Timing, MoreWorkTakesMoreTime) {
  KernelBuilder kb("work");
  auto out = kb.ptr_param("out", ir::Type::F32);
  Val n = kb.s32_param("n");
  Var acc = kb.var_f32("acc");
  kb.set(acc, kb.cf(1.0));
  Var i = kb.var_s32("i");
  kb.for_(i, 0, n, 1, Unroll::none(),
          [&] { kb.set(acc, Val(acc) * kb.cf(1.0000001) + kb.cf(0.5)); });
  kb.st(out, kb.global_id_x(), acc);
  auto def = kb.finish();

  sim::DeviceMemory mem(8 << 20);
  const std::uint64_t out_addr = mem.alloc(1 << 20);
  sim::LaunchConfig cfg;
  cfg.grid = {30, 1, 1};
  cfg.block = {256, 1, 1};
  auto small = run_on(arch::gtx280(), def, Toolchain::Cuda, cfg,
                      {sim::KernelArg::ptr(out_addr), sim::KernelArg::s32(8)},
                      mem);
  auto large = run_on(arch::gtx280(), def, Toolchain::Cuda, cfg,
                      {sim::KernelArg::ptr(out_addr), sim::KernelArg::s32(256)},
                      mem);
  EXPECT_GT(large.timing.issue_s, 8 * small.timing.issue_s);
  EXPECT_GT(large.stats.total.flops, 10 * small.stats.total.flops);
}

TEST(DeviceMemory, BoundsAndAlignmentFault) {
  sim::DeviceMemory mem(4096);
  const std::uint64_t p = mem.alloc(64);
  EXPECT_NO_THROW(mem.store(p, 1, 4));
  EXPECT_THROW(mem.load(0, 4), DeviceFault);        // null page
  EXPECT_THROW(mem.load(p + 2, 4), DeviceFault);    // misaligned
  EXPECT_THROW(mem.load(1 << 20, 4), DeviceFault);  // out of bounds
  EXPECT_THROW(mem.alloc(1 << 20), OutOfResources);
}

TEST(DeviceMemory, AtomicsReturnOldValues) {
  sim::DeviceMemory mem(4096);
  const std::uint64_t p = mem.alloc(16);
  mem.store(p, 10, 4);
  EXPECT_EQ(mem.atomic_add(p, 5, 4), 10u);
  EXPECT_EQ(mem.load(p, 4), 15u);
  float f = 1.25f;
  std::uint32_t bits;
  std::memcpy(&bits, &f, 4);
  mem.store(p + 8, bits, 4);
  mem.atomic_add_f32(p + 8, 2.0f);
  float out;
  const std::uint64_t raw = mem.load(p + 8, 4);
  const std::uint32_t raw32 = static_cast<std::uint32_t>(raw);
  std::memcpy(&out, &raw32, 4);
  EXPECT_EQ(out, 3.25f);
}

// The reset contract: whatever wrote the heap since the last reset (host
// copies, device stores inside or past the allocations, atomics), every byte
// reads 0 afterwards, and real faults keep their messages.

std::string fault_message(const std::function<void()>& f) {
  try {
    f();
  } catch (const DeviceFault& e) {
    return e.what();
  }
  return "no fault";
}

bool all_zero(const sim::DeviceMemory& mem, std::uint64_t addr,
              std::size_t bytes) {
  std::vector<unsigned char> v(bytes, 0xff);
  mem.read(addr, v.data(), bytes);
  return std::all_of(v.begin(), v.end(), [](unsigned char c) { return c == 0; });
}

// Every thread stores past the bump pointer at `off` and bumps one of 8
// counters at `off2` (both element indices relative to `buf`).
KernelDef stray_store_kernel() {
  KernelBuilder kb("stray_store");
  auto buf = kb.ptr_param("buf", ir::Type::S32);
  Val off = kb.s32_param("off");
  Val off2 = kb.s32_param("off2");
  Val gid = kb.global_id_x();
  kb.st(buf, off + gid, gid + 1);
  kb.atomic_add(buf, off2 + gid % 8, kb.c32(1));
  return kb.finish();
}

TEST(DeviceMemory, ResetZeroesHostWritesAndDeviceStores) {
  sim::DeviceMemory mem(1 << 20);
  const std::uint64_t a = mem.alloc(4096);
  const std::uint64_t b = mem.alloc(256);
  const std::vector<unsigned char> ones(4096, 0xab);
  mem.write(a, ones.data(), ones.size());
  for (std::uint64_t i = 0; i < 256; i += 8) mem.store(b + i, ~0ull, 8);
  mem.atomic_add(b, 7, 4);
  EXPECT_EQ(mem.dirty_extent(), b + 256);
  mem.reset();
  EXPECT_EQ(mem.used(), 256u);
  EXPECT_EQ(mem.dirty_extent(), 256u);
  EXPECT_TRUE(all_zero(mem, a, 4096 + 256 + 256));
}

TEST(DeviceMemory, HostWritePastTheBumpPointerIsReset) {
  sim::DeviceMemory mem(1 << 20);
  const std::uint64_t a = mem.alloc(64);
  const std::vector<unsigned char> ones(512, 0x5a);
  mem.write(a + 4096, ones.data(), ones.size());
  EXPECT_EQ(mem.dirty_extent(), a + 4096 + 512);
  mem.reset();
  EXPECT_TRUE(all_zero(mem, 256, 8192));
}

TEST(DeviceMemory, KernelStoresPastTheBumpPointerAreLegalAndReset) {
  sim::DeviceMemory mem(1 << 20);
  const std::uint64_t buf = mem.alloc(64 * 4);
  const std::int32_t off = 8192, off2 = 4096;  // elements past buf's end
  sim::LaunchConfig cfg;
  cfg.grid = {4, 1, 1};
  cfg.block = {64, 1, 1};
  for (Toolchain tc : {Toolchain::Cuda, Toolchain::OpenCl}) {
    ASSERT_NO_THROW(run_on(arch::gtx480(), stray_store_kernel(), tc, cfg,
                           {sim::KernelArg::ptr(buf), sim::KernelArg::s32(off),
                            sim::KernelArg::s32(off2)},
                           mem));
    std::vector<std::int32_t> stored(256), counters(8);
    mem.read(buf + off * 4, stored.data(), stored.size() * 4);
    mem.read(buf + off2 * 4, counters.data(), counters.size() * 4);
    for (int i = 0; i < 256; ++i) EXPECT_EQ(stored[i], i + 1);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(counters[i], 32);
    EXPECT_EQ(mem.dirty_extent(), buf + (off + 256) * 4);
    mem.reset();
    EXPECT_TRUE(all_zero(mem, 256, buf + (off + 256) * 4 - 256));
    ASSERT_EQ(mem.alloc(64 * 4), buf);  // same layout for the next round
  }
}

TEST(DeviceMemory, ResetZeroesAnExtentAboveTheMemsetCutOver) {
  // 24 MB of dirty heap, far above the size reset() still memsets, plus a
  // stray store near the top of the heap.
  constexpr std::size_t kBytes = std::size_t{24} << 20;
  sim::DeviceMemory mem(std::size_t{32} << 20);
  const std::uint64_t a = mem.alloc(kBytes);
  mem.write(a, std::vector<unsigned char>(kBytes, 0xcd).data(), kBytes);
  const std::uint64_t stray = (std::uint64_t{31} << 20) + 8;
  mem.store(stray, ~0ull, 8);
  EXPECT_EQ(mem.dirty_extent(), stray + 8);
  mem.reset();
  EXPECT_TRUE(all_zero(mem, 256, stray + 8 - 256));
}

TEST(DeviceMemory, FaultMessagesAreUnchanged) {
  sim::DeviceMemory mem(4096);
  const std::uint64_t p = mem.alloc(64);
  EXPECT_EQ(mem.load(p + 1024, 4), 0u);  // past the bump pointer: legal
  EXPECT_EQ(fault_message([&] { mem.store(p + 2, 1, 4); }),
            "misaligned global access: addr=" + std::to_string(p + 2) +
                " size=4");
  EXPECT_EQ(fault_message([&] { mem.store(p + 1026, 1, 4); }),
            "misaligned global access: addr=" + std::to_string(p + 1026) +
                " size=4");
  EXPECT_EQ(fault_message([&] { (void)mem.load(8, 8); }),
            "global access out of bounds: addr=8 size=8");
  EXPECT_EQ(fault_message([&] { mem.atomic_add(4096, 1, 4); }),
            "global access out of bounds: addr=4096 size=4");
  EXPECT_EQ(fault_message([&] { (void)mem.atomic_add_f32(4094, 1.0f); }),
            "global access out of bounds: addr=4094 size=4");
  // Faulting accesses dirty nothing.
  EXPECT_EQ(mem.dirty_extent(), p + 64);
}

TEST(DeviceMemory, RedZoneNeverPushesTheBumpPointerPastCapacity) {
  // An allocation that ends exactly at capacity: its red zone would lie past
  // the heap, so the bump pointer (and with it the bounds check and the
  // range reset() zeroes) must stop at capacity.
  constexpr std::size_t kCap = 4096;
  sim::DeviceMemory mem(kCap);
  mem.set_red_zone(256);
  const std::uint64_t p = mem.alloc(kCap - 256);
  ASSERT_EQ(p + (kCap - 256), kCap);
  ASSERT_EQ(mem.used(), kCap);
  ASSERT_EQ(mem.dirty_extent(), kCap);
  EXPECT_NO_THROW(mem.store(kCap - 4, ~0ull, 4));
  EXPECT_EQ(fault_message([&] { mem.store(kCap, 1, 4); }),
            "global access out of bounds: addr=4096 size=4");
  EXPECT_EQ(fault_message([&] { (void)mem.atomic_add(kCap - 4, 1, 8); }),
            "global access out of bounds: addr=4092 size=8");
  EXPECT_EQ(mem.dirty_extent(), kCap);
  mem.reset();
  EXPECT_TRUE(all_zero(mem, 256, kCap - 256));
}

TEST(Interpreter, GridAndBlockIndicesCoverAllDimensions) {
  KernelBuilder kb("dims");
  auto out = kb.ptr_param("out", ir::Type::S32);
  Val gx = kb.global_id_x();
  Val gy = kb.global_id_y();
  Val w = kb.ntid_x() * kb.nctaid_x();
  kb.st(out, gy * w + gx, gx + gy * 1000);
  auto def = kb.finish();
  sim::DeviceMemory mem(1 << 20);
  const std::uint64_t out_addr = mem.alloc(16 * 8 * 4);
  sim::LaunchConfig cfg;
  cfg.grid = {2, 2, 1};
  cfg.block = {8, 4, 1};
  run_on(arch::gtx480(), def, Toolchain::Cuda, cfg,
         {sim::KernelArg::ptr(out_addr)}, mem);
  std::vector<std::int32_t> v(16 * 8);
  mem.read(out_addr, v.data(), v.size() * 4);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 16; ++x) {
      EXPECT_EQ(v[y * 16 + x], x + y * 1000) << x << "," << y;
    }
  }
}

TEST(Interpreter, OutOfBoundsGlobalAccessFaults) {
  KernelBuilder kb("oob");
  auto out = kb.ptr_param("out", ir::Type::F32);
  kb.st(out, kb.c32(1 << 24), kb.cf(1.0));
  auto def = kb.finish();
  sim::DeviceMemory mem(1 << 20);
  const std::uint64_t out_addr = mem.alloc(64);
  sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {1, 1, 1};
  EXPECT_THROW(run_on(arch::gtx480(), def, Toolchain::Cuda, cfg,
                      {sim::KernelArg::ptr(out_addr)}, mem),
               DeviceFault);
}

}  // namespace
}  // namespace gpc
