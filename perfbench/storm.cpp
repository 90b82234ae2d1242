// launch_storm: one host thread issues back-to-back launches of a trivial
// load/add/store kernel (out[i] += in[i]) on a GTX480, with grid sizes of
// 1, 4 or 16 blocks of 128 threads in a seeded order (a third of the
// launches each, so every seed does the same work). The same
// sequence runs through the CUDA runtime and the OpenCL queue; the kernel is
// compiled during set-up. Nearly all the work is per-launch fixed cost.
//
// The traced run times every call from outside, at four entry points: the
// two runtimes, harness::DeviceSession::launch and sim::launch_kernel.
#include <array>
#include <memory>
#include <optional>
#include <stdexcept>

#include "arch/device_spec.h"
#include "common.h"
#include "common/rng.h"
#include "cuda/runtime.h"
#include "harness/session.h"
#include "kernel/builder.h"
#include "ocl/opencl.h"

namespace perfbench {
namespace {

using gpc::sim::KernelArg;
using gpc::sim::LaunchResult;

constexpr int kBlock = 128;
constexpr std::array<int, 3> kGrids = {1, 4, 16};
constexpr int kWords = 16 * kBlock;  // the largest grid's thread count
constexpr std::size_t kBytes = kWords * sizeof(std::int32_t);
constexpr std::size_t kHeap = std::size_t{4} << 20;
constexpr int kLaunchesPerApi = 683 * 3;  // a third of each grid size

gpc::kernel::KernelDef storm_kernel() {
  gpc::kernel::KernelBuilder kb("storm_accumulate");
  auto in = kb.ptr_param("in", gpc::ir::Type::S32);
  auto out = kb.ptr_param("out", gpc::ir::Type::S32);
  const auto i = kb.global_id_x();
  kb.st(out, i, kb.ld(out, i) + kb.ld(in, i));
  return kb.finish();
}

enum class Api { Cuda, Ocl, Harness, Sim };

const char* api_name(Api a) {
  switch (a) {
    case Api::Cuda: return "CUDA";
    case Api::Ocl: return "OpenCL";
    case Api::Harness: return "harness";
    case Api::Sim: return "sim";
  }
  return "?";
}

// The kernel compiled and its buffers allocated behind every entry point.
// sim::launch_kernel runs the CUDA build on a memory of its own.
struct Rig {
  explicit Rig(const std::vector<std::int32_t>& input);

  gpc::kernel::KernelDef def;
  gpc::cuda::Context cuda;
  gpc::compiler::CompiledKernel cuda_ck;
  gpc::ocl::Context ocl;
  gpc::ocl::CommandQueue queue;
  gpc::ocl::Program program;
  gpc::harness::DeviceSession session;
  gpc::compiler::CompiledKernel session_ck;
  gpc::sim::DeviceMemory mem;
  std::uint64_t in[4] = {}, out[4] = {};  // device addresses, by Api
};

void check(gpc::ocl::Status s, const char* what) {
  if (s != gpc::ocl::Status::Success) {
    throw std::runtime_error(std::string(what) + ": " + gpc::ocl::to_string(s));
  }
}

Rig::Rig(const std::vector<std::int32_t>& input)
    : def(storm_kernel()),
      cuda(gpc::arch::gtx480(), kHeap),
      cuda_ck(cuda.compile(def)),
      ocl(gpc::arch::gtx480(), kHeap),
      queue(ocl),
      program(ocl, def),
      session(gpc::arch::gtx480(), gpc::arch::Toolchain::Cuda, kHeap),
      session_ck(session.compile(def)),
      mem(kHeap) {
  check(program.build(), "clBuildProgram");
  const int c = static_cast<int>(Api::Cuda), o = static_cast<int>(Api::Ocl),
            h = static_cast<int>(Api::Harness), s = static_cast<int>(Api::Sim);
  in[c] = cuda.upload<std::int32_t>(input);
  out[c] = cuda.malloc(kBytes);
  const gpc::ocl::Buffer oin = ocl.create_buffer(kBytes);
  check(queue.enqueue_write_buffer(oin, input.data(), kBytes), "write in");
  in[o] = oin.addr;
  out[o] = ocl.create_buffer(kBytes).addr;
  in[h] = session.upload<std::int32_t>(input);
  out[h] = session.alloc(kBytes);
  in[s] = mem.alloc(kBytes);
  mem.write(in[s], input.data(), kBytes);
  out[s] = mem.alloc(kBytes);
}

void write_out(Rig& rig, Api api, const std::vector<std::int32_t>& words) {
  const std::uint64_t addr = rig.out[static_cast<int>(api)];
  switch (api) {
    case Api::Cuda: rig.cuda.memcpy_h2d(addr, words.data(), kBytes); break;
    case Api::Ocl:
      check(rig.queue.enqueue_write_buffer({addr, kBytes}, words.data(), kBytes),
            "write out");
      break;
    case Api::Harness: rig.session.write(addr, words.data(), kBytes); break;
    case Api::Sim: rig.mem.write(addr, words.data(), kBytes); break;
  }
}

std::vector<std::int32_t> read_out(Rig& rig, Api api) {
  std::vector<std::int32_t> words(kWords);
  const std::uint64_t addr = rig.out[static_cast<int>(api)];
  switch (api) {
    case Api::Cuda: rig.cuda.memcpy_d2h(words.data(), addr, kBytes); break;
    case Api::Ocl:
      check(rig.queue.enqueue_read_buffer(words.data(), {addr, kBytes}, kBytes),
            "read out");
      break;
    case Api::Harness: rig.session.read(words.data(), addr, kBytes); break;
    case Api::Sim: rig.mem.read(addr, words.data(), kBytes); break;
  }
  return words;
}

LaunchResult launch(Rig& rig, Api api, int grid,
                    const std::array<KernelArg, 2>& args) {
  switch (api) {
    case Api::Cuda: {
      gpc::sim::LaunchConfig cfg;
      cfg.grid = {grid, 1, 1};
      cfg.block = {kBlock, 1, 1};
      return rig.cuda.launch(rig.cuda_ck, cfg, args);
    }
    case Api::Ocl: {
      gpc::ocl::Event ev;
      check(rig.queue.enqueue_nd_range(rig.program.kernel(),
                                       {grid * kBlock, 1, 1}, {kBlock, 1, 1},
                                       args, &ev),
            "clEnqueueNDRangeKernel");
      LaunchResult r;
      r.stats = std::move(ev.stats);
      r.timing = ev.timing;
      return r;
    }
    case Api::Harness:
      return rig.session.launch(rig.session_ck, {grid, 1, 1}, {kBlock, 1, 1},
                                args);
    case Api::Sim: {
      gpc::sim::LaunchConfig cfg;
      cfg.grid = {grid, 1, 1};
      cfg.block = {kBlock, 1, 1};
      return gpc::sim::launch_kernel(gpc::arch::gtx480(),
                                     gpc::arch::cuda_runtime(), rig.cuda_ck,
                                     cfg, args, rig.mem);
    }
  }
  throw std::logic_error("unknown api");
}

int grid_class(int grid) {
  return grid == 1 ? 0 : grid == 4 ? 1 : 2;
}

struct Segment {
  double wall_s = 0;
  std::vector<double> call_us;  // per launch, when timed
  std::array<std::uint64_t, 3> hash{};  // simulated outcome per grid class
  std::array<bool, 3> varied{};  // a later launch of the class timed otherwise
  double warp_instr = 0, sim_s = 0, launch_s = 0, issue_s = 0, dram_s = 0;
};

// Issues `seq` through `api`, then checks that the accumulated output is
// in[i] times the number of launches that covered word i, and notes grid
// sizes whose launches did not all take the same simulated time.
Segment run_segment(Rig& rig, Api api, const std::vector<int>& seq,
                    const std::vector<std::int32_t>& input, bool timed,
                    RunRecord& rec) {
  const int a = static_cast<int>(api);
  const std::array<KernelArg, 2> args = {KernelArg::ptr(rig.in[a]),
                                         KernelArg::ptr(rig.out[a])};
  write_out(rig, api, std::vector<std::int32_t>(kWords, 0));
  Segment seg;
  if (timed) seg.call_us.resize(seq.size());
  std::vector<double> sim_s(seq.size());
  std::array<std::optional<LaunchResult>, 3> first;
  const double t0 = now_s();
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const double c0 = timed ? now_s() : 0;
    LaunchResult r = launch(rig, api, seq[i], args);
    if (timed) seg.call_us[i] = (now_s() - c0) * 1e6;
    sim_s[i] = r.timing.seconds;
    auto& f = first[grid_class(seq[i])];
    if (!f) f = std::move(r);
  }
  seg.wall_s = now_s() - t0;

  rec.ops += static_cast<long long>(seq.size());
  std::array<int, kWords + 1> covered{};  // launches covering words [0, n)
  for (std::size_t i = 0; i < seq.size(); ++i) {
    ++covered[seq[i] * kBlock];
    const auto& f = *first[grid_class(seq[i])];
    if (sim_s[i] != f.timing.seconds) seg.varied[grid_class(seq[i])] = true;
    seg.warp_instr += static_cast<double>(warp_instructions(f.stats.total));
    seg.sim_s += f.timing.seconds;
    seg.launch_s += f.timing.launch_s;
    seg.issue_s += f.timing.issue_s;
    seg.dram_s += f.timing.dram_s;
  }
  const std::vector<std::int32_t> got = read_out(rig, api);
  int count = 0, bad = 0;
  for (int w = kWords - 1; w >= 0; --w) {
    count += covered[w + 1];
    if (got[w] != input[w] * count) ++bad;
  }
  if (bad > 0) {
    rec.fail(std::string(api_name(api)) + ": " + std::to_string(bad) +
             " output words differ from the expected sums");
  }
  for (int c = 0; c < 3; ++c) {
    if (first[c]) seg.hash[c] = hash_launch(*first[c], 0);
  }
  return seg;
}

// Cells are the CUDA and OpenCL launches of each grid size. The harness and
// direct simulator paths launch the CUDA build, so their outcome must equal
// the CUDA cell's.
void record_cells(const Segment& seg, Api api, const Segment* cuda,
                  RunRecord& rec) {
  for (int c = 0; c < 3; ++c) {
    if (seg.hash[c] == 0) continue;
    const std::string grid = "/grid" + std::to_string(kGrids[c]);
    if (api == Api::Cuda || api == Api::Ocl) {
      const std::string cell = std::string(api_name(api)) + grid;
      rec.record_cell(cell, seg.hash[c]);
      if (seg.varied[c]) rec.unstable.insert(cell);
    } else if (cuda && seg.hash[c] != cuda->hash[c]) {
      rec.fail(std::string(api_name(api)) + grid +
               ": simulated outcome differs from the CUDA runtime's");
    }
  }
}

}  // namespace

void run_storm(const RunArgs& args, RunRecord& rec) {
  gpc::Rng rng(args.seed);
  std::vector<std::int32_t> input(kWords);
  for (auto& v : input) v = static_cast<std::int32_t>(rng.next_below(100)) + 1;
  std::vector<int> seq;
  std::uint64_t order_state = rng.next_u64();
  for (const int i : permutation(kLaunchesPerApi, &order_state)) {
    seq.push_back(kGrids[i % 3]);
  }

  // Set-up: contexts, the nvcc and clBuildProgram builds, buffers. Each
  // set-up builds a fresh rig; the old one is torn down outside the timing.
  std::unique_ptr<Rig> rig, fresh;
  const auto build_rig = [&] { fresh = std::make_unique<Rig>(input); };
  const bool trace = args.trace;
  std::vector<double> setups;
  if (trace) {
    record_compiles(build_rig, rec);
  } else {
    setups.push_back(timed(build_rig));
  }
  rig = std::move(fresh);

  std::vector<double> untraced;
  const double start = now_s();
  const double budget = trace ? args.seconds / 2 : args.seconds;
  const int passes = trace ? 0 : args.passes;
  for (int n = 0; more_passes(n, passes, 3, start, budget); ++n) {
    if (!trace) {
      setups.push_back(timed(build_rig));
      rig = std::move(fresh);
    }
    const Segment c = run_segment(*rig, Api::Cuda, seq, input, false, rec);
    const Segment o = run_segment(*rig, Api::Ocl, seq, input, false, rec);
    record_cells(c, Api::Cuda, nullptr, rec);
    record_cells(o, Api::Ocl, nullptr, rec);
    untraced.push_back(c.wall_s + o.wall_s);
  }
  if (!trace) {
    std::vector<double> rates;
    for (const double w : untraced) rates.push_back(2 * kLaunchesPerApi / w * 60);
    rec.metrics["setup_s"] = median(setups);
    rec.metrics["sweep_s"] = median(untraced);
    rec.metrics["launches_per_min"] = median(rates);
    return;
  }

  std::map<std::string, std::vector<double>> per_pass;
  std::vector<double> traced;
  const double tstart = now_s();
  for (int n = 0; more_passes(n, args.passes, 1, tstart, args.seconds / 2); ++n) {
    const double t0 = now_s();
    const Segment c = run_segment(*rig, Api::Cuda, seq, input, true, rec);
    const Segment o = run_segment(*rig, Api::Ocl, seq, input, true, rec);
    const Segment h = run_segment(*rig, Api::Harness, seq, input, true, rec);
    const Segment s = run_segment(*rig, Api::Sim, seq, input, true, rec);
    const double wall = now_s() - t0;
    record_cells(c, Api::Cuda, nullptr, rec);
    record_cells(o, Api::Ocl, nullptr, rec);
    record_cells(h, Api::Harness, &c, rec);
    record_cells(s, Api::Sim, &c, rec);
    traced.push_back(c.wall_s + o.wall_s);

    std::map<std::string, double> m;
    std::vector<double> grid1, grid16;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (seq[i] == 1) grid1.push_back(s.call_us[i]);
      if (seq[i] == 16) grid16.push_back(s.call_us[i]);
    }
    const double sim_p50 = percentile(s.call_us, 0.5);
    m["sim.launch_ms"] = s.wall_s * 1e3;
    m["sim.warp_instr"] = s.warp_instr;
    m["sim.ns_per_warp_instr"] = s.wall_s * 1e9 / s.warp_instr;
    m["sim.launch_us.p50"] = sim_p50;
    m["sim.launch_us.p99"] = percentile(s.call_us, 0.99);
    m["sim.launch_us.grid1"] = median(grid1);
    m["sim.launch_us.grid16"] = median(grid16);
    m["cuda.launch_us.p50"] = percentile(c.call_us, 0.5);
    m["ocl.enqueue_us.p50"] = percentile(o.call_us, 0.5);
    m["harness.launch_us.p50"] = percentile(h.call_us, 0.5);
    m["cuda.api_overhead_us"] = m["cuda.launch_us.p50"] - sim_p50;
    m["ocl.api_overhead_us"] = m["ocl.enqueue_us.p50"] - sim_p50;
    m["cuda.launches_per_s"] = kLaunchesPerApi / c.wall_s;
    m["ocl.launches_per_s"] = kLaunchesPerApi / o.wall_s;
    m["timing.sim_s"] = c.sim_s + o.sim_s;
    m["timing.launch_s"] = c.launch_s + o.launch_s;
    m["timing.issue_s"] = c.issue_s + o.issue_s;
    m["timing.dram_s"] = c.dram_s + o.dram_s;
    double named_us = 0;
    for (const Segment* seg : {&c, &o, &h, &s}) {
      for (const double us : seg->call_us) named_us += us;
    }
    m["unattributed_ms"] = wall * 1e3 - named_us * 1e-3;
    for (const auto& [k, v] : m) per_pass[k].push_back(v);
  }
  for (const auto& [k, v] : per_pass) rec.metrics[k] = median(v);
  rec.metrics["prof.trace_overhead"] = median(traced) / median(untraced);
}

}  // namespace perfbench
