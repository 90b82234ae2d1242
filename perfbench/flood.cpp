// serve_flood: one generator thread submits a fixed number of tiny jobs to
// a fresh serve::Server, then drains it. Jobs come in a seeded order from an
// even mix of three kernels x {GTX280, GTX480} x {CUDA, OpenCL}, so the
// compiled-kernel cache sees a miss for the first job of each shape and hits
// after that, and batches mix devices. The server runs nproc - 1 workers, so generator
// plus workers fit the machine.
//
// Every job must end OK with the simulated outcome of a direct
// DeviceSession launch of its shape (made during set-up), and every
// sixteenth job reads its output back for comparison with that launch.
#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "arch/device_spec.h"
#include "common.h"
#include "common/rng.h"
#include "harness/session.h"
#include "kernel/builder.h"
#include "serve/serve.h"

namespace perfbench {
namespace {

using gpc::arch::Toolchain;
using gpc::kernel::KernelBuilder;
using gpc::kernel::KernelDef;

constexpr int kThreads = 64;
constexpr std::size_t kBytes = kThreads * sizeof(std::int32_t);
constexpr std::size_t kHeap = std::size_t{1} << 20;
constexpr int kJobsPerFlood = 1667 * 12;  // the same count of every shape
constexpr int kReadbackEvery = 16;

std::vector<std::shared_ptr<const KernelDef>> flood_kernels() {
  std::vector<std::shared_ptr<const KernelDef>> ks;
  {
    KernelBuilder kb("flood_copy");
    auto in = kb.ptr_param("in", gpc::ir::Type::S32);
    auto out = kb.ptr_param("out", gpc::ir::Type::S32);
    const auto i = kb.global_id_x();
    kb.st(out, i, kb.ld(in, i));
    ks.push_back(std::make_shared<KernelDef>(kb.finish()));
  }
  {
    KernelBuilder kb("flood_scale_add");
    auto in = kb.ptr_param("in", gpc::ir::Type::S32);
    auto out = kb.ptr_param("out", gpc::ir::Type::S32);
    const auto i = kb.global_id_x();
    kb.st(out, i, kb.ld(in, i) * 3 + i);
    ks.push_back(std::make_shared<KernelDef>(kb.finish()));
  }
  {
    KernelBuilder kb("flood_mix");
    auto in = kb.ptr_param("in", gpc::ir::Type::S32);
    auto out = kb.ptr_param("out", gpc::ir::Type::S32);
    const auto i = kb.global_id_x();
    const auto v = kb.ld(in, i);
    kb.st(out, i, (v ^ i) + (v >> 2));
    ks.push_back(std::make_shared<KernelDef>(kb.finish()));
  }
  return ks;
}

struct Shape {
  std::shared_ptr<const KernelDef> kernel;
  const gpc::arch::DeviceSpec* device = nullptr;
  Toolchain tc = Toolchain::Cuda;
  std::string name;                  // "flood_copy/GTX280/CUDA"
  std::vector<unsigned char> input;  // kThreads seeded words
  std::vector<unsigned char> want;   // output of the direct launch
  std::uint64_t hash = 0;            // simulated outcome of the direct launch
};

std::vector<unsigned char> words_to_bytes(const std::vector<std::int32_t>& w) {
  std::vector<unsigned char> b(w.size() * sizeof(std::int32_t));
  std::memcpy(b.data(), w.data(), b.size());
  return b;
}

std::vector<Shape> make_shapes(std::uint64_t seed) {
  gpc::Rng rng(seed ^ 0x5eed5eedull);
  std::vector<Shape> shapes;
  for (const auto& k : flood_kernels()) {
    for (const auto* d : {&gpc::arch::gtx280(), &gpc::arch::gtx480()}) {
      for (const Toolchain tc : {Toolchain::Cuda, Toolchain::OpenCl}) {
        Shape s;
        s.kernel = k;
        s.device = d;
        s.tc = tc;
        s.name = k->name + "/" + d->short_name +
                 (tc == Toolchain::Cuda ? "/CUDA" : "/OpenCL");
        std::vector<std::int32_t> in(kThreads);
        for (auto& v : in) v = static_cast<std::int32_t>(rng.next_below(1 << 20));
        s.input = words_to_bytes(in);
        shapes.push_back(std::move(s));
      }
    }
  }
  return shapes;
}

// The reference of each shape: one launch through a DeviceSession.
void direct_launches(std::vector<Shape>& shapes) {
  for (Shape& s : shapes) {
    gpc::harness::DeviceSession session(*s.device, s.tc, kHeap);
    const auto ck = session.compile(*s.kernel);
    const std::uint64_t in = session.alloc(kBytes);
    session.write(in, s.input.data(), kBytes);
    const std::uint64_t out = session.alloc(kBytes);
    const std::array<gpc::sim::KernelArg, 2> args = {
        gpc::sim::KernelArg::ptr(in), gpc::sim::KernelArg::ptr(out)};
    const auto r = session.launch(ck, {1, 1, 1}, {kThreads, 1, 1}, args);
    s.want.resize(kBytes);
    session.read(s.want.data(), out, kBytes);
    s.hash = hash_launch(r, 0);
  }
}

gpc::serve::JobSpec make_job(const Shape& s, bool readback) {
  gpc::serve::JobSpec job;
  job.kernel = s.kernel;
  job.device = s.device;
  job.toolchain = s.tc;
  job.grid = {1, 1, 1};
  job.block = {kThreads, 1, 1};
  job.args.push_back(gpc::serve::JobArg::buffer(s.input, false));
  job.args.push_back(gpc::serve::JobArg::buffer(
      std::vector<unsigned char>(kBytes, 0), readback));
  return job;
}

struct Flood {
  double wall_s = 0;
  double submit_s = 0;  // generator time inside submit(), when timed
  double drain_s = 0;   // generator time blocked in drain()
  std::vector<double> submit_us, queue_us, service_us;
  gpc::serve::Server::Stats stats;
  double warp_instr = 0, sim_s = 0, launch_s = 0, issue_s = 0, dram_s = 0;
};

Flood run_flood(const std::vector<Shape>& shapes, const std::vector<int>& mix,
                int workers, bool timed, RunRecord& rec) {
  std::vector<gpc::serve::JobSpec> jobs;
  jobs.reserve(mix.size());
  for (std::size_t i = 0; i < mix.size(); ++i) {
    jobs.push_back(make_job(shapes[mix[i]], i % kReadbackEvery == 0));
  }
  gpc::serve::ServeConfig cfg;
  cfg.workers = workers;
  cfg.queue_cap = static_cast<int>(mix.size());
  gpc::serve::Server server(cfg);
  std::vector<gpc::serve::JobHandle> handles(mix.size());
  Flood f;
  if (timed) f.submit_us.resize(mix.size());

  const double t0 = now_s();
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const double c0 = timed ? now_s() : 0;
    handles[i] = server.submit(std::move(jobs[i]));
    if (timed) f.submit_us[i] = (now_s() - c0) * 1e6;
  }
  const double d0 = now_s();
  server.drain();
  const double t1 = now_s();
  f.wall_s = t1 - t0;
  f.drain_s = t1 - d0;
  for (const double us : f.submit_us) f.submit_s += us * 1e-6;
  f.stats = server.stats();
  server.shutdown();

  for (std::size_t i = 0; i < mix.size(); ++i) {
    const Shape& s = shapes[mix[i]];
    const gpc::serve::Completion& c = handles[i].wait();
    ++rec.ops;
    if (c.cls != gpc::serve::JobClass::Ok) {
      rec.fail("job " + std::to_string(i) + " (" + s.name + "): ended " +
               c.status + " " + c.detail);
      continue;
    }
    const std::uint64_t h = hash_launch(c.result, 0);
    rec.record_cell(s.name, h);
    if (h != s.hash) {
      rec.fail("job " + std::to_string(i) + " (" + s.name +
               "): simulated outcome differs from the direct launch");
    }
    if (i % kReadbackEvery == 0 && (c.outputs.size() != 1 || c.outputs[0] != s.want)) {
      rec.fail("job " + std::to_string(i) + " (" + s.name +
               "): output differs from the direct launch");
    }
    if (timed) {
      f.queue_us.push_back(static_cast<double>(c.start_ns - c.submit_ns) * 1e-3);
      f.service_us.push_back(static_cast<double>(c.complete_ns - c.start_ns) * 1e-3);
    }
    const auto& t = c.result.timing;
    f.warp_instr += static_cast<double>(warp_instructions(c.result.stats.total));
    f.sim_s += t.seconds;
    f.launch_s += t.launch_s;
    f.issue_s += t.issue_s;
    f.dram_s += t.dram_s;
  }
  return f;
}

}  // namespace

void run_flood(const RunArgs& args, RunRecord& rec) {
  std::vector<Shape> shapes = make_shapes(args.seed);
  std::uint64_t order_state = args.seed;
  std::vector<int> mix;
  for (const int i : permutation(kJobsPerFlood, &order_state)) {
    mix.push_back(i % static_cast<int>(shapes.size()));
  }
  const int workers = std::max(1, args.nproc - 1);

  // Set-up: the reference launches (a session, a build and a launch per
  // shape).
  const auto set_up = [&] { direct_launches(shapes); };
  std::vector<double> setups;
  if (args.trace) {
    record_compiles(set_up, rec);
  } else {
    setups.push_back(timed(set_up));
  }

  std::vector<double> untraced;
  const double start = now_s();
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const int passes = args.trace ? 0 : args.passes;
  for (int n = 0; more_passes(n, passes, 3, start, budget); ++n) {
    if (!args.trace) setups.push_back(timed(set_up));
    untraced.push_back(run_flood(shapes, mix, workers, false, rec).wall_s);
  }
  if (!args.trace) {
    std::vector<double> rates;
    for (const double w : untraced) rates.push_back(kJobsPerFlood / w * 60);
    rec.metrics["setup_s"] = median(setups);
    rec.metrics["sweep_s"] = median(untraced);
    rec.metrics["launches_per_min"] = median(rates);
    return;
  }

  std::map<std::string, std::vector<double>> per_pass;
  std::vector<double> traced;
  const double tstart = now_s();
  for (int n = 0; more_passes(n, args.passes, 1, tstart, args.seconds / 2); ++n) {
    const Flood f = run_flood(shapes, mix, workers, true, rec);
    traced.push_back(f.wall_s);
    const auto& st = f.stats;
    std::map<std::string, double> m;
    m["serve.submit_us.p50"] = percentile(f.submit_us, 0.5);
    m["serve.queue_wait_us.p50"] = percentile(f.queue_us, 0.5);
    m["serve.queue_wait_us.p99"] = percentile(f.queue_us, 0.99);
    m["serve.service_us.p50"] = percentile(f.service_us, 0.5);
    m["serve.service_us.p99"] = percentile(f.service_us, 0.99);
    m["serve.batch_mean"] =
        st.batches ? static_cast<double>(st.batched_jobs) / st.batches : 0;
    const double lookups = static_cast<double>(st.cache_hits + st.cache_misses);
    m["serve.cache_hit_ratio"] = lookups > 0 ? st.cache_hits / lookups : 0;
    m["serve.shed"] = static_cast<double>(st.shed);
    m["sim.warp_instr"] = f.warp_instr;
    m["timing.sim_s"] = f.sim_s;
    m["timing.launch_s"] = f.launch_s;
    m["timing.issue_s"] = f.issue_s;
    m["timing.dram_s"] = f.dram_s;
    m["unattributed_ms"] = (f.wall_s - f.submit_s - f.drain_s) * 1e3;
    for (const auto& [k, v] : m) per_pass[k].push_back(v);
  }
  for (const auto& [k, v] : per_pass) rec.metrics[k] = median(v);
  rec.metrics["prof.trace_overhead"] = median(traced) / median(untraced);
}

}  // namespace perfbench
