// paper_fig03 and portability_table06: the paper's two benchmark sweeps run
// cell by cell through bench::Benchmark::run, in a seeded order.
//
// Untraced passes give sweep_s and launches_per_min. Traced passes arm the
// gpc::prof recorder and split each pass into the layers the program
// already records spans for: runtime launch calls (the simulator), compile,
// memcpy, and the benchmark's own host code (self time of its "bench"
// span).
#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "arch/device_spec.h"
#include "common.h"
#include "harness/benchmark.h"
#include "prof/prof.h"

namespace perfbench {
namespace {

using gpc::arch::Toolchain;

struct Cell {
  const gpc::bench::Benchmark* bench = nullptr;
  const gpc::arch::DeviceSpec* device = nullptr;
  Toolchain tc = Toolchain::Cuda;
  std::string name;      // "BFS/GTX280/CUDA"
  std::string expected;  // the status the cell must end with
};

const char* tc_name(Toolchain tc) {
  return tc == Toolchain::Cuda ? "CUDA" : "OpenCL";
}

Cell make_cell(const gpc::bench::Benchmark* b, const gpc::arch::DeviceSpec& d,
               Toolchain tc, std::string expected) {
  return {b, &d, tc, b->name() + "/" + d.short_name + "/" + tc_name(tc),
          std::move(expected)};
}

// Fig. 3: every real-world benchmark on GTX280/GTX480 through both
// runtimes, each cell OK and verified.
std::vector<Cell> fig03_cells() {
  std::vector<Cell> cells;
  for (const auto* b : gpc::bench::real_world_benchmarks()) {
    for (const auto* d : {&gpc::arch::gtx280(), &gpc::arch::gtx480()}) {
      for (const Toolchain tc : {Toolchain::Cuda, Toolchain::OpenCl}) {
        cells.push_back(make_cell(b, *d, tc, "OK"));
      }
    }
  }
  return cells;
}

// The status a device row of bench/table06_expected.json gives `app`.
std::string expected_status(const std::string& json, const std::string& device,
                            const std::string& app) {
  const std::size_t row = json.find("\"" + device + "\"");
  const std::size_t end = json.find('}', row);
  const std::size_t key = json.find("\"" + app + "\"", row);
  if (row == std::string::npos || key == std::string::npos || key > end) {
    throw std::runtime_error("table06 expectation has no " + device + "/" + app);
  }
  const std::size_t open = json.find('"', json.find(':', key) + 1);
  const std::size_t close = json.find('"', open + 1);
  return json.substr(open + 1, close - open - 1);
}

// Table VI: every real-world benchmark through OpenCL on the three
// portability targets; each cell must end as the committed grid says.
std::vector<Cell> table06_cells(const std::string& repo) {
  const std::string path = repo + "/bench/table06_expected.json";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  std::vector<Cell> cells;
  for (const auto* d : {&gpc::arch::hd5870(), &gpc::arch::intel920(),
                        &gpc::arch::cellbe()}) {
    for (const auto* b : gpc::bench::real_world_benchmarks()) {
      cells.push_back(make_cell(b, *d, Toolchain::OpenCl,
                                expected_status(json, d->short_name, b->name())));
    }
  }
  return cells;
}

struct PassResult {
  double wall_s = 0;
  double launches = 0;
  double fail_path_s = 0;  // wall time of cells that ended FL or ABT
  double sim_s = 0, launch_s = 0, issue_s = 0, dram_s = 0;
};

PassResult run_pass(const std::vector<Cell>& cells, const std::vector<int>& order,
                    const gpc::bench::Options& opts, RunRecord& rec) {
  PassResult p;
  const double t0 = now_s();
  for (const int i : order) {
    const Cell& c = cells[i];
    const double c0 = now_s();
    const gpc::bench::Result r = c.bench->run(*c.device, c.tc, opts);
    const double cell_s = now_s() - c0;
    ++rec.ops;
    if (r.status != c.expected) {
      rec.fail(c.name + ": ended " + r.status + ", expected " + c.expected);
    }
    rec.record_cell(c.name, hash_result(r));
    if (r.status == "FL" || r.status == "ABT") p.fail_path_s += cell_s;
    p.launches += r.launches;
    p.sim_s += r.seconds;
    p.launch_s += r.launch_seconds;
    p.issue_s += r.issue_seconds;
    p.dram_s += r.dram_seconds;
  }
  p.wall_s = now_s() - t0;
  return p;
}

// One Reduce cell at a small scale per (device, toolchain) of the sweep:
// thread pool, sessions and first-launch paths are warm before timing.
void warm_up(const std::vector<Cell>& cells, RunRecord& rec) {
  gpc::bench::Options small;
  small.scale = 0.05;
  for (const Cell& c : cells) {
    if (c.bench->name() != "Reduce") continue;
    const auto r = c.bench->run(*c.device, c.tc, small);
    ++rec.ops;
    if (r.status != c.expected) {
      rec.fail("warm-up " + c.name + ": ended " + r.status);
    }
  }
}

struct Interval {
  std::int64_t start, end;
};

std::int64_t union_length(std::vector<Interval> v) {
  std::sort(v.begin(), v.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::int64_t total = 0, cur_start = 0, cur_end = -1;
  for (const Interval& iv : v) {
    if (iv.start > cur_end) {
      if (cur_end > cur_start) total += cur_end - cur_start;
      cur_start = iv.start;
      cur_end = iv.end;
    } else {
      cur_end = std::max(cur_end, iv.end);
    }
  }
  if (cur_end > cur_start) total += cur_end - cur_start;
  return total;
}

bool is_launch_span(const gpc::prof::Event& e) {
  return std::string_view(e.category) == "api" &&
         (e.name == "cudaLaunchKernel" || e.name == "clEnqueueNDRangeKernel");
}

// Per-layer split of one traced pass from the recorder's events.
std::map<std::string, double> layers_of(
    const std::vector<const gpc::prof::Event*>& events, double wall_s) {
  using gpc::prof::Event;
  std::map<int, std::vector<const Event*>> bench_by_tid;
  for (const Event* e : events) {
    if (e->kind == Event::Kind::Span && std::string_view(e->category) == "bench") {
      bench_by_tid[e->tid].push_back(e);
    }
  }
  for (auto& [tid, v] : bench_by_tid) {
    std::sort(v.begin(), v.end(), [](const Event* a, const Event* b) {
      return a->start_ns < b->start_ns;
    });
  }
  const auto enclosing = [&](const Event& s) -> const Event* {
    const auto it = bench_by_tid.find(s.tid);
    if (it == bench_by_tid.end()) return nullptr;
    const auto& v = it->second;
    auto pos = std::upper_bound(
        v.begin(), v.end(), s.start_ns,
        [](std::int64_t t, const Event* b) { return t < b->start_ns; });
    if (pos == v.begin()) return nullptr;
    const Event* b = *std::prev(pos);
    return s.end_ns <= b->end_ns ? b : nullptr;
  };

  std::map<std::string, double> m;
  std::map<const Event*, std::vector<Interval>> children;
  std::vector<double> launch_us, cuda_us, ocl_us;
  double warp_instr = 0;
  for (const Event* e : events) {
    if (e->kind == Event::Kind::Launch) {
      warp_instr += static_cast<double>(warp_instructions(e->launch->counters));
      continue;
    }
    if (e->kind != Event::Kind::Span || e->track != gpc::prof::Track::Host) {
      continue;
    }
    const std::string_view cat(e->category);
    const double ms = static_cast<double>(e->end_ns - e->start_ns) * 1e-6;
    const Event* b = enclosing(*e);
    if (is_launch_span(*e)) {
      m["sim.launch_ms"] += ms;
      launch_us.push_back(ms * 1e3);
      (e->name == "cudaLaunchKernel" ? cuda_us : ocl_us).push_back(ms * 1e3);
      if (b) m["sim.launch_ms." + b->name] += ms;
    } else if (cat == "compile") {
      m["compiler.build_ms"] += ms;
      m["compiler.builds"] += 1;
    } else if (cat == "xfer") {
      m["xfer.memcpy_ms"] += ms;
      m["xfer.calls"] += 1;
    } else {
      continue;  // bench spans themselves, allocation calls, instants
    }
    if (b) children[b].push_back({e->start_ns, e->end_ns});
  }
  double bench_ms = 0, host_ms = 0;
  for (const auto& [tid, v] : bench_by_tid) {
    for (const Event* b : v) {
      const auto it = children.find(b);
      const std::int64_t busy =
          it == children.end() ? 0 : union_length(it->second);
      bench_ms += static_cast<double>(b->end_ns - b->start_ns) * 1e-6;
      host_ms += static_cast<double>(b->end_ns - b->start_ns - busy) * 1e-6;
    }
  }
  m["bench_kernels.host_ms"] = host_ms;
  m["sim.warp_instr"] = warp_instr;
  if (warp_instr > 0) {
    m["sim.ns_per_warp_instr"] = m["sim.launch_ms"] * 1e6 / warp_instr;
  }
  m["sim.launch_us.p50"] = percentile(launch_us, 0.5);
  m["sim.launch_us.p99"] = percentile(launch_us, 0.99);
  m["cuda.launch_us.p50"] = percentile(cuda_us, 0.5);
  m["ocl.enqueue_us.p50"] = percentile(ocl_us, 0.5);
  // Outside every bench span: session set-up and teardown, classification
  // and the pass loop itself.
  m["unattributed_ms"] = wall_s * 1e3 - bench_ms;
  return m;
}

}  // namespace

void run_sweep(const RunArgs& args, bool portability, RunRecord& rec) {
  const std::vector<Cell> cells =
      portability ? table06_cells(args.repo) : fig03_cells();
  gpc::bench::Options opts;
  opts.scale = args.scale > 0 ? args.scale : (portability ? 0.5 : 1.0);
  std::uint64_t rng = args.seed;

  const auto set_up = [&] { warm_up(cells, rec); };
  std::vector<double> setups = {timed(set_up)};
  // One untimed pass in Table II order first: the allocator's state (glibc
  // raises its mmap threshold after the first large free) then no longer
  // depends on the seed, and neither does peak_rss_mb.
  std::vector<int> table_order(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) table_order[i] = static_cast<int>(i);
  run_pass(cells, table_order, opts, rec);
  if (!args.trace) {
    std::vector<double> walls, rates;
    const double start = now_s();
    for (int n = 0; more_passes(n, args.passes, 3, start, args.seconds); ++n) {
      setups.push_back(timed(set_up));
      const PassResult p = run_pass(cells, permutation(cells.size(), &rng), opts, rec);
      walls.push_back(p.wall_s);
      rates.push_back(p.launches / p.wall_s * 60.0);
    }
    rec.metrics["setup_s"] = median(setups);
    rec.metrics["sweep_s"] = median(walls);
    rec.metrics["launches_per_min"] = median(rates);
    return;
  }

  // Compile spans come from the traced passes. Untraced reference passes
  // for the tracing overhead (skipped when the
  // pass count is fixed, as in the single-thread probe).
  std::vector<double> untraced;
  if (args.passes == 0) {
    const double start = now_s();
    while (more_passes(static_cast<int>(untraced.size()), 0, 1, start,
                       args.seconds / 2)) {
      untraced.push_back(
          run_pass(cells, permutation(cells.size(), &rng), opts, rec).wall_s);
    }
  }
  auto& recorder = gpc::prof::recorder();
  std::map<std::string, std::vector<double>> per_pass;
  std::vector<double> traced;
  const double start = now_s();
  for (int n = 0; more_passes(n, args.passes, 1, start, args.seconds / 2); ++n) {
    recorder.clear();
    recorder.set_modes(gpc::prof::kCounters);
    const PassResult p = run_pass(cells, permutation(cells.size(), &rng), opts, rec);
    recorder.set_modes(gpc::prof::kOff);
    std::map<std::string, double> m = layers_of(recorder.snapshot(), p.wall_s);
    recorder.clear();
    m["harness.fail_path_ms"] = p.fail_path_s * 1e3;
    m["timing.sim_s"] = p.sim_s;
    m["timing.launch_s"] = p.launch_s;
    m["timing.issue_s"] = p.issue_s;
    m["timing.dram_s"] = p.dram_s;
    for (const auto& [k, v] : m) per_pass[k].push_back(v);
    traced.push_back(p.wall_s);
  }
  for (const auto& [k, v] : per_pass) rec.metrics[k] = median(v);
  if (!untraced.empty()) {
    rec.metrics["prof.trace_overhead"] = median(traced) / median(untraced);
  }
}

}  // namespace perfbench
