// Serving-layer latency/throughput benchmark (gpc::serve): floods the
// launch server with minimal jobs (one 32-thread block of a trivial copy
// kernel — the serving analogue of extra_launch_overhead's empty-kernel
// ping) and reports enqueue-to-complete percentiles and sustained
// launches/min. The paper's per-launch overhead gap (§IV-B.4) is a per-call
// number; this is the same cost under admission control, batching and the
// compiled-kernel cache — the target is >1M launches/min with a bounded
// p99, and the compiled-kernel cache is what makes that reachable (exactly
// one compile for the whole flood).
//
// Emits BENCH_serve_latency.json, with the same "host" record as
// BENCH_sim_throughput.json. Perf-smoke support mirrors
// extra_sim_throughput: --write-floor=FILE stores 80% of the measured
// launches/min; --floor-check=FILE re-measures and fails (exit 1) below the
// stored floor (the serve_latency_floor ctest;
// tools/rebaseline_serve_floor.sh re-baselines).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "arch/device_spec.h"
#include "bench_util.h"
#include "common/table.h"
#include "kernel/builder.h"
#include "serve/serve.h"

namespace gpc {
namespace {

std::shared_ptr<const kernel::KernelDef> ping_kernel() {
  kernel::KernelBuilder kb("serve_ping");
  auto out = kb.ptr_param("out", ir::Type::S32);
  kb.st(out, kb.global_id_x(), kb.tid_x());
  return std::make_shared<kernel::KernelDef>(kb.finish());
}

double read_floor(const char* path) {
  std::FILE* f = std::fopen(path, "r");
  if (!f) return -1.0;
  char buf[512];
  const std::size_t got = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[got] = '\0';
  const char* key = std::strstr(buf, "\"floor_launches_per_min\":");
  if (!key) return -1.0;
  return std::atof(key + std::strlen("\"floor_launches_per_min\":"));
}

struct Measurement {
  int jobs = 0;
  double seconds = 0;
  double launches_per_min = 0;
  double p50_us = 0, p95_us = 0, p99_us = 0;
  std::uint64_t cache_misses = 0;
};

Measurement run_flood(int jobs) {
  serve::ServeConfig cfg;
  cfg.workers = 0;  // hardware concurrency
  cfg.shards = 2;
  cfg.queue_cap = jobs;  // admission never interferes with the measurement
  cfg.batch = 16;
  serve::Server server(cfg);
  const auto k = ping_kernel();
  const std::vector<unsigned char> out_buf(32 * sizeof(std::int32_t), 0);

  // Warm the compiled-kernel cache so the flood measures serving, not the
  // one-time compile.
  {
    serve::JobSpec warm;
    warm.kernel = k;
    warm.device = &arch::gtx480();
    warm.grid = {1, 1, 1};
    warm.block = {32, 1, 1};
    warm.args.push_back(serve::JobArg::buffer(out_buf, false));
    server.submit(std::move(warm)).wait();
  }

  std::vector<serve::JobHandle> handles;
  handles.reserve(static_cast<std::size_t>(jobs));
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < jobs; ++i) {
    serve::JobSpec job;
    job.kernel = k;
    job.device = &arch::gtx480();
    job.grid = {1, 1, 1};
    job.block = {32, 1, 1};
    job.args.push_back(serve::JobArg::buffer(out_buf, false));
    handles.push_back(server.submit(std::move(job)));
  }
  server.drain();
  const auto t1 = std::chrono::steady_clock::now();

  Measurement m;
  m.jobs = jobs;
  m.seconds = std::chrono::duration<double>(t1 - t0).count();
  m.launches_per_min = jobs / m.seconds * 60.0;
  std::vector<double> lat_us;
  lat_us.reserve(handles.size());
  for (const auto& h : handles) {
    const serve::Completion& c = h.wait();
    if (c.cls != serve::JobClass::Ok) {
      std::printf("FAIL: flood job %llu ended %s (%s)\n",
                  static_cast<unsigned long long>(c.job_id), c.status.c_str(),
                  c.detail.c_str());
      m.jobs = -1;
      return m;
    }
    lat_us.push_back(static_cast<double>(c.complete_ns - c.submit_ns) * 1e-3);
  }
  std::sort(lat_us.begin(), lat_us.end());
  const auto q = [&](double p) {
    return lat_us[static_cast<std::size_t>(p * (lat_us.size() - 1))];
  };
  m.p50_us = q(0.50);
  m.p95_us = q(0.95);
  m.p99_us = q(0.99);
  m.cache_misses = server.stats().cache_misses;
  server.shutdown();
  return m;
}

/// Closed-loop percentiles: one job in flight at a time, so
/// enqueue-to-complete measures the serving path itself, not the queue wait
/// a saturating flood necessarily adds in front of it.
Measurement run_closed_loop(int jobs) {
  serve::ServeConfig cfg;
  cfg.workers = 1;
  serve::Server server(cfg);
  const auto k = ping_kernel();
  const std::vector<unsigned char> out_buf(32 * sizeof(std::int32_t), 0);
  std::vector<double> lat_us;
  lat_us.reserve(static_cast<std::size_t>(jobs));
  Measurement m;
  m.jobs = jobs;
  for (int i = 0; i < jobs; ++i) {
    serve::JobSpec job;
    job.kernel = k;
    job.device = &arch::gtx480();
    job.grid = {1, 1, 1};
    job.block = {32, 1, 1};
    job.args.push_back(serve::JobArg::buffer(out_buf, false));
    const serve::JobHandle h = server.submit(std::move(job));
    const serve::Completion& c = h.wait();
    if (c.cls != serve::JobClass::Ok) {
      std::printf("FAIL: closed-loop job ended %s (%s)\n", c.status.c_str(),
                  c.detail.c_str());
      m.jobs = -1;
      return m;
    }
    if (i == 0) continue;  // skip the compile-carrying first job
    lat_us.push_back(static_cast<double>(c.complete_ns - c.submit_ns) * 1e-3);
  }
  std::sort(lat_us.begin(), lat_us.end());
  const auto q = [&](double p) {
    return lat_us[static_cast<std::size_t>(p * (lat_us.size() - 1))];
  };
  m.p50_us = q(0.50);
  m.p95_us = q(0.95);
  m.p99_us = q(0.99);
  server.shutdown();
  return m;
}

}  // namespace
}  // namespace gpc

int main(int argc, char** argv) {
  using namespace gpc;
  const auto args = benchbin::parse_args(argc, argv);  // --quick / --prof-out
  const bool quick = args.quick;
  const char* floor_check = nullptr;
  const char* write_floor = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--floor-check=", 14) == 0) {
      floor_check = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--write-floor=", 14) == 0) {
      write_floor = argv[i] + 14;
    }
  }

  benchbin::heading("Serve latency — async launch server under flood load");
  const int jobs = quick ? 20'000 : 60'000;
  const Measurement m = run_flood(jobs);
  if (m.jobs < 0) return 1;
  const Measurement cl = run_closed_loop(quick ? 2'000 : 5'000);
  if (cl.jobs < 0) return 1;

  TextTable t({"Metric", "Value"});
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%d", m.jobs);
  t.add_row({"flood jobs", buf});
  std::snprintf(buf, sizeof(buf), "%.3f s", m.seconds);
  t.add_row({"flood wall time", buf});
  std::snprintf(buf, sizeof(buf), "%.0f", m.launches_per_min);
  t.add_row({"launches/min", buf});
  std::snprintf(buf, sizeof(buf), "%.1f us", m.p99_us);
  t.add_row({"flood p99 (incl. queue wait)", buf});
  std::snprintf(buf, sizeof(buf), "%.1f us", cl.p50_us);
  t.add_row({"closed-loop p50 enqueue->complete", buf});
  std::snprintf(buf, sizeof(buf), "%.1f us", cl.p95_us);
  t.add_row({"closed-loop p95", buf});
  std::snprintf(buf, sizeof(buf), "%.1f us", cl.p99_us);
  t.add_row({"closed-loop p99", buf});
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(m.cache_misses));
  t.add_row({"kernel compiles (cache misses)", buf});
  std::fputs(t.to_string("Serve flood + closed loop").c_str(), stdout);

  bool pass = true;
  if (m.cache_misses != 1) {
    std::printf("FAIL: %llu compiles for one distinct kernel (cache broken)\n",
                static_cast<unsigned long long>(m.cache_misses));
    pass = false;
  }
  const double target = 1e6;
  std::printf("target >1M launches/min: %s (%.2fM)\n",
              m.launches_per_min > target ? "MET" : "MISSED",
              m.launches_per_min / 1e6);
  // The throughput target is enforced in the perf-gated (--floor-check,
  // RUN_SERIAL) context; a profiling/schema run carries tracing overhead
  // and only reports it.
  if (floor_check != nullptr && m.launches_per_min <= target) pass = false;

  // Before fopen truncates the checked-in record, which would mark the
  // commit dirty.
  const std::string host = benchbin::host_json();
  std::FILE* jf = std::fopen("BENCH_serve_latency.json", "w");
  if (jf) {
    std::fprintf(jf,
                 "{\n  \"benchmark\": \"serve_latency\",\n"
                 "  \"host\": %s,\n"
                 "  \"flood_jobs\": %d,\n  \"flood_seconds\": %.6f,\n"
                 "  \"launches_per_min\": %.1f,\n"
                 "  \"flood_p99_us\": %.3f,\n"
                 "  \"closed_loop_p50_us\": %.3f,\n"
                 "  \"closed_loop_p95_us\": %.3f,\n"
                 "  \"closed_loop_p99_us\": %.3f,\n"
                 "  \"cache_misses\": %llu\n}\n",
                 host.c_str(), m.jobs, m.seconds,
                 m.launches_per_min, m.p99_us, cl.p50_us,
                 cl.p95_us, cl.p99_us,
                 static_cast<unsigned long long>(m.cache_misses));
    std::fclose(jf);
    std::printf("wrote BENCH_serve_latency.json\n");
  }

  if (write_floor != nullptr) {
    std::FILE* f = std::fopen(write_floor, "w");
    if (!f) {
      std::printf("FAIL: cannot write %s\n", write_floor);
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"floor_launches_per_min\": %.1f,\n"
                 "  \"measured_launches_per_min\": %.1f,\n"
                 "  \"jobs\": %d\n}\n",
                 m.launches_per_min * 0.8, m.launches_per_min, m.jobs);
    std::fclose(f);
    std::printf("floor written to %s (80%% of measured)\n", write_floor);
  }
  if (floor_check != nullptr) {
    const double floor = read_floor(floor_check);
    if (floor <= 0) {
      std::printf("FAIL: no floor in %s\n", floor_check);
      return 1;
    }
    const bool ok = m.launches_per_min >= floor;
    std::printf("floor check: %.0f launches/min vs floor %.0f -> %s\n",
                m.launches_per_min, floor, ok ? "PASS" : "FAIL");
    if (!ok) pass = false;
  }
  std::printf("%s\n", pass ? "SERVE LATENCY PASS" : "SERVE LATENCY FAIL");
  return pass ? 0 : 1;
}
