// nvprof-style end-of-run summary: per-runtime kernel table (calls, total,
// avg, % of that runtime's device time, avg launch overhead, limiter) and a
// host API-call table, aggregated from the recorded events.
#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/log.h"
#include "common/table.h"
#include "prof/prof.h"
#include "resil/fault.h"

namespace gpc::prof {
namespace {

struct KernelAgg {
  int calls = 0;
  double seconds = 0;       // simulated device seconds, incl. launch overhead
  double launch_seconds = 0;
  const char* limiter = "";
};

struct ApiAgg {
  int calls = 0;
  double seconds = 0;  // host wall-clock
};

std::string pct(double part, double whole) {
  return whole > 0 ? TextTable::num(100.0 * part / whole, 1) + "%" : "-";
}

/// Metric value by name from a finalize()d feature vector (0 if absent).
double metric(const std::vector<aiwc::Metric>& m, const char* name) {
  for (const aiwc::Metric& x : m) {
    if (x.name == name) return x.value;
  }
  return 0.0;
}

}  // namespace

std::string Recorder::summary() const {
  // Keyed by runtime then kernel name; std::map keeps the output stable.
  std::map<std::string, KernelAgg> kernels[2];
  double device_seconds[2] = {0, 0};
  std::map<std::string, ApiAgg> api;
  // Serving-layer aggregation (gpc::serve completions).
  struct ServeAgg {
    std::uint64_t jobs = 0;
    std::uint64_t by_class[4] = {};  // OK / DEG / ABT / SHED
    std::uint64_t batch_sum = 0;
    std::uint64_t max_queue_depth = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
  } serve;
  const auto serve_class_index = [](const std::string& c) {
    if (c == "OK") return 0;
    if (c == "DEG") return 1;
    if (c == "ABT") return 2;
    return 3;  // SHED
  };
  // AIWC raw features merged per (runtime, kernel) — merging before
  // finalize() keeps the derived metrics a pure function of the summed
  // integral data, the same contract split launches rely on.
  std::map<std::string, aiwc::Features> aiwc_agg[2];

  for (const Event* ev : snapshot()) {
    if (ev->kind == Event::Kind::Launch) {
      const LaunchRecord& l = *ev->launch;
      const int rt = l.toolchain == arch::Toolchain::Cuda ? 0 : 1;
      KernelAgg& a = kernels[rt][l.kernel];
      ++a.calls;
      a.seconds += l.timing.seconds;
      a.launch_seconds += l.timing.launch_s;
      a.limiter = l.timing.occupancy.limiter;
      device_seconds[rt] += l.timing.seconds;
      if (l.aiwc) {
        aiwc::Features& agg = aiwc_agg[rt][l.kernel];
        // Same kernel name, different program (e.g. a rebuilt variant):
        // keep the first program's aggregate rather than aborting on the
        // merge-size check.
        if (agg.site_issues.empty() ||
            agg.site_issues.size() == l.aiwc->site_issues.size()) {
          agg.merge(*l.aiwc);
        }
      }
    } else if (ev->kind == Event::Kind::Span && ev->track == Track::Host) {
      ApiAgg& a = api[ev->name];
      ++a.calls;
      a.seconds += static_cast<double>(ev->end_ns - ev->start_ns) * 1e-9;
    } else if (ev->kind == Event::Kind::Serve) {
      const ServeRecord& s = *ev->serve;
      ++serve.jobs;
      ++serve.by_class[serve_class_index(s.cls)];
      serve.batch_sum += static_cast<std::uint64_t>(s.batch);
      serve.max_queue_depth = std::max(
          serve.max_queue_depth, static_cast<std::uint64_t>(s.queue_depth));
      if (s.cls == "OK" || s.cls == "DEG") {
        ++(s.cache_hit ? serve.cache_hits : serve.cache_misses);
      }
    }
  }

  // Which knobs produced this run: every GPC_* variable of the process.
  std::string out = "\ngpc::prof summary\nGPC_* set:";
  const auto vars = config::gpc_vars();
  for (const auto& [name, value] : vars) out += " " + name + "=" + value;
  out += vars.empty() ? " (none)\n" : "\n";
  for (int rt = 0; rt < 2; ++rt) {
    if (kernels[rt].empty()) continue;
    const char* rt_name = rt == 0 ? "CUDA" : "OpenCL";
    TextTable t({"Kernel", "Calls", "Total ms", "Avg us", "Launch us/call",
                 "Time %", "Occ. limiter"});
    // Rows sorted by total time, heaviest first, like nvprof.
    std::vector<std::pair<std::string, KernelAgg>> rows(kernels[rt].begin(),
                                                        kernels[rt].end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.second.seconds > b.second.seconds;
    });
    for (const auto& [name, a] : rows) {
      t.add_row({name, std::to_string(a.calls),
                 TextTable::num(a.seconds * 1e3, 3),
                 TextTable::num(a.seconds * 1e6 / a.calls, 2),
                 TextTable::num(a.launch_seconds * 1e6 / a.calls, 2),
                 pct(a.seconds, device_seconds[rt]), a.limiter});
    }
    out += t.to_string(std::string(rt_name) + " kernels (simulated device time: " +
                       TextTable::num(device_seconds[rt] * 1e3, 3) + " ms)");
  }

  if (!api.empty()) {
    TextTable t({"API call", "Calls", "Total ms", "Avg us"});
    std::vector<std::pair<std::string, ApiAgg>> rows(api.begin(), api.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.second.seconds > b.second.seconds;
    });
    for (const auto& [name, a] : rows) {
      t.add_row({name, std::to_string(a.calls),
                 TextTable::num(a.seconds * 1e3, 3),
                 TextTable::num(a.seconds * 1e6 / a.calls, 2)});
    }
    out += t.to_string("Host API calls (wall clock)");
  }

  // AIWC workload characterization (gpc::aiwc, DESIGN.md §16): one row per
  // kernel with the headline architecture-independent features, merged over
  // every launch of that kernel. Only present when GPC_AIWC armed collection.
  for (int rt = 0; rt < 2; ++rt) {
    if (aiwc_agg[rt].empty()) continue;
    const char* rt_name = rt == 0 ? "CUDA" : "OpenCL";
    TextTable t({"Kernel", "Opc H", "Br H", "SIMT eff", "Mem H(l0)",
                 "Cold %", "Unit str %", "Bar/warp"});
    for (const auto& [name, raw] : aiwc_agg[rt]) {
      const std::vector<aiwc::Metric> m = aiwc::finalize(raw);
      t.add_row({name, TextTable::num(metric(m, "opcode_entropy"), 2),
                 TextTable::num(metric(m, "branch_entropy"), 3),
                 TextTable::num(metric(m, "simt_efficiency"), 3),
                 TextTable::num(metric(m, "mem_entropy_l0"), 2),
                 TextTable::num(metric(m, "reuse_cold_fraction") * 100, 1),
                 TextTable::num(metric(m, "stride_unit_fraction") * 100, 1),
                 TextTable::num(metric(m, "barriers_per_warp"), 1)});
    }
    out += t.to_string(std::string(rt_name) +
                       " AIWC features (architecture-independent)");
  }

  // Span-latency percentiles from the lock-free log2-bucket histograms:
  // the launch/memcpy/build latency distribution tails (bucket upper
  // bounds, exact to a factor of 2), nvprof's missing p99 column.
  {
    static const char* kCats[4] = {"api", "xfer", "compile", "serve"};
    static const char* kLabels[4] = {"launch/API", "memcpy", "build",
                                     "serve e2e"};
    TextTable t({"Span", "Count", "p50 us", "p95 us", "p99 us"});
    bool have = false;
    for (int i = 0; i < 4; ++i) {
      const LatencyPercentiles p = span_latency(kCats[i]);
      if (p.count == 0) continue;
      have = true;
      t.add_row({kLabels[i], std::to_string(p.count),
                 TextTable::num(static_cast<double>(p.p50_ns) * 1e-3, 2),
                 TextTable::num(static_cast<double>(p.p95_ns) * 1e-3, 2),
                 TextTable::num(static_cast<double>(p.p99_ns) * 1e-3, 2)});
    }
    if (have) out += t.to_string("Host span latency percentiles (log2 buckets)");
  }

  // Serving activity (gpc::serve): job classification mix, queue/batch
  // shape and the compiled-kernel cache hit rate. Omitted when no jobs were
  // served, so non-serving runs keep their familiar report.
  if (serve.jobs > 0) {
    TextTable t({"Metric", "Value"});
    t.add_row({"jobs served", std::to_string(serve.jobs)});
    t.add_row({"OK", std::to_string(serve.by_class[0])});
    t.add_row({"DEG", std::to_string(serve.by_class[1])});
    t.add_row({"ABT", std::to_string(serve.by_class[2])});
    t.add_row({"SHED (load shed)", std::to_string(serve.by_class[3])});
    t.add_row({"max queue depth", std::to_string(serve.max_queue_depth)});
    t.add_row({"avg batch size",
               TextTable::num(static_cast<double>(serve.batch_sum) /
                                  static_cast<double>(serve.jobs),
                              2)});
    const std::uint64_t lookups = serve.cache_hits + serve.cache_misses;
    t.add_row({"kernel-cache hit rate",
               lookups == 0 ? std::string("-")
                            : TextTable::num(100.0 *
                                                 static_cast<double>(
                                                     serve.cache_hits) /
                                                 static_cast<double>(lookups),
                                             1) +
                                  "% (" + std::to_string(serve.cache_hits) +
                                  "/" + std::to_string(lookups) + ")"});
    out += t.to_string("Serving (gpc::serve)");
  }

  // Resilience activity (gpc::resil counters): a soak's recovery story —
  // how often the policy layer retried, split, degraded, how many watchdog
  // trips and quarantined wrong-result runs — without parsing the JSONL
  // stream. Omitted entirely when nothing happened, so quiet runs keep the
  // familiar two-table report.
  {
    const resil::Counters& c = resil::counters();
    const std::uint64_t retries =
        c.retries.load(std::memory_order_relaxed);
    const std::uint64_t splits =
        c.split_launches.load(std::memory_order_relaxed);
    const std::uint64_t degraded =
        c.degraded_launches.load(std::memory_order_relaxed);
    const std::uint64_t trips =
        c.watchdog_trips.load(std::memory_order_relaxed);
    const std::uint64_t quarantined =
        c.quarantined.load(std::memory_order_relaxed);
    if (retries + splits + degraded + trips + quarantined > 0) {
      TextTable t({"Event", "Count"});
      t.add_row({"retries", std::to_string(retries)});
      t.add_row({"split launches", std::to_string(splits)});
      t.add_row({"degraded launches", std::to_string(degraded)});
      t.add_row({"watchdog trips", std::to_string(trips)});
      t.add_row({"quarantined (FL)", std::to_string(quarantined)});
      out += t.to_string("Resilience (gpc::resil recovery activity)");
    }
  }
  return out;
}

void Recorder::report(std::FILE* out) {
  const unsigned m = modes();
  if (m == kOff) return;

  std::string dir;
  {
    std::lock_guard<std::mutex> lock(register_mutex_);
    dir = output_dir_;
  }
  if ((m & (kTrace | kCounters)) != 0 && !dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      GPC_LOG(Error) << "prof: cannot create output dir " << dir << ": "
                     << ec.message();
    }
  }
  const std::string prefix = dir.empty() ? std::string() : dir + "/";
  if ((m & kTrace) != 0) {
    const std::string path = prefix + "trace.json";
    if (write_chrome_trace(path)) {
      std::fprintf(out, "gpc::prof: wrote %s (open in https://ui.perfetto.dev)\n",
                   path.c_str());
    }
  }
  if ((m & kCounters) != 0) {
    const std::string path = prefix + "counters.jsonl";
    if (write_counters_jsonl(path)) {
      std::fprintf(out, "gpc::prof: wrote %s\n", path.c_str());
    }
    // The AIWC feature stream rides the counters mode: it only appears when
    // some launch actually carried features (GPC_AIWC armed), so disarmed
    // runs produce byte-identical prof output to pre-aiwc builds.
    const std::string apath = prefix + "aiwc.jsonl";
    if (write_aiwc_jsonl(apath)) {
      std::fprintf(out, "gpc::prof: wrote %s\n", apath.c_str());
    }
  }
  if ((m & kSummary) != 0) {
    std::fprintf(out, "%s", summary().c_str());
  }
}

}  // namespace gpc::prof
