// AIWC feature table (gpc::aiwc, DESIGN.md §16): per-kernel architecture-
// independent workload characterization for every registered real-world
// benchmark, in both front-ends, on the production engine and the min-PC
// oracle.
//
// Three outputs:
//  1. The per-kernel feature table (the AIWC paper's Table-of-features
//     analogue) from the production engine, one row per kernel per
//     front-end.
//  2. The engine-identity audit: the FNV-1a digest of every kernel's raw
//     features must be bit-identical between production and the oracle —
//     the observability face of the engine bit-identity contract. Any
//     mismatch is listed and the binary exits non-zero.
//  3. The gap-correlation table: per benchmark, the GTX480 performance
//     ratio (fig03's quantity) next to the issue-weighted OpenCL-minus-CUDA
//     feature deltas — architecture-independent features are front-end
//     invariant in the ideal, so a non-zero delta marks a front-end code
//     difference (texture paths, unroll pragmas, constant memory) and rows
//     are sorted by |1 - PR| to show which deltas travel with the gaps.
//
// --json writes the full per-kernel feature grid (BENCH_aiwc_features.json
// by default) for offline analysis.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "aiwc/aiwc.h"
#include "arch/device_spec.h"
#include "bench_kernels/registry.h"
#include "bench_util.h"
#include "common/table.h"
#include "prof/prof.h"
#include "sim/interp.h"

namespace {
using namespace gpc;

// Engine 0 is the min-PC oracle, engine 1 production (the one hook that
// selects them is sim::set_convergent_fast_path).
constexpr int kNumEngines = 2;
constexpr int kProduction = 1;
const char* const kEngineNames[kNumEngines] = {"oracle", "production"};

double metric(const std::vector<aiwc::Metric>& m, const char* name) {
  for (const aiwc::Metric& x : m) {
    if (x.name == name) return x.value;
  }
  return 0.0;
}

/// Everything we keep per (benchmark, front-end, kernel). Raw features are
/// discarded after each run; only the digest (identity audit) and the
/// production run's finalized metrics (tables, JSON) survive.
struct KernelRow {
  std::vector<aiwc::Metric> metrics;  // from the production run
  std::uint64_t issues = 0;
  std::uint64_t digest[kNumEngines] = {};
  bool seen[kNumEngines] = {};
};

/// Merges the prof recorder's launch stream into per-kernel raw features.
std::map<std::string, aiwc::Features> collect_run() {
  std::map<std::string, aiwc::Features> out;
  for (const prof::Event* ev : prof::recorder().snapshot()) {
    if (ev->kind != prof::Event::Kind::Launch || !ev->launch->aiwc) continue;
    out[ev->launch->kernel].merge(*ev->launch->aiwc);
  }
  return out;
}

/// Issue-weighted mean of one finalized metric over a benchmark's kernels —
/// the per-benchmark summary the correlation table compares across
/// front-ends (raw features of different kernels cannot merge).
double weighted(const std::map<std::string, KernelRow>& kernels,
                const char* name) {
  double sum = 0, weight = 0;
  for (const auto& [k, row] : kernels) {
    sum += metric(row.metrics, name) * static_cast<double>(row.issues);
    weight += static_cast<double>(row.issues);
  }
  return weight > 0 ? sum / weight : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = benchbin::parse_args(argc, argv);
  benchbin::heading(
      "AIWC — architecture-independent workload characterization "
      "(per-kernel features, engine identity, fig03 gap correlation)");

  // Arm collection for every launch this process makes and record launches
  // through gpc::prof; the recorder is cleared between runs, so --prof-out
  // traces from this binary only cover the final run.
  setenv("GPC_AIWC", "1", 1);
  const unsigned prev_modes = prof::recorder().modes();
  if ((prev_modes & prof::kCounters) == 0) {
    prof::recorder().set_modes(prev_modes | prof::kCounters);
  }

  bench::Options opts;
  opts.scale = args.scale;
  const arch::DeviceSpec device = arch::gtx480();

  // data[fe][bench][kernel]; results[fe][bench] from the production run.
  std::map<std::string, std::map<std::string, KernelRow>> data[2];
  std::map<std::string, bench::Result> results[2];
  const auto& benchmarks = bench::real_world_benchmarks();

  for (int e = 0; e < kNumEngines; ++e) {
    sim::set_convergent_fast_path(e == kProduction);
    for (int fe = 0; fe < 2; ++fe) {
      const arch::Toolchain tc =
          fe == 0 ? arch::Toolchain::Cuda : arch::Toolchain::OpenCl;
      for (const bench::Benchmark* b : benchmarks) {
        prof::recorder().clear();
        const bench::Result r = b->run(device, tc, opts);
        for (auto& [kernel, raw] : collect_run()) {
          KernelRow& row = data[fe][b->name()][kernel];
          row.digest[e] = raw.digest();
          row.seen[e] = true;
          if (e == kProduction) {
            row.metrics = aiwc::finalize(raw);
            row.issues = raw.total_issues();
          }
        }
        if (e == kProduction) {
          results[fe][b->name()] = r;
        }
      }
    }
  }
  prof::recorder().clear();
  prof::recorder().set_modes(prev_modes);

  // ---- 1. Per-kernel feature table (production; identical on the oracle).
  for (int fe = 0; fe < 2; ++fe) {
    const char* fe_name = fe == 0 ? "CUDA" : "OpenCL";
    TextTable t({"App.", "Kernel", "Opc H", "Flop %", "Br H", "Div %",
                 "SIMT eff", "Mem H(l0)", "Cold %", "Unit str %",
                 "Bar/warp"});
    for (const auto& [bname, kernels] : data[fe]) {
      for (const auto& [kname, row] : kernels) {
        const std::vector<aiwc::Metric>& m = row.metrics;
        t.add_row({bname, kname, benchbin::fmt(metric(m, "opcode_entropy"), 2),
                   benchbin::fmt(metric(m, "flop_issue_fraction") * 100, 1),
                   benchbin::fmt(metric(m, "branch_entropy"), 3),
                   benchbin::fmt(metric(m, "branch_divergence_rate") * 100, 1),
                   benchbin::fmt(metric(m, "simt_efficiency"), 3),
                   benchbin::fmt(metric(m, "mem_entropy_l0"), 2),
                   benchbin::fmt(metric(m, "reuse_cold_fraction") * 100, 1),
                   benchbin::fmt(metric(m, "stride_unit_fraction") * 100, 1),
                   benchbin::fmt(metric(m, "barriers_per_warp"), 1)});
      }
    }
    std::printf("%s", t.to_string(std::string(fe_name) +
                                  " per-kernel AIWC features (production engine)")
                          .c_str());
  }

  // ---- 2. Engine-identity audit. ----
  int mismatches = 0, rows = 0;
  for (int fe = 0; fe < 2; ++fe) {
    for (const auto& [bname, kernels] : data[fe]) {
      for (const auto& [kname, row] : kernels) {
        ++rows;
        bool ok = true;
        for (int e = 0; e < kNumEngines; ++e) {
          ok &= row.seen[e] && row.digest[e] == row.digest[0];
        }
        if (!ok) {
          ++mismatches;
          std::printf("MISMATCH %s %s/%s digests:", fe == 0 ? "CUDA" : "OpenCL",
                      bname.c_str(), kname.c_str());
          for (int e = 0; e < kNumEngines; ++e) {
            std::printf(" %s=%016llx%s", kEngineNames[e],
                        static_cast<unsigned long long>(row.digest[e]),
                        row.seen[e] ? "" : "(missing)");
          }
          std::printf("\n");
        }
      }
    }
  }
  std::printf(
      "\nEngine identity: %d per-kernel feature vectors x 2 front-ends, "
      "digests %s across oracle/production.\n",
      rows, mismatches == 0 ? "bit-identical" : "NOT IDENTICAL");

  // ---- 3. Gap correlation: |1 - PR| vs OpenCL-minus-CUDA feature deltas. --
  {
    TextTable t({"App.", "PR(480)", "|1-PR|", "dBr H", "dSIMT eff",
                 "dMem H(l0)", "dFlop %", "dBar/warp", "top |delta| feature"});
    struct Row {
      std::string name;
      double pr, gap;
      std::vector<std::string> cells;
    };
    std::vector<Row> rows_v;
    // Unbounded count metrics are excluded from the top-delta argmax: their
    // magnitude tracks problem size, not workload character.
    static const char* kSkipTop[] = {"opcode_unique", "global_unique_words",
                                     "shared_unique_words"};
    for (const bench::Benchmark* b : benchmarks) {
      const std::string name = b->name();
      const auto& ck = data[0][name];
      const auto& ok = data[1][name];
      if (ck.empty() || ok.empty()) continue;
      const double pr =
          bench::performance_ratio(results[1][name], results[0][name]);
      const auto delta = [&](const char* n) {
        return weighted(ok, n) - weighted(ck, n);
      };
      // Scan every finalized metric for the largest front-end delta.
      std::string top = "-";
      double top_d = 0;
      if (!ck.begin()->second.metrics.empty()) {
        for (const aiwc::Metric& m : ck.begin()->second.metrics) {
          bool skip = false;
          for (const char* s : kSkipTop) skip |= m.name == s;
          if (skip) continue;
          const double d = delta(m.name.c_str());
          if (std::abs(d) > std::abs(top_d)) {
            top_d = d;
            top = m.name;
          }
        }
      }
      Row row;
      row.name = name;
      row.pr = pr;
      row.gap = std::abs(1.0 - pr);
      row.cells = {name,
                   benchbin::fmt(pr, 3),
                   benchbin::fmt(row.gap, 3),
                   benchbin::fmt(delta("branch_entropy"), 3),
                   benchbin::fmt(delta("simt_efficiency"), 3),
                   benchbin::fmt(delta("mem_entropy_l0"), 2),
                   benchbin::fmt(delta("flop_issue_fraction") * 100, 1),
                   benchbin::fmt(delta("barriers_per_warp"), 1),
                   top == "-" ? top : top + " " + benchbin::fmt(top_d, 3)};
      rows_v.push_back(std::move(row));
    }
    std::sort(rows_v.begin(), rows_v.end(),
              [](const Row& a, const Row& b) { return a.gap > b.gap; });
    for (const Row& r : rows_v) t.add_row(r.cells);
    std::printf(
        "%s",
        t.to_string("fig03 gap correlation on GTX480 (OpenCL - CUDA "
                    "issue-weighted feature deltas; zero delta + gap => "
                    "runtime difference, non-zero delta => source/front-end "
                    "difference)")
            .c_str());
  }

  // ---- JSON grid. ----
  if (args.json) {
    const std::string path = args.json_out.empty() ? "BENCH_aiwc_features.json"
                                                   : args.json_out;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    } else {
      std::fprintf(f, "{\n");
      for (int fe = 0; fe < 2; ++fe) {
        std::fprintf(f, "\"%s\": {\n", fe == 0 ? "CUDA" : "OpenCL");
        bool first_b = true;
        for (const auto& [bname, kernels] : data[fe]) {
          std::fprintf(f, "%s  \"%s\": {", first_b ? "" : ",\n",
                       bname.c_str());
          first_b = false;
          bool first_k = true;
          for (const auto& [kname, row] : kernels) {
            std::fprintf(f, "%s\n    \"%s\": {\"digest\": \"%016llx\"",
                         first_k ? "" : ",", kname.c_str(),
                         static_cast<unsigned long long>(row.digest[0]));
            first_k = false;
            for (const aiwc::Metric& m : row.metrics) {
              std::fprintf(f, ", \"%s\": %.9g", m.name.c_str(), m.value);
            }
            std::fprintf(f, "}");
          }
          std::fprintf(f, "}");
        }
        std::fprintf(f, "\n}%s\n", fe == 0 ? "," : "");
      }
      std::fprintf(f, "}\n");
      std::fclose(f);
      std::printf("\nFeature grid written to %s\n", path.c_str());
    }
  }

  return mismatches == 0 ? 0 : 1;
}
