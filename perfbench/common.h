// Shared pieces of the workload program: run arguments, the record every
// workload fills, order statistics, and the simulated-outcome digest.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "harness/benchmark.h"
#include "sim/launch.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 0;        // problem scale for the sweeps; 0 = workload default
  int passes = 0;          // fixed pass count; 0 = as many as fit in `seconds`
  std::string repo = ".";  // checkout root (reads bench/table06_expected.json)
  int nproc = 1;           // CPUs this process may run on
  int sim_threads = 0;     // simulator pool size (GPC_SIM_THREADS)
};

/// What one run measured and checked. An op fails when its outcome differs
/// from the expected one. `cells` maps a cell name to the hash of its first
/// simulated outcome (run.py combines them into an order-independent
/// digest); `unstable` names the cells whose later ops produced another one.
struct RunRecord {
  long long ops = 0;
  long long failed_ops = 0;
  std::vector<std::string> failures;  // the first few, for the log
  std::map<std::string, double> metrics;
  std::map<std::string, std::uint64_t> cells;
  std::set<std::string> unstable;

  void fail(const std::string& what);
  void record_cell(const std::string& cell, std::uint64_t hash);
};

double now_s();
double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double p);
/// Passes to run: `passes` when fixed, else until `budget_s` has elapsed
/// since `start_s`, but at least `min_passes`.
bool more_passes(int done, int passes, int min_passes, double start_s,
                 double budget_s);
/// Wall seconds of one call of `fn`. Untraced runs time their set-up once
/// before the first pass and again before every pass, and report the
/// median as setup_s, so it samples the whole run and not its first moments.
double timed(const std::function<void()>& fn);
/// Runs `setup` under the gpc::prof recorder; its compile spans become
/// compiler.build_ms and compiler.builds.
void record_compiles(const std::function<void()>& setup, RunRecord& rec);
/// Deterministic permutation of [0, n) drawn from `rng_state`.
std::vector<int> permutation(std::size_t n, std::uint64_t* rng_state);

/// FNV-1a over the fields of a simulated outcome.
class Hasher {
 public:
  void bytes(const void* p, std::size_t n);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void stats(const gpc::sim::BlockStats& s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Hash of a benchmark cell: status, metric value, simulated seconds (total
/// and per timing-model component), launch count and the merged BlockStats.
std::uint64_t hash_result(const gpc::bench::Result& r);
/// Hash of one kernel launch's simulated outcome plus its output checksum.
std::uint64_t hash_launch(const gpc::sim::LaunchResult& r,
                          std::uint64_t output_hash);

/// Warp instructions issued (one bump per scheduler-issued instruction).
std::uint64_t warp_instructions(const gpc::sim::BlockStats& s);

std::string hex64(std::uint64_t v);

// The workloads. Each fills `rec` with ops, failures, cell hashes and the
// end-to-end (args.trace false) or per-layer (args.trace true) metrics.
void run_sweep(const RunArgs& args, bool portability, RunRecord& rec);
void run_storm(const RunArgs& args, RunRecord& rec);
void run_flood(const RunArgs& args, RunRecord& rec);

}  // namespace perfbench
