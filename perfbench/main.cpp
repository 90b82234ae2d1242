// Workload program of the repository benchmark. run.py builds it and calls
//
//   perfbench_workloads --workload W --seed N --seconds S --trace 0|1
//                    [--passes N] [--scale X] [--sim-threads N] [--repo DIR]
//
// It runs one workload, checks its outputs and prints one JSON object as
// the last line of stdout: ops and failed ops, the end-to-end (trace 0) or
// per-layer (trace 1) metrics, the per-cell simulated-outcome hashes, the
// cells whose outcome varied between ops, and the run's provenance. Progress and failures go to stderr.
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"
#include "common/thread_pool.h"

extern char** environ;

namespace {

using perfbench::RunArgs;
using perfbench::RunRecord;

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_workloads: %s\nusage: perfbench_workloads --workload W "
               "--seed N --seconds S --trace 0|1 [--passes N] [--scale X] "
               "[--sim-threads N] [--repo DIR]\n",
               msg);
  return 2;
}

int cpu_count() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return 1;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Every GPC_* variable in the environment, as a JSON object.
std::string gpc_env_json() {
  std::string out = "{";
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "GPC_", 4) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    if (eq == nullptr) continue;
    if (out.size() > 1) out += ", ";
    out += json_str(std::string(*e, static_cast<std::size_t>(eq - *e))) + ": " + json_str(eq + 1);
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      args.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      args.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (k == "--passes") {
      args.passes = std::atoi(v.c_str());
    } else if (k == "--scale") {
      args.scale = std::atof(v.c_str());
    } else if (k == "--sim-threads") {
      args.sim_threads = std::atoi(v.c_str());
    } else if (k == "--repo") {
      args.repo = v;
    } else {
      return usage(("unknown argument " + k).c_str());
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || !have_trace ||
      args.seconds <= 0) {
    return usage("missing or malformed arguments");
  }

  // A GPC_* knob set from outside would change what is measured without
  // the result saying so: refuse to time such a run.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "GPC_", 4) == 0) {
      std::fprintf(stderr,
                   "perfbench_workloads: refusing to time with %s set; the "
                   "benchmark sets its own GPC_* knobs\n",
                   *e);
      return 2;
    }
  }
  args.nproc = cpu_count();
  if (args.sim_threads <= 0) args.sim_threads = args.nproc;
  // The workloads' one knob: the simulator pool size, read once when the
  // pool is first used.
  setenv("GPC_SIM_THREADS", std::to_string(args.sim_threads).c_str(), 1);

  RunRecord rec;
  try {
    if (args.workload == "paper_fig03") {
      perfbench::run_sweep(args, /*portability=*/false, rec);
    } else if (args.workload == "portability_table06") {
      perfbench::run_sweep(args, /*portability=*/true, rec);
    } else if (args.workload == "launch_storm") {
      perfbench::run_storm(args, rec);
    } else if (args.workload == "serve_flood") {
      perfbench::run_flood(args, rec);
    } else {
      return usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workloads: %s failed: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }
  if (!args.trace) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    rec.metrics["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
  }
  for (const std::string& f : rec.failures) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }

  std::string out = "{\"workload\": " + json_str(args.workload) +
                    ", \"seed\": " + std::to_string(args.seed) +
                    ", \"trace\": " + (args.trace ? "1" : "0") +
                    ", \"ops\": " + std::to_string(rec.ops) +
                    ", \"failed_ops\": " + std::to_string(rec.failed_ops) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : rec.metrics) {
    out += std::string(first ? "" : ", ") + json_str(k) + ": " + json_num(v);
    first = false;
  }
  out += "}, \"cells\": {";
  first = true;
  for (const auto& [k, v] : rec.cells) {
    out += std::string(first ? "" : ", ") + json_str(k) + ": " +
           json_str(perfbench::hex64(v));
    first = false;
  }
  out += "}, \"unstable\": [";
  first = true;
  for (const std::string& c : rec.unstable) {
    out += std::string(first ? "" : ", ") + json_str(c);
    first = false;
  }
  out += "], \"provenance\": {\"nproc\": " + std::to_string(args.nproc) +
         ", \"sim_threads\": " + std::to_string(args.sim_threads) +
         ", \"pool_workers\": " +
         std::to_string(gpc::ThreadPool::shared().size()) +
         ", \"build_type\": " + json_str(PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " + json_str(PERFBENCH_COMPILER) +
         ", \"gpc_env\": " + gpc_env_json() + "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
