// Shared scaffolding for the figure/table reproduction binaries.
//
// Every binary prints (1) the paper's reported numbers or qualitative claim
// and (2) the simulator's measured values, in fixed-width tables, so
// bench_output.txt is directly comparable to the paper's evaluation section.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <thread>

#include "arch/device_spec.h"
#include "common/config.h"
#include "common/error.h"
#include "common/log.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "harness/benchmark.h"
#include "prof/prof.h"

namespace gpc::benchbin {

struct Args {
  double scale = 1.0;
  bool quick = false;
  bool verbose = false;       // per-launch explanations + info-level logging
  std::string prof_out;       // --prof-out DIR: export trace.json/counters.jsonl
  std::string json_out;       // --json FILE: machine-readable outcome/result grid
  bool json = false;          // --json given (bare form: binary picks filename)
};

inline std::terminate_handler default_terminate = nullptr;

/// Ends the process on an exception no main catches: an InvalidArgument
/// (a malformed GPC_* value read per launch, a bad option) prints its
/// one-line message and exits 2, any other gpc::Error prints its message and
/// exits 1. Anything else goes to the default handler.
[[noreturn]] inline void exit_on_error() {
  if (const std::exception_ptr e = std::current_exception()) {
    try {
      std::rethrow_exception(e);
    } catch (const InvalidArgument& err) {
      config::exit_with(err.what());
    } catch (const Error& err) {
      std::fflush(stdout);
      std::fprintf(stderr, "%s\n", err.what());
      std::_Exit(1);
    } catch (...) {
    }
  }
  if (default_terminate != nullptr) default_terminate();
  std::abort();
}

/// Parses the common options. Also installs exit_on_error() and rejects
/// unknown GPC_* variable names (exit 2), before any work starts.
inline Args parse_args(int argc, char** argv) {
  if (std::get_terminate() != exit_on_error) {
    default_terminate = std::set_terminate(exit_on_error);
  }
  config::or_exit(config::require_known_names);
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      a.quick = true;
      a.scale = 0.25;
    } else if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      a.scale = std::atof(argv[i] + 8);
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      a.verbose = true;
      log::set_threshold(log::Level::Info);
    } else if (std::strncmp(argv[i], "--prof-out=", 11) == 0) {
      a.prof_out = argv[i] + 11;
    } else if (std::strcmp(argv[i], "--prof-out") == 0 && i + 1 < argc) {
      a.prof_out = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      a.json_out = argv[i] + 7;
      a.json = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      // Bare --json: the binary writes its default BENCH_*.json filename.
      a.json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') a.json_out = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: %s [--quick] [--scale=X] [--verbose] [--prof-out DIR] "
          "[--json FILE]\n"
          "  --verbose        info-level logging + per-launch timing "
          "breakdowns\n"
          "  --json FILE      write a machine-readable outcome grid (where\n"
          "                   the binary supports it, e.g. "
          "table06_portability)\n"
          "  --prof-out DIR   enable gpc::prof trace+counters and write\n"
          "                   DIR/trace.json (Perfetto) and "
          "DIR/counters.jsonl\n"
          "                   at exit (GPC_PROF adds summary mode)\n",
          argv[0]);
      std::exit(0);
    }
  }
  if (!a.prof_out.empty()) {
    // Arms trace+counters collection and the process-exit export.
    prof::recorder().set_output_dir(a.prof_out);
  }
  return a;
}

inline void heading(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline std::string fmt(double v, int prec = 3) {
  return gpc::TextTable::num(v, prec);
}

/// Formats a result value or its failure status (Table VI's FL/ABT style).
/// Seconds-metric values get more decimals — kernel times are sub-ms here.
inline std::string value_or_status(const bench::Result& r, int prec = -1) {
  if (!r.ok()) return r.status;
  if (prec < 0) prec = r.metric == bench::Metric::Seconds ? 6 : 3;
  return fmt(r.value, prec);
}

/// Verbose-mode explanation table: where did a run's kernel time go
/// (timing-model components) and what limited its occupancy. Shared by
/// fig03/fig09 so PR outliers are explainable without a debugger.
inline TextTable breakdown_table() {
  return TextTable({"Run", "st", "launches", "kernel ms", "launch ms",
                    "issue ms", "dram ms", "occ", "limiter"});
}

inline void add_breakdown_row(TextTable& t, const std::string& label,
                              const bench::Result& r) {
  t.add_row({label, r.status, std::to_string(r.launches),
             fmt(r.seconds * 1e3, 3), fmt(r.launch_seconds * 1e3, 3),
             fmt(r.issue_seconds * 1e3, 3), fmt(r.dram_seconds * 1e3, 3),
             fmt(100.0 * r.occupancy.fraction, 0) + "%",
             r.occupancy.limiter});
}

/// The commit the binary was run from (`git describe --always --dirty`),
/// or "unknown" outside a git checkout.
inline std::string commit() {
  std::string out;
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> p(
      popen("git describe --always --dirty --abbrev=12 2>/dev/null", "r"),
      pclose);
  if (p) {
    char buf[128];
    while (std::fgets(buf, sizeof(buf), p.get())) out += buf;
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

/// `s` as a JSON string literal.
inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// The "host" object every BENCH_*.json record carries, so numbers from
/// different machines, builds or configurations are never compared by
/// accident: cores, simulator threads, build type, compiler, commit, and
/// every GPC_* variable set in the process ("env").
inline std::string host_json() {
  std::string env;
  for (const auto& [name, value] : config::gpc_vars()) {
    if (!env.empty()) env += ", ";
    env += json_string(name) + ": " + json_string(value);
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %u, \"sim_threads\": %zu, "
                "\"build_type\": \"%s\", \"compiler\": \"%s\", "
                "\"commit\": \"%s\", \"env\": {",
                std::thread::hardware_concurrency(),
                ThreadPool::shared().slots(),
                GPC_BUILD_TYPE, GPC_COMPILER, commit().c_str());
  return buf + env + "}}";
}

}  // namespace gpc::benchbin
