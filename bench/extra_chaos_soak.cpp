// Chaos soak (PR 5 acceptance harness): every registered Table II benchmark
// runs under seeded fault injection with the resilience policy armed, across
// several seeds, devices and toolchains. Three assertions:
//
//   1. every run TERMINATES with a classified outcome (OK/DEG/FL/ABT) —
//      no hang, no escaped exception, no crash;
//   2. the full soak performs >= 100 seeded chaos runs;
//   3. replaying the first seed reproduces its outcome vector bit-for-bit
//      (the determinism guarantee of resil::FaultPlan + policy backoff).
//
// Exit code 0 on success, 1 on any violation — wired into ctest as
// "chaos_soak" (label: resil) and driven standalone by tools/run_chaos.sh.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "arch/device_spec.h"
#include "bench_kernels/registry.h"
#include "bench_util.h"
#include "resil/fault.h"
#include "resil/policy.h"

namespace {

using namespace gpc;

struct Config {
  const arch::DeviceSpec* device;
  arch::Toolchain tc;
};

/// One seeded pass over all 14 benchmarks; returns the outcome vector.
/// Each benchmark gets a fresh plan arming every site at moderate
/// probability — high enough that most runs see faults, low enough that the
/// retry/degrade machinery can usually carry the run to OK/DEG.
std::vector<std::string> soak_pass(std::uint64_t seed, const Config& cfg,
                                   const bench::Options& opts, bool* clean) {
  std::vector<std::string> outcomes;
  for (const bench::Benchmark* b : bench::real_world_benchmarks()) {
    auto& plan = resil::plan();
    plan.reset();
    resil::SiteSpec enq;
    enq.enabled = true;
    enq.probability = 0.10;
    enq.seed = seed * 0x9E37u + 1;
    plan.set(resil::Site::Enqueue, enq);
    resil::SiteSpec mid;
    mid.enabled = true;
    mid.probability = 0.05;
    mid.seed = seed * 0x9E37u + 2;
    plan.set(resil::Site::MidGrid, mid);
    resil::SiteSpec hang;
    hang.enabled = true;
    hang.probability = 0.03;
    hang.seed = seed * 0x9E37u + 3;
    plan.set(resil::Site::Hang, hang);
    resil::SiteSpec build;
    build.enabled = true;
    build.probability = 0.25;
    build.seed = seed * 0x9E37u + 4;
    build.count = 2;  // transient: exhausted within the retry budget
    plan.set(resil::Site::Build, build);
    resil::SiteSpec mcpy;
    mcpy.enabled = true;
    mcpy.probability = 0.10;
    mcpy.seed = seed * 0x9E37u + 5;
    mcpy.count = 4;
    plan.set(resil::Site::Memcpy, mcpy);

    std::string status;
    try {
      status = b->run(*cfg.device, cfg.tc, opts).status;
    } catch (const InvalidArgument&) {
      throw;  // a malformed setting, not a run outcome: exit 2
    } catch (const std::exception& e) {
      std::printf("  UNCLASSIFIED: %s escaped with: %s\n", b->name().c_str(),
                  e.what());
      status = "ESCAPED";
    }
    if (status != "OK" && status != "DEG" && status != "FL" &&
        status != "ABT") {
      *clean = false;
    }
    outcomes.push_back(b->name() + "=" + status);
  }
  return outcomes;
}

std::string join(const std::vector<std::string>& v) {
  std::string s;
  for (const auto& x : v) s += x + " ";
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gpc;
  const auto args = benchbin::parse_args(argc, argv);
  benchbin::heading("Chaos soak — seeded fault injection over all benchmarks");

  // Fast deterministic backoff so the soak spends its time in kernels, not
  // sleeps; degradation on so structural pressure ends DEG instead of ABT.
  resil::Policy pol;
  pol.max_retries = 3;
  pol.backoff_base_us = 1;
  pol.jitter_seed = 42;
  pol.degrade = true;
  // Watchdog armed BY DEFAULT: a chaos run that stalls for any unclassified
  // reason must trip the per-block step budget and end as a diagnosed
  // DeviceFault ("ABT"), not eat the whole ctest timeout. GPC_WATCHDOG in
  // the environment still wins so a tighter/looser budget can be imposed
  // from outside (tools/run_chaos.sh).
  if (pol.watchdog_budget == 0) {
    pol.watchdog_budget = resil::policy_from_env().watchdog_budget;
  }
  if (pol.watchdog_budget == 0) {
    pol.watchdog_budget = 200'000'000;  // >10x any soak kernel's block cost
  }
  resil::set_policy_override(pol);

  bench::Options opts;
  opts.scale = args.quick ? 0.1 : 0.25;

  // Rotate device/toolchain per seed: CUDA on the NVIDIA parts, OpenCL
  // everywhere the paper runs it (Cell/BE excluded here purely for soak
  // wall-clock; table06_portability covers it).
  const Config configs[] = {
      {&arch::gtx280(), arch::Toolchain::Cuda},
      {&arch::gtx480(), arch::Toolchain::Cuda},
      {&arch::gtx480(), arch::Toolchain::OpenCl},
      {&arch::hd5870(), arch::Toolchain::OpenCl},
      {&arch::intel920(), arch::Toolchain::OpenCl},
  };
  const int kSeeds = 8;  // 8 seeds x 14 benchmarks = 112 chaos runs

  bool clean = true;
  int runs = 0;
  std::vector<std::string> first_pass;
  for (int s = 0; s < kSeeds; ++s) {
    const Config& cfg = configs[s % (sizeof(configs) / sizeof(configs[0]))];
    const auto outcomes =
        soak_pass(static_cast<std::uint64_t>(s) + 1, cfg, opts, &clean);
    runs += static_cast<int>(outcomes.size());
    if (s == 0) first_pass = outcomes;
    std::printf("seed %d [%s/%s]: %s\n", s + 1, cfg.device->short_name.c_str(),
                arch::to_string(cfg.tc), join(outcomes).c_str());
  }

  // Determinism: replay seed 1 and demand the identical outcome vector.
  bool replay_clean = true;
  const auto replay = soak_pass(1, configs[0], opts, &replay_clean);
  const bool reproducible = replay == first_pass && replay_clean;
  std::printf("replay seed 1: %s\n", join(replay).c_str());

  const auto& c = resil::counters();
  std::printf(
      "\n%d seeded runs + %zu replay runs; injections=%llu (cumulative "
      "plan resets zero per-pass counters)\n"
      "counters: retries=%llu splits=%llu degraded=%llu watchdog=%llu "
      "quarantined=%llu\n",
      runs, replay.size(),
      static_cast<unsigned long long>(resil::plan().total_injections()),
      static_cast<unsigned long long>(c.retries.load()),
      static_cast<unsigned long long>(c.split_launches.load()),
      static_cast<unsigned long long>(c.degraded_launches.load()),
      static_cast<unsigned long long>(c.watchdog_trips.load()),
      static_cast<unsigned long long>(c.quarantined.load()));

  resil::plan().reset();
  resil::set_policy_override(std::nullopt);

  bool pass = true;
  if (!clean) {
    std::printf("FAIL: at least one run ended unclassified\n");
    pass = false;
  }
  if (runs < 100) {
    std::printf("FAIL: only %d seeded runs (need >= 100)\n", runs);
    pass = false;
  }
  if (!reproducible) {
    std::printf("FAIL: seed 1 replay diverged from its first pass\n");
    pass = false;
  }
  std::printf("%s\n", pass ? "CHAOS SOAK PASS" : "CHAOS SOAK FAIL");
  return pass ? 0 : 1;
}
