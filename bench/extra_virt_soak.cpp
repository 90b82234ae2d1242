// Virtualization soak (PR 6 acceptance harness) — proves the three gpc::virt
// claims end to end:
//
//   1. OVERHEAD: at tenants=1 the scheduler's fast path adds <= 2% (median
//      over configs of the median paired delta of interleaved A/B runs) to
//      benchmark wall time.
//   2. FAIRNESS: tenants weighted 4:2:1:1 submitting continuously split the
//      contended device in proportion to their weights (Jain index over
//      weight-normalized shares, per-tenant band check).
//   3. ISOLATION: hundreds of concurrent tenant sessions (16 tenants x 13
//      rounds = 208) run the full benchmark registry while every 4th tenant
//      is a victim with a private seeded fault plan (hang/midgrid/enqueue).
//      Victims end classified (never hung); non-victims complete with
//      results BIT-IDENTICAL to an unvirtualized baseline and bounded
//      slowdown; replaying round 1 reproduces its outcome vector
//      bit-for-bit (per-tenant plans are sampled on the submitting thread
//      in program order, so outcomes are independent of cross-tenant
//      scheduling).
//
// Emits BENCH_virt_fairness.json (per-tenant shares, Jain index, overhead
// deltas, soak counts) for tracking. Exit 0 on success, 1 on any violation —
// wired into ctest as "virt_soak" (label: virt) and driven standalone by
// tools/run_virt_soak.sh. Seeded via GPC_VIRT_SEED (default 1).
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/device_spec.h"
#include "bench_kernels/registry.h"
#include "bench_util.h"
#include "common/config.h"
#include "common/table.h"
#include "harness/session.h"
#include "kernel/builder.h"
#include "resil/fault.h"
#include "virt/virt.h"

namespace {

using namespace gpc;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Bit-exact digest of a benchmark result: status, the value and flops
/// doubles as raw bits, the integer issue totals. Two runs with the same
/// fingerprint computed the same answer the same way.
std::string fingerprint(const bench::Result& r) {
  char buf[128];
  std::snprintf(buf, sizeof buf, ":%016llx:%016llx:%llu:%d",
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(r.value)),
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(r.stats.flops)),
                static_cast<unsigned long long>(virt::issue_steps(r.stats)),
                r.launches);
  return r.status + buf;
}

// ---------------------------------------------------------------------------
// Phase 1: scheduler overhead A/B at tenants=1.

struct OverheadRow {
  std::string name;
  double plain_s = 0;
  double virt_s = 0;
  double delta_pct = 0;
};

std::vector<OverheadRow> run_overhead(const benchbin::Args& args, bool* ok) {
  struct Cfg {
    const char* bench;
    const arch::DeviceSpec* dev;
    arch::Toolchain tc;
  };
  const Cfg cfgs[] = {
      {"BFS", &arch::gtx480(), arch::Toolchain::Cuda},  // launch-heaviest
      {"MxM", &arch::gtx480(), arch::Toolchain::OpenCl},
      {"Reduce", &arch::gtx480(), arch::Toolchain::Cuda},
  };
  bench::Options o;
  o.scale = args.scale;
  const int reps = args.quick ? 9 : 15;
  const int inner = args.quick ? 2 : 4;

  std::vector<OverheadRow> rows;
  TextTable t({"Config", "Plain s (median)", "Virt s (median)",
               "Paired delta"});
  for (const Cfg& c : cfgs) {
    const bench::Benchmark& b = bench::benchmark_by_name(c.bench);
    // A tenants=1 manager: its fast path must execute launches exactly as
    // the unvirtualized path does.
    virt::VirtConfig vc;
    vc.tenants = 1;
    virt::VirtualDeviceManager mgr(vc);
    (void)b.run(*c.dev, c.tc, o);  // warm-up

    OverheadRow row;
    row.name = std::string(c.bench) + " " + c.dev->short_name + " " +
               arch::to_string(c.tc);
    // Interleaved A/B pairs, alternating which side runs first, and the
    // median of the per-pair deltas: a burst of load from elsewhere on the
    // host slows both halves of a pair or is outvoted, where a minimum of
    // each side would compare samples taken seconds apart. One re-measure
    // pass if the first sample still caught machine drift (true delta is
    // ~0, see extra_resil_overhead).
    const auto time_plain = [&] {
      const auto t0 = Clock::now();
      for (int k = 0; k < inner; ++k) (void)b.run(*c.dev, c.tc, o);
      return seconds_since(t0);
    };
    const auto time_virt = [&] {
      const auto t0 = Clock::now();
      for (int k = 0; k < inner; ++k) {
        harness::TenantSession s(*c.dev, c.tc, mgr.tenant(0));
        (void)b.run_in_session(s, o);
      }
      return seconds_since(t0);
    };
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<double> plain_s, virt_s, delta_pct;
      for (int i = 0; i < reps; ++i) {
        double p = 0, v = 0;
        if (i % 2 == 0) {
          p = time_plain();
          v = time_virt();
        } else {
          v = time_virt();
          p = time_plain();
        }
        plain_s.push_back(p);
        virt_s.push_back(v);
        delta_pct.push_back(100.0 * (v - p) / p);
      }
      row.plain_s = median(plain_s);
      row.virt_s = median(virt_s);
      row.delta_pct = median(delta_pct);
      if (row.delta_pct < 10.0) break;
    }
    *ok = *ok && row.delta_pct < 10.0;
    t.add_row({row.name, benchbin::fmt(row.plain_s, 6),
               benchbin::fmt(row.virt_s, 6),
               benchbin::fmt(row.delta_pct, 2) + "%"});
    rows.push_back(row);
  }
  std::printf("%s", t.to_string("Phase 1 — tenants=1 A/B, median of " +
                                std::to_string(reps) + " pairs")
                        .c_str());
  return rows;
}

// ---------------------------------------------------------------------------
// Phase 2: weighted fair share under continuous contention.

struct FairnessOut {
  std::vector<virt::TenantStats> stats;
  std::vector<double> normalized;  // contended_steps / weight, share of sum
  double jain = 0;
};

FairnessOut run_fairness(bool* ok) {
  virt::VirtConfig vc;
  vc.tenants = 4;
  vc.slice = 20'000;
  vc.weights = {4.0, 2.0, 1.0, 1.0};
  virt::VirtualDeviceManager mgr(vc);

  // All four tenants submit the identical loop-heavy kernel until the
  // heaviest finishes its quota of launches — everyone is runnable for the
  // whole measured window, so contended_steps split by weight.
  std::atomic<bool> stop{false};
  auto tenant_loop = [&](int id, int stop_after) {
    harness::TenantSession s(arch::gtx480(), arch::Toolchain::Cuda,
                             mgr.tenant(id));
    kernel::KernelBuilder kb("spin");
    auto out = kb.ptr_param("out", ir::Type::F32);
    kernel::Var acc = kb.var_f32("acc");
    kb.set(acc, kb.cf(1.0));
    kernel::Var i = kb.var_s32("i");
    kb.for_(i, 0, kb.c32(100), 1, kernel::Unroll::none(), [&] {
      kb.set(acc, kernel::Val(acc) * kb.cf(1.0000001) + kb.cf(0.5));
    });
    kb.st(out, kb.global_id_x(), acc);
    const auto ck = s.compile(kb.finish());
    const auto d_out = s.alloc(64 * 256 * 4);
    const std::vector<sim::KernelArg> a{sim::KernelArg::ptr(d_out)};
    for (int n = 0; !stop.load(std::memory_order_relaxed); ++n) {
      (void)s.launch(ck, {64, 1, 1}, {256, 1, 1}, a);
      if (stop_after > 0 && n + 1 >= stop_after) {
        stop.store(true, std::memory_order_relaxed);
        break;
      }
    }
  };
  std::vector<std::thread> threads;
  threads.emplace_back(tenant_loop, 0, 30);  // heavy tenant ends the window
  for (int id = 1; id < 4; ++id) threads.emplace_back(tenant_loop, id, 0);
  for (auto& th : threads) th.join();

  FairnessOut f;
  f.stats = mgr.stats();
  double sum = 0, sumsq = 0;
  for (const auto& st : f.stats) {
    const double x = static_cast<double>(st.contended_steps) / st.weight;
    f.normalized.push_back(x);
    sum += x;
    sumsq += x * x;
  }
  f.jain = sum * sum / (4.0 * sumsq);

  TextTable t({"Tenant", "Weight", "Contended steps", "Steps/weight",
               "Share of fair"});
  const double fair = sum / 4.0;
  bool band_ok = true;
  for (int id = 0; id < 4; ++id) {
    const double rel = f.normalized[id] / fair;
    band_ok = band_ok && rel > 0.5 && rel < 2.0;
    t.add_row({std::to_string(id), benchbin::fmt(f.stats[id].weight, 0),
               std::to_string(f.stats[id].contended_steps),
               benchbin::fmt(f.normalized[id], 0), benchbin::fmt(rel, 2)});
  }
  std::printf("%s", t.to_string("Phase 2 — fair share, weights 4:2:1:1")
                        .c_str());
  std::printf("Jain fairness index over weight-normalized shares: %.3f\n",
              f.jain);
  *ok = *ok && f.jain > 0.85 && band_ok;
  return f;
}

// ---------------------------------------------------------------------------
// Phase 3: isolation soak.

struct SoakOut {
  int sessions = 0;
  int victims = 0;
  int victim_aborts = 0;
  int non_victim_ok = 0;
  int mismatches = 0;
  int unclassified = 0;
  double mean_slowdown = 0;
  bool replay_identical = false;
};

constexpr int kTenantsPerRound = 16;
constexpr int kRounds = 13;  // 16 x 13 = 208 tenant sessions

/// Arms a victim tenant's private plan: hang + midgrid + enqueue, seeded
/// from (soak seed, round, tenant) only — replay-stable by construction.
void arm_victim(virt::TenantQueue& q, std::uint64_t seed, int round, int k) {
  const std::uint64_t base =
      (seed * 0x9E37u + static_cast<std::uint64_t>(round)) * 0x85EBu +
      static_cast<std::uint64_t>(k) * 3;
  auto plan = std::make_unique<resil::FaultPlan>();
  resil::SiteSpec hang;
  hang.enabled = true;
  hang.probability = 0.30;
  hang.seed = base + 1;
  plan->set(resil::Site::Hang, hang);
  resil::SiteSpec mid;
  mid.enabled = true;
  mid.probability = 0.30;
  mid.seed = base + 2;
  plan->set(resil::Site::MidGrid, mid);
  resil::SiteSpec enq;
  enq.enabled = true;
  enq.probability = 0.30;
  enq.seed = base + 3;
  plan->set(resil::Site::Enqueue, enq);
  q.set_fault_plan(std::move(plan));
}

/// One soak round: kTenantsPerRound concurrent tenant sessions over one
/// manager, every 4th tenant a victim. Returns the per-tenant outcome
/// vector ("BENCH=fingerprint" or "BENCH=VICTIM:status").
std::vector<std::string> soak_round(std::uint64_t seed, int round,
                                    const bench::Options& opts,
                                    SoakOut* out,
                                    const std::vector<std::string>& baseline_fp,
                                    const std::vector<double>& baseline_s) {
  const auto& regs = bench::real_world_benchmarks();
  const arch::Toolchain tc =
      round % 2 == 0 ? arch::Toolchain::Cuda : arch::Toolchain::OpenCl;
  const int tc_idx = round % 2;

  virt::VirtConfig vc;
  vc.tenants = kTenantsPerRound;
  virt::VirtualDeviceManager mgr(vc);

  std::vector<std::string> outcome(kTenantsPerRound);
  std::vector<double> wall(kTenantsPerRound, 0);
  std::vector<int> bench_idx(kTenantsPerRound);
  std::vector<std::thread> threads;
  for (int k = 0; k < kTenantsPerRound; ++k) {
    const bool victim = k % 4 == 3;
    if (victim) arm_victim(mgr.tenant(k), seed, round, k);
    bench_idx[k] = static_cast<int>(
        (static_cast<std::size_t>(round) * 7 + k) % regs.size());
    threads.emplace_back([&, k, victim] {
      const bench::Benchmark* b = regs[static_cast<std::size_t>(bench_idx[k])];
      const auto t0 = Clock::now();
      std::string oc;
      try {
        harness::TenantSession s(arch::gtx480(), tc, mgr.tenant(k));
        const bench::Result r = b->run_in_session(s, opts);
        oc = victim ? "VICTIM:" + r.status : fingerprint(r);
        if (r.status != "OK" && r.status != "DEG" && r.status != "FL" &&
            r.status != "ABT") {
          oc = "UNCLASSIFIED:" + r.status;
        }
      } catch (const std::exception& e) {
        oc = std::string("ESCAPED:") + e.what();
      }
      wall[k] = seconds_since(t0);
      outcome[k] = b->name() + "=" + oc;
    });
  }
  for (auto& th : threads) th.join();

  for (int k = 0; k < kTenantsPerRound; ++k) {
    ++out->sessions;
    const bool victim = k % 4 == 3;
    const std::string& oc = outcome[k];
    if (oc.find("UNCLASSIFIED") != std::string::npos ||
        oc.find("ESCAPED") != std::string::npos) {
      ++out->unclassified;
      std::printf("  round %d tenant %d: %s\n", round, k, oc.c_str());
      continue;
    }
    if (victim) {
      ++out->victims;
      if (oc.find("VICTIM:ABT") != std::string::npos) ++out->victim_aborts;
      continue;
    }
    // Non-victim: must be bit-identical to the unvirtualized baseline.
    const std::size_t fp_key =
        static_cast<std::size_t>(bench_idx[k]) * 2 +
        static_cast<std::size_t>(tc_idx);
    const std::string want =
        regs[static_cast<std::size_t>(bench_idx[k])]->name() + "=" +
        baseline_fp[fp_key];
    if (oc == want) {
      ++out->non_victim_ok;
    } else {
      ++out->mismatches;
      std::printf("  round %d tenant %d MISMATCH:\n    got  %s\n    want %s\n",
                  round, k, oc.c_str(), want.c_str());
    }
    if (baseline_s[fp_key] > 0) {
      out->mean_slowdown += wall[k] / baseline_s[fp_key];
    }
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gpc;
  // Single-threaded interpreter pool: chunked (sliced) execution merges
  // per-block stats in flat block order, which only matches the unsliced
  // merge order bit-for-bit when one worker executes blocks in order. The
  // soak's bit-identity and replay assertions depend on it.
  ::setenv("GPC_SIM_THREADS", "1", /*overwrite=*/1);
  const auto args = benchbin::parse_args(argc, argv);
  benchbin::heading(
      "Virtualization soak — overhead, fair share, tenant fault isolation");

  resil::plan().reset();  // measurement owns fault state; ignore GPC_FAULT
  const std::uint64_t seed = config::or_exit([] {
    const char* e = config::get("GPC_VIRT_SEED");
    return e != nullptr ? config::parse_u64("GPC_VIRT_SEED", "seed", e)
                        : std::uint64_t{1};
  });
  std::printf("seed %llu (GPC_VIRT_SEED), %d tenants x %d rounds\n",
              static_cast<unsigned long long>(seed), kTenantsPerRound,
              kRounds);

  bool ok = true;
  const auto overhead = run_overhead(args, &ok);
  const auto fairness = run_fairness(&ok);

  // Unvirtualized baselines (fingerprint + solo wall time) per benchmark x
  // toolchain, at the soak's scale.
  bench::Options opts;
  opts.scale = args.quick ? 0.1 : 0.25;
  const auto& regs = bench::real_world_benchmarks();
  std::vector<std::string> baseline_fp(regs.size() * 2);
  std::vector<double> baseline_s(regs.size() * 2);
  for (std::size_t i = 0; i < regs.size(); ++i) {
    for (int t = 0; t < 2; ++t) {
      const arch::Toolchain tc =
          t == 0 ? arch::Toolchain::Cuda : arch::Toolchain::OpenCl;
      const auto t0 = Clock::now();
      baseline_fp[i * 2 + static_cast<std::size_t>(t)] =
          fingerprint(regs[i]->run(arch::gtx480(), tc, opts));
      baseline_s[i * 2 + static_cast<std::size_t>(t)] = seconds_since(t0);
    }
  }

  SoakOut soak;
  std::vector<std::string> first_round;
  for (int round = 0; round < kRounds; ++round) {
    const auto oc =
        soak_round(seed, round, opts, &soak, baseline_fp, baseline_s);
    if (round == 0) first_round = oc;
  }
  soak.mean_slowdown /=
      std::max(1, soak.non_victim_ok + soak.mismatches);

  // Replay round 0: per-tenant plans are seeded by (seed, round, tenant)
  // and sampled in the tenant's own program order, so the outcome vector —
  // victim statuses included — must reproduce bit-for-bit regardless of how
  // the scheduler interleaved the tenants this time.
  SoakOut replay;
  const auto replay_oc =
      soak_round(seed, 0, opts, &replay, baseline_fp, baseline_s);
  soak.replay_identical = replay_oc == first_round;

  std::printf(
      "\nPhase 3 — %d tenant sessions (%d victims: %d ABT), non-victims "
      "%d/%d bit-identical, mean non-victim slowdown %.1fx, replay %s\n",
      soak.sessions, soak.victims, soak.victim_aborts, soak.non_victim_ok,
      soak.non_victim_ok + soak.mismatches, soak.mean_slowdown,
      soak.replay_identical ? "identical" : "DIVERGED");

  bool pass = ok;
  const double med =
      median({overhead[0].delta_pct, overhead[1].delta_pct,
              overhead[2].delta_pct});
  if (med >= 2.0) {
    std::printf("FAIL: tenants=1 overhead median %.2f%% (bar: < 2%%)\n", med);
    pass = false;
  }
  if (soak.sessions < 200) {
    std::printf("FAIL: only %d tenant sessions (need >= 200)\n",
                soak.sessions);
    pass = false;
  }
  if (soak.unclassified > 0 || soak.mismatches > 0) {
    std::printf("FAIL: %d unclassified, %d non-victim mismatches\n",
                soak.unclassified, soak.mismatches);
    pass = false;
  }
  if (soak.victim_aborts == 0) {
    std::printf("FAIL: no victim ever aborted — injection not reaching\n");
    pass = false;
  }
  if (!soak.replay_identical) {
    std::printf("FAIL: round 0 replay diverged\n");
    pass = false;
  }
  // Bounded slowdown: a 16-way time-sliced device costs at most ~16x plus
  // scheduling; 3x headroom keeps CI honest without flaking.
  if (soak.mean_slowdown > 3.0 * kTenantsPerRound) {
    std::printf("FAIL: mean non-victim slowdown %.1fx (bar: < %dx)\n",
                soak.mean_slowdown, 3 * kTenantsPerRound);
    pass = false;
  }

  // Phase 4: machine-readable artifact.
  const char* path = "BENCH_virt_fairness.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fprintf(f, "{\n  \"schema\": \"gpc.virt.fairness.v1\",\n");
    std::fprintf(f, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(seed));
    std::fprintf(f, "  \"overhead\": {\"median_delta_pct\": %.3f, \"configs\": [",
                 med);
    for (std::size_t i = 0; i < overhead.size(); ++i) {
      std::fprintf(f,
                   "%s\n    {\"name\": \"%s\", \"plain_s\": %.6f, "
                   "\"virt_s\": %.6f, \"delta_pct\": %.3f}",
                   i ? "," : "", overhead[i].name.c_str(), overhead[i].plain_s,
                   overhead[i].virt_s, overhead[i].delta_pct);
    }
    std::fprintf(f, "\n  ]},\n");
    std::fprintf(f, "  \"fairness\": {\"jain_index\": %.4f, \"tenants\": [",
                 fairness.jain);
    for (std::size_t i = 0; i < fairness.stats.size(); ++i) {
      const auto& st = fairness.stats[i];
      std::fprintf(f,
                   "%s\n    {\"id\": %d, \"weight\": %.1f, "
                   "\"contended_steps\": %llu, \"launches\": %llu, "
                   "\"preemptions\": %llu}",
                   i ? "," : "", st.id, st.weight,
                   static_cast<unsigned long long>(st.contended_steps),
                   static_cast<unsigned long long>(st.launches),
                   static_cast<unsigned long long>(st.preemptions));
    }
    std::fprintf(f, "\n  ]},\n");
    std::fprintf(
        f,
        "  \"soak\": {\"sessions\": %d, \"victims\": %d, "
        "\"victim_aborts\": %d, \"non_victim_ok\": %d, \"mismatches\": %d, "
        "\"mean_slowdown_x\": %.2f, \"replay_identical\": %s}\n}\n",
        soak.sessions, soak.victims, soak.victim_aborts, soak.non_victim_ok,
        soak.mismatches, soak.mean_slowdown,
        soak.replay_identical ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", path);
  }

  std::printf("%s\n", pass ? "VIRT SOAK PASS" : "VIRT SOAK FAIL");
  return pass ? 0 : 1;
}
