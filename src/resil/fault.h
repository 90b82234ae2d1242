// gpc::resil — deterministic, seeded fault injection for the simulator and
// both host APIs.
//
// Why it exists: PR 2 gave the stack fail-fast fault *paths* (OutOfResources
// at enqueue, DeviceFault mid-grid, step-budget runaways), but those paths
// were only reachable through hand-written kernels that really misbehave. A
// robustness layer needs faults on demand, everywhere, reproducibly: the
// chaos soak (bench/extra_chaos_soak) runs every benchmark under seeded
// injection and asserts every run ends in a classified outcome, and the
// policy layer (resil/policy.h + harness::DeviceSession) is tested against
// exactly these injected faults.
//
// Model: a process-wide FaultPlan holds one SiteSpec per injection site.
// Every instrumented call site asks `sample(site, where)`; the decision is a
// pure function of (site seed, call index at that site), drawn with
// SplitMix64 — so a given spec string replays the same fault sequence on
// every run, regardless of wall clock or address-space layout. Sites:
//
//   enqueue  OutOfResources thrown by sim::launch_kernel before any block
//            executes (the CL_OUT_OF_RESOURCES path of Table VI).
//   midgrid  DeviceFault raised by one deterministic victim block while the
//            grid is in flight (exercises the pool's batch cancellation).
//   hang     a launch that would stall forever; surfaced as the step-budget
//            watchdog trip (DeviceFault) without burning real cycles.
//   build    transient program-build failure (ocl::Program::build returns
//            BuildProgramFailure; cuda/harness compile throws
//            TransientFault) — succeeds on retry once the spec's budget for
//            the site is consumed.
//   memcpy   transient host<->device copy failure (ocl buffer ops return
//            OutOfHostMemory; cuda memcpy throws TransientFault).
//
// Cost model (same bar as gpc::prof, see bench/extra_resil_overhead): with
// no plan configured every site is `armed()` — one relaxed atomic load and a
// predictable branch. No allocation, no locking, no result perturbation
// (Table VI / fig03 stay bit-identical, locked by tests).
//
// Enablement: GPC_FAULT in the environment (parsed once, lazily, with the
// strict common/config.h grammar; a malformed value exits the process) or the
// programmatic configure()/set() API used by tests and the chaos harness.
// Spec grammar, semicolon-separated sites with colon-separated options:
//
//   GPC_FAULT="enqueue:p=0.1:seed=7;midgrid:p=0.02;build:after=3:count=1"
//
//   p=X      per-call injection probability (default 1.0)
//   seed=N   per-site RNG seed (default: global seed 0 folded with the site)
//   after=N  skip the first N calls at the site (default 0)
//   count=N  inject at most N times at the site (default unlimited)
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

namespace gpc::resil {

enum class Site : int { Enqueue = 0, MidGrid, Hang, Build, Memcpy };
inline constexpr int kNumSites = 5;

const char* site_name(Site s);

struct SiteSpec {
  bool enabled = false;
  double probability = 1.0;
  std::uint64_t seed = 0;
  std::uint64_t after = 0;                // eligible only from call `after`
  std::uint64_t count = ~std::uint64_t{0};  // max injections at this site
};

/// The decision returned when a fault fires at a site.
struct Injection {
  /// Auxiliary deterministic draw for the site to aim with (e.g. the
  /// mid-grid victim block index, modulo the grid size).
  std::uint64_t aux = 0;
  /// Human-readable provenance ("injected midgrid fault #2 at <where>"),
  /// embedded in the thrown error / status detail so injected failures are
  /// distinguishable from organic ones in logs and tests.
  std::string detail;
};

/// Process-wide injection plan. All methods are thread-safe; sample() is
/// wait-free apart from the per-site call counter fetch_add.
class FaultPlan {
 public:
  /// A standalone, disarmed plan. The process-wide instance() additionally
  /// configures itself from GPC_FAULT on first use; standalone plans (e.g.
  /// gpc::virt's per-tenant plans) never read the environment, so arming a
  /// global chaos spec cannot leak into tenant-scoped injection.
  FaultPlan() = default;

  static FaultPlan& instance();

  /// The one test every instrumented site performs first. False (the
  /// default) means no site is enabled: a single relaxed load.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Parses a GPC_FAULT-style spec string and replaces the whole plan.
  /// Throws InvalidArgument on malformed specs / unknown sites.
  void configure(const std::string& spec);
  /// Programmatic per-site configuration (marks the site enabled).
  void set(Site s, SiteSpec spec);
  /// Disarms every site and zeroes the per-site call/injection counters.
  void reset();

  /// Deterministic sampling: returns the injection decision for this call,
  /// or nullopt. `where` (kernel/op name) only decorates Injection::detail —
  /// it does not enter the RNG, so fault sequences are stable across
  /// renames.
  std::optional<Injection> sample(Site s, const std::string& where);

  /// Introspection for tests and the chaos harness.
  SiteSpec spec(Site s) const;
  std::uint64_t calls(Site s) const;
  std::uint64_t injections(Site s) const;
  std::uint64_t total_injections() const;

 private:
  struct SiteState {
    SiteSpec spec;
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> injected{0};
  };

  void rearm();  // recomputes armed_ from the per-site enabled bits

  std::atomic<bool> armed_{false};
  SiteState sites_[kNumSites];
};

/// A mid-grid fault drawn for one launch: the victim block (flat index into
/// the grid; -1 when none was drawn) and the injection's detail.
struct MidGridFault {
  long long victim = -1;
  std::string detail;
};

/// The launch-entry fault sites of `plan`, sampled once per launch in this
/// order: enqueue throws OutOfResources("<detail> on <device>"); hang counts
/// a watchdog trip and throws the watchdog's DeviceFault without burning
/// cycles; mid-grid picks a victim among `blocks` for the caller to fault
/// at. `where` names the launch in the details. Call only when
/// plan.armed(). Shared by sim::launch_kernel (the thread's plan) and the
/// gpc::virt tenant queues (each tenant's own plan).
MidGridFault sample_launch_faults(FaultPlan& plan, const std::string& where,
                                  const std::string& device,
                                  long long blocks);

// ---------------------------------------------------------------------------
// Thread-local plan override. gpc::serve executes each job single-threaded
// inside a worker and attaches a standalone per-job FaultPlan: installing it
// here for the duration of the job makes every instrumented site below the
// worker (launch entry, build, memcpy) sample the JOB's plan in the job's
// own serial call order — so the injected fault sequence is a pure function
// of (job seed), independent of how jobs interleave across workers. The
// global instance() stays authoritative for every thread without an
// override, preserving GPC_FAULT semantics everywhere else.

/// Installs `p` as the calling thread's active plan (nullptr restores the
/// process-wide plan). The caller keeps ownership; `p` must outlive the
/// override window.
void set_thread_plan(FaultPlan* p);
/// The calling thread's override, or nullptr when none is installed.
FaultPlan* thread_plan();

/// RAII override scope used by serve workers around one job's execution.
class ThreadPlanScope {
 public:
  explicit ThreadPlanScope(FaultPlan* p) : prev_(thread_plan()) {
    set_thread_plan(p);
  }
  ~ThreadPlanScope() { set_thread_plan(prev_); }
  ThreadPlanScope(const ThreadPlanScope&) = delete;
  ThreadPlanScope& operator=(const ThreadPlanScope&) = delete;

 private:
  FaultPlan* prev_;
};

inline FaultPlan& plan() {
  FaultPlan* t = thread_plan();
  return t ? *t : FaultPlan::instance();
}
/// Hot-path helper: `if (resil::armed()) { ... sample ... }`. Cost with no
/// override and no plan configured: one thread-local read + one relaxed load.
inline bool armed() { return plan().armed(); }
inline std::optional<Injection> sample(Site s, const std::string& where) {
  return plan().sample(s, where);
}

// ---------------------------------------------------------------------------
// Resilience counters. Incremented by the policy layer (harness) and the
// watchdog (sim); read by tests, the chaos harness and bench binaries.
// Separate from FaultPlan because they also count organic events (a real
// step-budget trip bumps watchdog_trips whether or not injection is armed).

struct Counters {
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> split_launches{0};
  std::atomic<std::uint64_t> degraded_launches{0};
  std::atomic<std::uint64_t> watchdog_trips{0};
  std::atomic<std::uint64_t> quarantined{0};
  // Serving-layer events (gpc::serve): jobs rejected by admission control /
  // deadlines / an open breaker, and breaker Closed->Open transitions.
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> breaker_trips{0};
};

Counters& counters();
void reset_counters();

/// Called by the interpreter when a block trips its step budget (the
/// watchdog event). Cheap: only runs on the throw path.
void note_watchdog_trip();

}  // namespace gpc::resil
