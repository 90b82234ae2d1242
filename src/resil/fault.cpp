#include "resil/fault.h"

#include <string_view>

#include "common/config.h"
#include "common/error.h"

namespace gpc::resil {

namespace {

/// SplitMix64 finalizer (same engine as common/rng.h): mixes the per-site
/// seed with the call index into one uniform 64-bit draw. Stateless, so the
/// decision for call N is independent of sampling order across threads.
std::uint64_t mix(std::uint64_t seed, std::uint64_t n) {
  std::uint64_t z = seed + (n + 1) * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double unit_double(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);
}

std::optional<Site> site_from_name(std::string_view name) {
  if (name == "enqueue") return Site::Enqueue;
  if (name == "midgrid") return Site::MidGrid;
  if (name == "hang") return Site::Hang;
  if (name == "build") return Site::Build;
  if (name == "memcpy") return Site::Memcpy;
  return std::nullopt;
}

}  // namespace

const char* site_name(Site s) {
  switch (s) {
    case Site::Enqueue: return "enqueue";
    case Site::MidGrid: return "midgrid";
    case Site::Hang: return "hang";
    case Site::Build: return "build";
    case Site::Memcpy: return "memcpy";
  }
  return "?";
}

namespace {
thread_local FaultPlan* t_plan = nullptr;
}  // namespace

void set_thread_plan(FaultPlan* p) { t_plan = p; }
FaultPlan* thread_plan() { return t_plan; }

FaultPlan& FaultPlan::instance() {
  // Leaked (usable from exit hooks); GPC_FAULT configures only the global
  // plan — standalone plans constructed elsewhere stay disarmed until
  // configured programmatically. A malformed GPC_FAULT exits: the first
  // use may come from any thread, inside a launch that would turn the throw
  // into a classified failure.
  static FaultPlan* p = [] {
    auto* plan = new FaultPlan();
    if (const char* e = config::get("GPC_FAULT")) {
      config::or_exit([&] { plan->configure(e); });
    }
    return plan;
  }();
  return *p;
}

void FaultPlan::configure(const std::string& spec) {
  constexpr std::string_view kVar = "GPC_FAULT";
  reset();
  config::split(spec, ';', [&](std::string_view entry) {
    const std::size_t colon = entry.find(':');
    const std::string_view name = entry.substr(0, colon);
    const std::optional<Site> site = site_from_name(name);
    if (!site) {
      config::bad_value(kVar, name, "site",
                        "enqueue|midgrid|hang|build|memcpy");
    }
    SiteSpec ss;
    ss.enabled = true;
    // Default per-site seed: the site index itself, so two sites with no
    // explicit seed still draw independent sequences.
    ss.seed = 0x5EEDull + static_cast<std::uint64_t>(*site);
    const std::string_view opts =
        colon == std::string_view::npos ? "" : entry.substr(colon + 1);
    config::split(opts, ':', [&](std::string_view kv) {
      const std::size_t eq = kv.find('=');
      if (eq == std::string_view::npos) {
        config::bad_value(kVar, kv, "option", "key=value");
      }
      const std::string_view key = kv.substr(0, eq), val = kv.substr(eq + 1);
      if (key == "p") {
        ss.probability = config::parse_double(kVar, key, val, 0.0, 1.0);
      } else if (key == "seed") {
        ss.seed = config::parse_u64(kVar, key, val);
      } else if (key == "after") {
        ss.after = config::parse_u64(kVar, key, val);
      } else if (key == "count") {
        ss.count = config::parse_u64(kVar, key, val);
      } else {
        config::bad_value(kVar, key, "option", "p|seed|after|count");
      }
    });
    set(*site, ss);
  });
}

void FaultPlan::set(Site s, SiteSpec spec) {
  spec.enabled = true;
  SiteState& st = sites_[static_cast<int>(s)];
  st.spec = spec;
  st.calls.store(0, std::memory_order_relaxed);
  st.injected.store(0, std::memory_order_relaxed);
  rearm();
}

void FaultPlan::reset() {
  for (SiteState& st : sites_) {
    st.spec = SiteSpec{};
    st.calls.store(0, std::memory_order_relaxed);
    st.injected.store(0, std::memory_order_relaxed);
  }
  armed_.store(false, std::memory_order_relaxed);
}

void FaultPlan::rearm() {
  bool any = false;
  for (const SiteState& st : sites_) any = any || st.spec.enabled;
  armed_.store(any, std::memory_order_relaxed);
}

std::optional<Injection> FaultPlan::sample(Site s, const std::string& where) {
  SiteState& st = sites_[static_cast<int>(s)];
  const SiteSpec& spec = st.spec;
  if (!spec.enabled) return std::nullopt;

  const std::uint64_t n = st.calls.fetch_add(1, std::memory_order_relaxed);
  if (n < spec.after) return std::nullopt;
  const std::uint64_t draw = mix(spec.seed, n);
  if (unit_double(draw) >= spec.probability) return std::nullopt;
  // Enforce the per-site injection budget last, so a bounded `count` spends
  // itself on exactly the first `count` calls the probability selects.
  const std::uint64_t k = st.injected.fetch_add(1, std::memory_order_relaxed);
  if (k >= spec.count) {
    st.injected.fetch_sub(1, std::memory_order_relaxed);
    return std::nullopt;
  }

  Injection inj;
  inj.aux = mix(spec.seed ^ 0xA5A5A5A5A5A5A5A5ull, n);
  inj.detail = std::string("injected ") + site_name(s) + " fault #" +
               std::to_string(k + 1) + " (call " + std::to_string(n) +
               ") at " + where;
  return inj;
}

MidGridFault sample_launch_faults(FaultPlan& plan, const std::string& where,
                                  const std::string& device,
                                  long long blocks) {
  if (auto inj = plan.sample(Site::Enqueue, where)) {
    throw OutOfResources(inj->detail + " on " + device);
  }
  if (auto inj = plan.sample(Site::Hang, where)) {
    // A launch that would stall forever. The step-budget watchdog is what
    // catches real stalls (interp.cpp check_budget); injecting one surfaces
    // the identical classified outcome without burning cycles.
    note_watchdog_trip();
    throw DeviceFault(inj->detail + ": kernel exceeded instruction budget" +
                      " (hung launch tripped the watchdog)");
  }
  MidGridFault mid;
  if (auto inj = plan.sample(Site::MidGrid, where)) {
    mid.victim = static_cast<long long>(inj->aux %
                                        static_cast<std::uint64_t>(blocks));
    mid.detail = std::move(inj->detail);
  }
  return mid;
}

SiteSpec FaultPlan::spec(Site s) const {
  return sites_[static_cast<int>(s)].spec;
}

std::uint64_t FaultPlan::calls(Site s) const {
  return sites_[static_cast<int>(s)].calls.load(std::memory_order_relaxed);
}

std::uint64_t FaultPlan::injections(Site s) const {
  return sites_[static_cast<int>(s)].injected.load(std::memory_order_relaxed);
}

std::uint64_t FaultPlan::total_injections() const {
  std::uint64_t sum = 0;
  for (int i = 0; i < kNumSites; ++i) {
    sum += injections(static_cast<Site>(i));
  }
  return sum;
}

Counters& counters() {
  static Counters* c = new Counters();  // leaked: usable from exit hooks
  return *c;
}

void reset_counters() {
  Counters& c = counters();
  c.retries.store(0, std::memory_order_relaxed);
  c.split_launches.store(0, std::memory_order_relaxed);
  c.degraded_launches.store(0, std::memory_order_relaxed);
  c.watchdog_trips.store(0, std::memory_order_relaxed);
  c.quarantined.store(0, std::memory_order_relaxed);
  c.shed.store(0, std::memory_order_relaxed);
  c.breaker_trips.store(0, std::memory_order_relaxed);
}

void note_watchdog_trip() {
  counters().watchdog_trips.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace gpc::resil
