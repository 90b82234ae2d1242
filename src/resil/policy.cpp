#include "resil/policy.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <mutex>
#include <thread>

#include "common/config.h"

namespace gpc::resil {

namespace {

std::mutex g_override_mutex;
std::optional<Policy> g_override;

std::uint64_t mix(std::uint64_t seed, std::uint64_t n) {
  std::uint64_t z = seed + (n + 1) * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Policy policy_from_env() {
  Policy p;
  if (const char* e = config::get("GPC_RETRY")) {
    // "N[:base_us[:seed]]"
    int field = 0;
    config::split(e, ':', [&](std::string_view v) {
      switch (field++) {
        case 0:
          p.max_retries = static_cast<int>(
              config::parse_u64("GPC_RETRY", "N", v, 0, INT_MAX));
          break;
        case 1:
          p.backoff_base_us = config::parse_double(
              "GPC_RETRY", "base_us", v, 0, HUGE_VAL, /*lo_open=*/true);
          break;
        case 2:
          p.jitter_seed = config::parse_u64("GPC_RETRY", "seed", v);
          break;
        default:
          config::bad_value("GPC_RETRY", e, "retry", "N[:base_us[:seed]]");
      }
    });
  }
  if (const char* e = config::get("GPC_DEGRADE")) {
    p.degrade = config::parse_bool("GPC_DEGRADE", "enable", e);
  }
  if (const char* e = config::get("GPC_WATCHDOG")) {
    p.watchdog_budget = config::parse_u64("GPC_WATCHDOG", "steps", e);
  }
  return p;
}

void set_policy_override(const std::optional<Policy>& p) {
  std::lock_guard<std::mutex> lock(g_override_mutex);
  g_override = p;
}

Policy active_policy() {
  {
    std::lock_guard<std::mutex> lock(g_override_mutex);
    if (g_override) return *g_override;
  }
  return policy_from_env();
}

double backoff_us(const Policy& p, int attempt, std::uint64_t salt) {
  const double expo =
      p.backoff_base_us * static_cast<double>(1ull << std::min(attempt, 20));
  const std::uint64_t draw = mix(p.jitter_seed ^ salt,
                                 static_cast<std::uint64_t>(attempt));
  const double jitter =
      0.5 + static_cast<double>(draw >> 11) * (1.0 / 9007199254740992.0);
  return expo * jitter;  // in [50%, 150%] of the exponential step
}

void backoff_sleep(const Policy& p, int attempt, std::uint64_t salt) {
  const double us = std::min(backoff_us(p, attempt, salt), 50'000.0);
  if (us <= 0) return;
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<std::int64_t>(us)));
}

}  // namespace gpc::resil
