// One strict parser for the GPC_* environment variables. Every environment
// read of the library is a config::get(), and all nine variables share one
// grammar (README "Environment variables"): unset and empty both mean the
// default; lists split on one separator with no whitespace and no empty
// items; numbers are plain decimal inside a stated range. Anything else
// throws InvalidArgument("GPC_X: bad value 'v' for 'key' (expected ...)"),
// `key` naming the field of the variable's grammar.
//
// Settings re-read on every launch (GPC_SIM_SANITIZE, GPC_AIWC, GPC_RETRY,
// GPC_DEGRADE, GPC_WATCHDOG) throw through the launch. Process-wide ones
// read once where no caller can catch (GPC_LOG at static initialisation;
// GPC_SIM_THREADS, GPC_PROF and GPC_FAULT on first use from any thread) go
// through or_exit(). An unset variable costs one lookup: no allocation, no
// lock.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.h"

namespace gpc::config {

/// The value of `var`, or nullptr when it is unset or empty.
const char* get(const char* var);

/// Throws InvalidArgument "<var>: bad value '<value>' for '<key>' (expected
/// <expected>)".
[[noreturn]] void bad_value(std::string_view var, std::string_view value,
                            std::string_view key, std::string_view expected);

/// Calls fn(item) for every `sep`-separated item of `value`, empty items
/// included (the item parser rejects them). An empty value has no items.
template <typename Fn>
void split(std::string_view value, char sep, Fn&& fn) {
  if (value.empty()) return;
  for (;;) {
    const std::size_t at = value.find(sep);
    fn(value.substr(0, at));
    if (at == std::string_view::npos) return;
    value.remove_prefix(at + 1);
  }
}

/// Decimal integer in [lo, hi].
std::uint64_t parse_u64(std::string_view var, std::string_view key,
                        std::string_view v, std::uint64_t lo = 0,
                        std::uint64_t hi = UINT64_MAX);

/// Finite decimal number in [lo, hi], or (lo, hi] when `lo_open`.
double parse_double(std::string_view var, std::string_view key,
                    std::string_view v, double lo, double hi,
                    bool lo_open = false);

/// A fixed token list: each name and the bits it stands for.
struct Token {
  std::string_view name;
  unsigned bits;
};
using Tokens = std::initializer_list<Token>;

/// Exactly one of `tokens`; returns its bits.
unsigned parse_choice(std::string_view var, std::string_view key,
                      std::string_view v, Tokens tokens);

/// A comma-separated list of `tokens`; returns the OR of their bits.
unsigned parse_flags(std::string_view var, std::string_view key,
                     std::string_view v, Tokens tokens);

/// "0" or "1".
inline bool parse_bool(std::string_view var, std::string_view key,
                       std::string_view v) {
  return parse_choice(var, key, v, {{"0", 0}, {"1", 1}}) != 0;
}

/// Prints `message` and a newline to stderr and exits with status 2.
[[noreturn]] void exit_with(const char* message);

/// Returns parse(), or exit_with() the message of the InvalidArgument it
/// throws.
template <typename Parse>
auto or_exit(Parse&& parse) -> decltype(parse()) {
  try {
    return parse();
  } catch (const InvalidArgument& e) {
    exit_with(e.what());
  }
}

/// Every GPC_* variable set in the process, empty ones included, sorted by
/// name: the record of which knobs produced a run.
std::vector<std::pair<std::string, std::string>> gpc_vars();

/// Every GPC_* name the project reads: the nine library variables and the
/// soak benches' GPC_VIRT_SEED.
inline constexpr std::string_view kKnownVariables[] = {
    "GPC_AIWC",         "GPC_DEGRADE",     "GPC_FAULT",     "GPC_LOG",
    "GPC_PROF",         "GPC_RETRY",       "GPC_SIM_SANITIZE",
    "GPC_SIM_THREADS",  "GPC_VIRT_SEED",   "GPC_WATCHDOG",
};

/// Throws InvalidArgument "<name>: unknown variable (known: ...)" for the
/// first GPC_* variable of the process that is not in kKnownVariables, so a
/// misspelt name fails instead of silently meaning the default. The library
/// never calls this (tests set scratch GPC_* names); the bench binaries do.
void require_known_names();

}  // namespace gpc::config
