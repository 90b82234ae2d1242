#include "common/config.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

extern char** environ;

namespace gpc::config {

namespace {

std::string names_of(Tokens tokens) {
  std::string out;
  for (const Token& t : tokens) {
    out.append(out.empty() ? "" : "|").append(t.name);
  }
  return out;
}

// Parses all of `v` as a T; false on an empty, partial or out-of-range read.
template <typename T>
bool from_chars_all(std::string_view v, T& out) {
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  return !v.empty() && ec == std::errc{} && end == v.data() + v.size();
}

}  // namespace

const char* get(const char* var) {
  const char* v = std::getenv(var);
  return v != nullptr && *v != '\0' ? v : nullptr;
}

void bad_value(std::string_view var, std::string_view value,
               std::string_view key, std::string_view expected) {
  std::string msg(var);
  msg.append(": bad value '").append(value).append("' for '").append(key);
  throw InvalidArgument(msg.append("' (expected ").append(expected) + ")");
}

std::uint64_t parse_u64(std::string_view var, std::string_view key,
                        std::string_view v, std::uint64_t lo,
                        std::uint64_t hi) {
  std::uint64_t n = 0;
  if (!from_chars_all(v, n) || n < lo || n > hi) {
    bad_value(var, v, key, "an integer in [" + std::to_string(lo) + ", " +
                               std::to_string(hi) + "]");
  }
  return n;
}

double parse_double(std::string_view var, std::string_view key,
                    std::string_view v, double lo, double hi, bool lo_open) {
  double d = 0;
  if (!from_chars_all(v, d) || !std::isfinite(d) || d < lo ||
      (lo_open && d == lo) || d > hi) {
    char expected[64];
    std::snprintf(expected, sizeof expected, "a number in %c%g, %g]",
                  lo_open ? '(' : '[', lo, hi);
    bad_value(var, v, key, expected);
  }
  return d;
}

unsigned parse_choice(std::string_view var, std::string_view key,
                      std::string_view v, Tokens tokens) {
  for (const Token& t : tokens) {
    if (t.name == v) return t.bits;
  }
  bad_value(var, v, key, names_of(tokens));
}

unsigned parse_flags(std::string_view var, std::string_view key,
                     std::string_view v, Tokens tokens) {
  unsigned bits = 0;
  split(v, ',', [&](std::string_view item) {
    const auto t = std::find_if(tokens.begin(), tokens.end(),
                                [&](const Token& x) { return x.name == item; });
    if (t == tokens.end()) {
      bad_value(var, item, key,
                "a comma-separated list of " + names_of(tokens));
    }
    bits |= t->bits;
  });
  return bits;
}

void exit_with(const char* message) {
  std::fflush(stdout);
  std::fprintf(stderr, "%s\n", message);
  // _Exit, not exit: the failing read may run on a worker thread or during
  // static initialisation, where other objects' destructors and atexit
  // hooks are not safe to run.
  std::_Exit(2);
}

std::vector<std::pair<std::string, std::string>> gpc_vars() {
  std::vector<std::pair<std::string, std::string>> out;
  for (char** e = environ; *e != nullptr; ++e) {
    const char* eq = std::strchr(*e, '=');
    if (std::strncmp(*e, "GPC_", 4) != 0 || eq == nullptr) continue;
    out.emplace_back(std::string(*e, static_cast<std::size_t>(eq - *e)),
                     eq + 1);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void require_known_names() {
  for (const auto& [name, value] : gpc_vars()) {
    if (std::find(std::begin(kKnownVariables), std::end(kKnownVariables),
                  name) != std::end(kKnownVariables)) {
      continue;
    }
    std::string known;
    for (const std::string_view k : kKnownVariables) {
      known.append(known.empty() ? "" : ", ").append(k);
    }
    throw InvalidArgument(name + ": unknown variable (known: " + known + ")");
  }
}

}  // namespace gpc::config
