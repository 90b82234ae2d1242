// Strict GPC_* configuration: the shared parsers of common/config.h, and one
// table over all nine environment variables the library reads. For each
// variable the table checks valid values, the empty value (which means
// unset) and malformed or out-of-range values, which must throw an
// InvalidArgument naming the variable and the field of its grammar.
// Labelled "config" in ctest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "aiwc/aiwc.h"
#include "common/config.h"
#include "common/error.h"
#include "common/log.h"
#include "common/thread_pool.h"
#include "prof/prof.h"
#include "resil/fault.h"
#include "resil/policy.h"
#include "sim/sanitizer.h"

namespace gpc {
namespace {

// ---------------------------------------------------------------------------
// Shared parsers

std::string message_of(void (*fn)()) {
  try {
    fn();
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "(no throw)";
}

TEST(Config, BadValueMessageNamesVariableValueKeyAndExpectation) {
  EXPECT_EQ(message_of([] { config::bad_value("GPC_X", "v", "key", "0|1"); }),
            "GPC_X: bad value 'v' for 'key' (expected 0|1)");
}

TEST(Config, U64IsPlainDecimalInsideItsRange) {
  EXPECT_EQ(config::parse_u64("GPC_X", "n", "0"), 0u);
  EXPECT_EQ(config::parse_u64("GPC_X", "n", "18446744073709551615"),
            UINT64_MAX);
  EXPECT_EQ(config::parse_u64("GPC_X", "n", "7", 7, 7), 7u);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x10", "1e3",
                          "18446744073709551616"}) {
    EXPECT_THROW(config::parse_u64("GPC_X", "n", bad), InvalidArgument)
        << bad;
  }
  EXPECT_THROW(config::parse_u64("GPC_X", "n", "6", 7, 8), InvalidArgument);
  EXPECT_THROW(config::parse_u64("GPC_X", "n", "9", 7, 8), InvalidArgument);
}

TEST(Config, DoubleIsFiniteAndInsideItsRange) {
  EXPECT_DOUBLE_EQ(config::parse_double("GPC_X", "p", "0.25", 0, 1), 0.25);
  EXPECT_DOUBLE_EQ(config::parse_double("GPC_X", "p", "0", 0, 1), 0.0);
  EXPECT_DOUBLE_EQ(config::parse_double("GPC_X", "p", "1", 0, 1), 1.0);
  EXPECT_THROW(config::parse_double("GPC_X", "p", "0", 0, 1, true),
               InvalidArgument);
  for (const char* bad : {"", "abc", "0.5x", " 0.5", "nan", "inf", "1.5",
                          "-0.1"}) {
    EXPECT_THROW(config::parse_double("GPC_X", "p", bad, 0, 1),
                 InvalidArgument)
        << bad;
  }
}

TEST(Config, SplitKeepsEmptyItemsForTheItemParserToReject) {
  std::vector<std::string> items;
  config::split("a,,b,", ',', [&](std::string_view s) {
    items.emplace_back(s);
  });
  EXPECT_EQ(items, (std::vector<std::string>{"a", "", "b", ""}));
  items.clear();
  config::split("", ',', [&](std::string_view s) { items.emplace_back(s); });
  EXPECT_TRUE(items.empty());
}

TEST(Config, EmptyValueReadsAsUnset) {
  ::setenv("GPC_CONFIG_TEST_VAR", "", 1);
  EXPECT_EQ(config::get("GPC_CONFIG_TEST_VAR"), nullptr);
  ::setenv("GPC_CONFIG_TEST_VAR", "x", 1);
  EXPECT_STREQ(config::get("GPC_CONFIG_TEST_VAR"), "x");
  ::unsetenv("GPC_CONFIG_TEST_VAR");
  EXPECT_EQ(config::get("GPC_CONFIG_TEST_VAR"), nullptr);
}

TEST(Config, GpcVarsListsEverySetVariableSorted) {
  ::setenv("GPC_CONFIG_TEST_B", "2", 1);
  ::setenv("GPC_CONFIG_TEST_A", "", 1);
  const auto vars = config::gpc_vars();
  ::unsetenv("GPC_CONFIG_TEST_A");
  ::unsetenv("GPC_CONFIG_TEST_B");
  std::vector<std::pair<std::string, std::string>> ours;
  for (const auto& kv : vars) {
    if (kv.first.rfind("GPC_CONFIG_TEST_", 0) == 0) ours.push_back(kv);
  }
  EXPECT_EQ(ours, (std::vector<std::pair<std::string, std::string>>{
                      {"GPC_CONFIG_TEST_A", ""}, {"GPC_CONFIG_TEST_B", "2"}}));
  EXPECT_TRUE(std::is_sorted(vars.begin(), vars.end()));
}

TEST(ConfigDeathTest, OrExitPrintsTheMessageAndExitsNonZero) {
  EXPECT_EXIT(config::or_exit([]() -> int {
                config::bad_value("GPC_X", "v", "key", "0|1");
              }),
              ::testing::ExitedWithCode(2), "GPC_X: bad value 'v' for 'key'");
  EXPECT_EQ(config::or_exit([] { return 7; }), 7);
}

TEST(Config, RequireKnownNamesRejectsAMisspeltName) {
  ::setenv("GPC_CONFIG_TEST_UNKNOWN", "1", 1);
  try {
    config::require_known_names();
    ADD_FAILURE() << "unknown name accepted";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind("GPC_CONFIG_TEST_UNKNOWN: unknown variable (known: "
                        "GPC_AIWC, ",
                        0),
              0u)
        << msg;
  }
  ::unsetenv("GPC_CONFIG_TEST_UNKNOWN");
}

// ---------------------------------------------------------------------------
// The nine variables

/// One value of a variable and what it must produce: the effective setting
/// as the variable's reader describes it, or a throw naming `bad_key`.
struct Row {
  const char* value;
  const char* effective;  // nullptr when the value must be rejected
  const char* bad_key;
};

struct Variable {
  const char* name;
  /// Reads the variable from the environment the way its module does and
  /// describes the effective setting. For the process-wide settings this
  /// is the parser their or_exit() read site wraps.
  std::string (*read)();
  std::vector<Row> rows;
};

std::string yes_no(bool b) { return b ? "1" : "0"; }

std::string read_sim_threads() {
  // Parses only: no test constructs a pool from these values.
  return std::to_string(
      ThreadPool::parse_threads(config::get("GPC_SIM_THREADS")));
}

std::string read_sanitize() {
  const sim::SanitizeOptions o = sim::sanitize_options_from_env();
  std::string s = std::string(o.race ? "race," : "") + (o.mem ? "mem," : "") +
                  (o.sync ? "sync," : "");
  return s.empty() ? "none" : s.substr(0, s.size() - 1);
}

std::string read_prof() {
  const char* v = config::get("GPC_PROF");
  return std::to_string(prof::parse_modes(v ? v : ""));
}

std::string read_aiwc() { return yes_no(aiwc::enabled_from_env()); }

std::string read_log() {
  return std::to_string(
      static_cast<int>(log::parse_level(config::get("GPC_LOG"))));
}

std::string read_fault() {
  resil::FaultPlan plan;  // standalone: never arms the process-wide plan
  if (const char* v = config::get("GPC_FAULT")) plan.configure(v);
  std::string out;
  for (int i = 0; i < resil::kNumSites; ++i) {
    const auto site = static_cast<resil::Site>(i);
    const resil::SiteSpec s = plan.spec(site);
    if (!s.enabled) continue;
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s p=%g seed=%llu after=%llu count=%llu;",
                  resil::site_name(site), s.probability,
                  static_cast<unsigned long long>(s.seed),
                  static_cast<unsigned long long>(s.after),
                  static_cast<unsigned long long>(s.count));
    out += buf;
  }
  return out.empty() ? "off" : out;
}

std::string read_retry() {
  const resil::Policy p = resil::policy_from_env();
  char buf[96];
  std::snprintf(buf, sizeof buf, "%d %g %llu", p.max_retries,
                p.backoff_base_us,
                static_cast<unsigned long long>(p.jitter_seed));
  return buf;
}

std::string read_degrade() { return yes_no(resil::policy_from_env().degrade); }

std::string read_watchdog() {
  return std::to_string(resil::policy_from_env().watchdog_budget);
}

const std::vector<Variable>& variables() {
  static const std::vector<Variable> v = {
      {"GPC_SIM_THREADS", read_sim_threads,
       {{"4", "4", nullptr},
        {"1024", "1024", nullptr},
        {"0", "0", nullptr},
        {"", "0", nullptr},
        {"1025", nullptr, "threads"},
        {"100000", nullptr, "threads"},
        {"abc", nullptr, "threads"},
        {"-3", nullptr, "threads"},
        {"4x", nullptr, "threads"}}},
      {"GPC_SIM_SANITIZE", read_sanitize,
       {{"race,sync", "race,sync", nullptr},
        {"all", "race,mem,sync", nullptr},
        {"1", "race,mem,sync", nullptr},
        {"", "none", nullptr},
        {"rcae", nullptr, "check"},
        {"bogus,sync", nullptr, "check"},
        {"race,,mem", nullptr, "check"},
        {"race mem", nullptr, "check"}}},
      {"GPC_PROF", read_prof,
       {{"summary,trace", "3", nullptr},
        {"all", "7", nullptr},
        {"off", "0", nullptr},
        {"", "0", nullptr},
        {"bogus", nullptr, "mode"},
        {"summary,", nullptr, "mode"}}},
      {"GPC_AIWC", read_aiwc,
       {{"1", "1", nullptr},
        {"0", "0", nullptr},
        {"", "0", nullptr},
        {"features", nullptr, "enable"},
        {"true", nullptr, "enable"},
        {"2", nullptr, "enable"}}},
      {"GPC_LOG", read_log,
       {{"debug", "0", nullptr},
        {"off", "4", nullptr},
        {"", "2", nullptr},
        {"loud", nullptr, "level"},
        {"WARN", nullptr, "level"}}},
      {"GPC_FAULT", read_fault,
       {{"enqueue:p=0.1:seed=7;build:after=3:count=1",
         "enqueue p=0.1 seed=7 after=0 count=18446744073709551615;"
         "build p=1 seed=24304 after=3 count=1;",
         nullptr},
        {"", "off", nullptr},
        {"bogus_site", nullptr, "site"},
        {"enqueue;;build", nullptr, "site"},
        {"enqueue:p=2.0", nullptr, "p"},
        {"enqueue:p=abc", nullptr, "p"},
        {"enqueue:seed=-1", nullptr, "seed"},
        {"enqueue:after=x", nullptr, "after"},
        {"enqueue:count=", nullptr, "count"},
        {"enqueue:wat=1", nullptr, "option"},
        {"enqueue:p", nullptr, "option"}}},
      {"GPC_RETRY", read_retry,
       {{"3:10:5", "3 10 5", nullptr},
        {"2", "2 50 1", nullptr},
        {"", "0 50 1", nullptr},
        {"banana", nullptr, "N"},
        {"-1", nullptr, "N"},
        {"3:0", nullptr, "base_us"},
        {"3:", nullptr, "base_us"},
        {"3:10:x", nullptr, "seed"},
        {"3:10:5:9", nullptr, "retry"}}},
      {"GPC_DEGRADE", read_degrade,
       {{"1", "1", nullptr},
        {"0", "0", nullptr},
        {"", "0", nullptr},
        {"yes", nullptr, "enable"},
        {"on", nullptr, "enable"}}},
      {"GPC_WATCHDOG", read_watchdog,
       {{"5000", "5000", nullptr},
        {"", "0", nullptr},
        {"5k", nullptr, "steps"},
        {"-1", nullptr, "steps"},
        {"18446744073709551616", nullptr, "steps"}}},
  };
  return v;
}

class ConfigTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ConfigTest, IsAKnownName) {
  const Variable& var = variables()[GetParam()];
  EXPECT_NE(std::find(std::begin(config::kKnownVariables),
                      std::end(config::kKnownVariables), var.name),
            std::end(config::kKnownVariables));
}

TEST_P(ConfigTest, ParsesStrictly) {
  const Variable& var = variables()[GetParam()];
  const char* saved = std::getenv(var.name);
  const std::optional<std::string> restore =
      saved ? std::optional<std::string>(saved) : std::nullopt;
  for (const Row& row : var.rows) {
    SCOPED_TRACE(std::string(var.name) + "='" + row.value + "'");
    ::setenv(var.name, row.value, 1);
    if (row.effective != nullptr) {
      EXPECT_EQ(var.read(), row.effective);
      continue;
    }
    try {
      const std::string got = var.read();
      ADD_FAILURE() << "accepted as " << got;
    } catch (const InvalidArgument& e) {
      const std::string msg = e.what();
      EXPECT_EQ(msg.rfind(std::string(var.name) + ": bad value '", 0), 0u)
          << msg;
      EXPECT_NE(msg.find(std::string("' for '") + row.bad_key + "'"),
                std::string::npos)
          << msg;
    }
  }
  if (restore) {
    ::setenv(var.name, restore->c_str(), 1);
  } else {
    ::unsetenv(var.name);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariables, ConfigTest,
    ::testing::Range<std::size_t>(0, variables().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(variables()[info.param].name);
    });

}  // namespace
}  // namespace gpc
