#include "common/log.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

#include "common/config.h"

namespace gpc::log {
namespace {

// Parsed during static initialisation, where a throw could only end in
// std::terminate: a malformed GPC_LOG prints its message and exits instead.
std::atomic<Level> g_threshold{
    config::or_exit([] { return parse_level(config::get("GPC_LOG")); })};
std::mutex g_mutex;  // serializes line emission only, never held in user code

const char* prefix(Level level) {
  switch (level) {
    case Level::Debug: return "[debug]";
    case Level::Info:  return "[info ]";
    case Level::Warn:  return "[warn ]";
    case Level::Error: return "[error]";
    case Level::Off:   return "[off  ]";
  }
  return "[?]";
}

}  // namespace

Level parse_level(const char* value) {
  if (value == nullptr) return Level::Warn;
  // The bits are the Level values (log.h numbers them 0..4).
  return static_cast<Level>(config::parse_choice(
      "GPC_LOG", "level", value,
      {{"debug", 0}, {"info", 1}, {"warn", 2}, {"error", 3}, {"off", 4}}));
}

Level threshold() { return g_threshold.load(std::memory_order_relaxed); }
void set_threshold(Level level) {
  g_threshold.store(level, std::memory_order_relaxed);
}

std::int64_t now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                              epoch)
      .count();
}

int thread_id() {
  static std::atomic<int> next{0};
  thread_local int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void emit(Level level, const std::string& message) {
  if (level < threshold()) return;
  const std::int64_t t = now_ns();
  const int tid = thread_id();
  std::lock_guard<std::mutex> lock(g_mutex);
  std::fprintf(stderr, "[+%lld.%06llds T%02d] %s %s\n",
               static_cast<long long>(t / 1000000000),
               static_cast<long long>(t % 1000000000) / 1000, tid,
               prefix(level), message.c_str());
}

}  // namespace gpc::log
