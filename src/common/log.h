// Minimal leveled logger. Quiet by default (Warn); benches raise verbosity
// with --verbose or GPC_LOG=info|debug (or silence it with error|off).
//
// Emission is serialized (one lock per line, never held across user code) and
// every line carries a monotonic timestamp plus a dense per-thread id, so
// interleaved output from ThreadPool workers stays attributable:
//
//   [+0.014562s T03] [info ] message
//
// The clock and thread-id helpers are shared with the profiler (gpc::prof),
// which stamps its trace events from the same epoch so log lines and trace
// spans line up when viewed side by side.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

namespace gpc::log {

enum class Level { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Parses a GPC_LOG value (`debug|info|warn|error|off`; nullptr means the
/// default, Warn). Throws InvalidArgument on anything else.
Level parse_level(const char* value);

/// Global threshold; messages below it are dropped. Starts from GPC_LOG,
/// read during static initialisation (a malformed value exits the process).
Level threshold();
void set_threshold(Level level);

/// Nanoseconds on the monotonic clock since the process's logging epoch (the
/// first use of the logger or profiler). Also the profiler's trace clock.
std::int64_t now_ns();

/// Dense id of the calling thread: 0 for the first thread that logs (usually
/// main), then 1, 2, ... in first-use order. Stable for a thread's lifetime.
int thread_id();

/// Emits one line to stderr with a timestamp/thread-id/level prefix.
void emit(Level level, const std::string& message);

namespace detail {
class LineStream {
 public:
  explicit LineStream(Level level) : level_(level) {}
  ~LineStream() { emit(level_, os_.str()); }
  LineStream(const LineStream&) = delete;
  LineStream& operator=(const LineStream&) = delete;

  template <typename T>
  LineStream& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  Level level_;
  std::ostringstream os_;
};
}  // namespace detail

inline bool enabled(Level level) { return level >= threshold(); }

}  // namespace gpc::log

#define GPC_LOG(level)                                   \
  if (!::gpc::log::enabled(::gpc::log::Level::level)) {} \
  else ::gpc::log::detail::LineStream(::gpc::log::Level::level)
