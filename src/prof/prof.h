// gpc::prof — CUPTI/nvprof-style runtime profiling for both runtime
// front-ends and the simulator underneath them.
//
// Why it exists: the paper's runtime-difference findings (most visibly
// OpenCL's higher kernel-launch latency dominating iterative apps like BFS,
// §IV-B.4) are claims about *per-launch timelines*, and a PR number alone
// cannot show them. The profiler records one event per host API call (alloc,
// memcpy, build/compile, enqueue) and one per kernel launch — the launch
// record carries the full simulated KernelTiming breakdown
// (launch/issue/dram/latency-hiding, occupancy + limiter) and the complete
// BlockStats counter set — and exports them as a chrome://tracing / Perfetto
// trace, a JSONL counter stream, and an nvprof-style end-of-run summary.
//
// Cost model (see DESIGN.md §11 and bench/extra_prof_overhead):
//  * Off (GPC_PROF unset): every instrumentation site is one relaxed atomic
//    load and a predictable branch. No allocation, no locking, no change to
//    any LaunchResult (locked by tests/prof_test.cpp's differential test).
//  * On: events append to a lock-free per-thread chunk list (single producer,
//    acquire/release published counter; chunks never move or free, so
//    readers keep stable pointers). The only cross-thread write on the hot
//    path is one CAS loop advancing the per-runtime synthetic device clock.
//
// Enablement: GPC_PROF=summary,trace,counters (or "all") in the environment,
// or programmatically via recorder().set_modes(). Exporters run automatically
// at process exit (summary to stderr; trace.json/counters.jsonl into the
// output directory when an output dir was set with set_output_dir(), e.g. by
// the bench binaries' --prof-out flag).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "aiwc/aiwc.h"
#include "arch/device_spec.h"
#include "sim/stats.h"
#include "sim/timing.h"

namespace gpc::prof {

/// What the recorder collects / exports. Bitmask; kOff disables everything.
enum Mode : unsigned {
  kOff = 0,
  kSummary = 1u << 0,   // end-of-run per-kernel/per-API summary table
  kTrace = 1u << 1,     // chrome://tracing / Perfetto trace_event JSON
  kCounters = 1u << 2,  // JSONL counter stream, one line per launch
  kAll = kSummary | kTrace | kCounters,
};

/// Parses a GPC_PROF-style comma-separated mode list of
/// summary|trace|counters|all|1|off|0 ("summary,trace"); empty means kOff.
/// Throws InvalidArgument on any other token.
unsigned parse_modes(std::string_view spec);

/// Which timeline an event belongs to. Host spans run on real wall-clock
/// time per OS thread; device tracks are synthetic timelines (one per
/// runtime) on which simulated kernel spans are laid out end to end, anchored
/// at their host enqueue time — which is exactly what makes the CUDA-vs-
/// OpenCL launch-overhead gap visually obvious in the trace viewer.
enum class Track : std::uint8_t { Host = 0, CudaDevice = 1, OclDevice = 2 };

/// Everything the profiler knows about one kernel launch.
struct LaunchRecord {
  std::string kernel;
  arch::Toolchain toolchain = arch::Toolchain::Cuda;
  std::string device;        // paper short name, e.g. "GTX480"
  sim::KernelTiming timing;  // launch/issue/dram/latency + occupancy+limiter
  sim::BlockStats counters;  // LaunchStats::total, bit-for-bit
  int blocks = 0;
  int threads_per_block = 0;
  /// Virtual-device tenant that issued the launch (gpc::virt), or -1 for an
  /// unvirtualized launch. Tenant launches land on per-tenant rows (tid =
  /// tenant + 1) of the runtime's device track in the Chrome trace.
  int tenant = -1;
  /// Fusion provenance (LaunchStats): the decode pass's static fusion
  /// census, exported per launch in counters.jsonl alongside the dynamic
  /// instruction mix (BlockStats::xkind_issues) and fused-execution
  /// counters.
  std::uint32_t static_ops = 0;
  std::uint32_t static_fused_ops = 0;
  std::uint32_t static_fused_groups[4] = {};
  /// Raw workload-characterization features (gpc::aiwc) when GPC_AIWC /
  /// LaunchConfig::aiwc armed collection for this launch; null otherwise.
  /// Shared with the LaunchResult — the recorder never mutates it.
  std::shared_ptr<const aiwc::Features> aiwc;
};

/// Everything the profiler knows about one served job (gpc::serve): its
/// terminal classification, queue/service latency, and the batching/cache
/// provenance. Serve records feed counters.jsonl ("type":"serve" lines) and
/// the exit summary; they are deliberately NOT emitted into the Chrome
/// trace — an enqueue-to-complete span starts on the submitting thread and
/// ends on a worker, which would violate the per-thread span nesting the
/// trace schema guarantees.
struct ServeRecord {
  std::uint64_t job_id = 0;
  std::string cls;     // "OK" / "DEG" / "ABT" / "SHED"
  std::string kernel;  // empty for jobs shed before inspection
  std::string device;
  int shard = -1;
  int batch = 1;           // coalesced batch size the job executed in
  int queue_depth = 0;     // shard depth observed at dequeue
  bool cache_hit = false;  // compiled-kernel cache outcome
  std::int64_t queue_ns = 0;  // submit -> dequeue
  std::int64_t total_ns = 0;  // submit -> completion (the serve span)
};

struct Event {
  enum class Kind : std::uint8_t { Span, Launch, Instant, Serve };

  Kind kind = Kind::Span;
  Track track = Track::Host;
  const char* category = "";  // static string: "api", "xfer", "compile", ...
  std::string name;
  int tid = 0;                  // log::thread_id() of the emitting thread
  std::int64_t start_ns = 0;    // log::now_ns() clock (host) or device clock
  std::int64_t end_ns = 0;      // == start_ns for instants
  std::unique_ptr<LaunchRecord> launch;  // Kind::Launch only
  std::unique_ptr<ServeRecord> serve;    // Kind::Serve only
};

class Recorder {
 public:
  /// Process-wide recorder. Never destroyed (safe to use from atexit hooks).
  static Recorder& instance();

  unsigned modes() const { return modes_.load(std::memory_order_relaxed); }
  bool enabled() const { return modes() != kOff; }
  bool has_mode(Mode m) const { return (modes() & m) != 0; }
  /// Replaces the mode set. Enabling any mode arms the process-exit report.
  void set_modes(unsigned modes);

  /// Directory the process-exit exporters write trace.json / counters.jsonl
  /// into (created if missing). Setting it also enables kTrace|kCounters.
  void set_output_dir(std::string dir);
  const std::string& output_dir() const { return output_dir_; }

  // ---- Recording (all no-ops when disabled) ----
  void record_span(Track track, const char* category, std::string name,
                   std::int64_t start_ns, std::int64_t end_ns);
  void record_instant(const char* category, std::string name);
  /// Records one kernel launch: the host-side enqueue instant plus the
  /// launch-overhead + execution spans on the runtime's device track.
  /// `tenant` >= 0 tags the launch with its virtual-device tenant id
  /// (gpc::virt); -1 (the default) is an unvirtualized launch.
  void record_launch(arch::Toolchain tc, const std::string& device,
                     const std::string& kernel, const sim::KernelTiming& t,
                     const sim::LaunchStats& stats, int tenant = -1,
                     std::shared_ptr<const aiwc::Features> features = nullptr);
  /// Records one served job's completion (gpc::serve): lands in
  /// counters.jsonl and the exit summary, and feeds the "serve" latency
  /// histogram with the enqueue-to-complete duration.
  void record_serve(ServeRecord record);

  /// Span-latency percentiles from the lock-free log2-bucket histogram the
  /// recorder maintains per span category ("api" = launch API calls, "xfer"
  /// = memcpys, "compile" = builds, "serve" = gpc::serve enqueue-to-
  /// complete). Percentiles are bucket upper bounds (exact to a factor of
  /// 2), the serving-layer p50/p99 machinery.
  struct LatencyPercentiles {
    std::uint64_t count = 0;
    std::int64_t p50_ns = 0;
    std::int64_t p95_ns = 0;
    std::int64_t p99_ns = 0;
  };
  LatencyPercentiles span_latency(const char* category) const;

  // ---- Inspection / export ----
  /// Stable pointers to every event published since the last clear(), in
  /// per-thread order (cross-thread order is by start_ns, not guaranteed).
  std::vector<const Event*> snapshot() const;
  /// Logically drops all recorded events (buffers are retained; safe while
  /// other threads keep recording new events).
  void clear();

  bool write_chrome_trace(const std::string& path) const;
  bool write_counters_jsonl(const std::string& path) const;
  /// Per-launch AIWC feature stream (one JSON line per launch that carried
  /// aiwc::Features — see DESIGN.md §16 for the record format). Returns
  /// false (and writes nothing) when no recorded launch carried features.
  bool write_aiwc_jsonl(const std::string& path) const;
  /// nvprof-style per-runtime kernel table + host API call table.
  std::string summary() const;

  /// Runs the end-of-run report now (summary to `out`, trace/JSONL into the
  /// output dir per the active modes). Idempotent per recorded data.
  void report(std::FILE* out);

 private:
  Recorder();
  struct ThreadBuffer;
  ThreadBuffer& local_buffer();
  void append(Event ev);

  std::atomic<unsigned> modes_{kOff};
  std::atomic<std::int64_t> device_clock_ns_[2]{};
  // Log2-bucket span-duration histograms, one per latency category (0 =
  // "api", 1 = "xfer", 2 = "compile", 3 = "serve"; bucket =
  // bit_width(duration_ns)). Relaxed fetch_add on record_span — lock-free,
  // never reset by clear() readers mid-flight (clear() stores 0s).
  std::atomic<std::uint64_t> lat_hist_[4][64]{};
  mutable std::mutex register_mutex_;   // buffer list + output dir only
  std::vector<ThreadBuffer*> buffers_;  // never shrinks; entries leak by design
  std::string output_dir_;
  std::atomic<bool> exit_hook_armed_{false};
};

inline Recorder& recorder() { return Recorder::instance(); }
inline bool enabled() { return recorder().enabled(); }

/// RAII host span: captures the start time at construction when profiling is
/// enabled, records on destruction. Cost when disabled: one relaxed load.
class ScopedSpan {
 public:
  ScopedSpan(const char* category, std::string_view name) {
    if (recorder().enabled()) begin(category, name);
  }
  ~ScopedSpan() {
    if (armed_) end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void begin(const char* category, std::string_view name);
  void end();

  bool armed_ = false;
  const char* category_ = "";
  std::string name_;
  std::int64_t start_ns_ = 0;
};

}  // namespace gpc::prof
