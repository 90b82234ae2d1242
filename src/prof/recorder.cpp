#include "prof/prof.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "common/config.h"
#include "common/log.h"
#include "sim/decode.h"

namespace gpc::prof {

// ---------------------------------------------------------------------------
// Storage: per-thread chunked append-only buffers.
//
// Each thread owns one ThreadBuffer; only the owner writes events, and it
// publishes them with a release store of the running count. Readers
// (snapshot / exporters) acquire the count and walk the chunk list — chunks
// are heap nodes linked through an atomic next pointer and are never moved
// or freed, so pointers handed out by snapshot() stay valid for the process
// lifetime. That makes the append path lock-free and the whole structure
// safe under ThreadSanitizer without any hot-path mutex.
// ---------------------------------------------------------------------------

namespace {
constexpr int kChunkCap = 256;

/// Latency-histogram slot of a span category, or -1 for categories without
/// percentile tracking (only launch / memcpy / build spans and serve
/// completions feed the serving-layer percentiles).
int latency_slot(const char* category) {
  if (std::strcmp(category, "api") == 0) return 0;
  if (std::strcmp(category, "xfer") == 0) return 1;
  if (std::strcmp(category, "compile") == 0) return 2;
  if (std::strcmp(category, "serve") == 0) return 3;
  return -1;
}
}  // namespace

struct Recorder::ThreadBuffer {
  struct Chunk {
    Event events[kChunkCap];
    std::atomic<Chunk*> next{nullptr};
  };

  explicit ThreadBuffer(int thread_id) : tid(thread_id), tail(&head) {}

  const int tid;
  Chunk head;
  Chunk* tail;              // owner thread only
  int tail_count = 0;       // owner thread only
  std::atomic<std::int64_t> published{0};  // events visible to readers
  std::atomic<std::int64_t> cleared{0};    // events logically dropped

  void push(Event ev) {
    if (tail_count == kChunkCap) {
      Chunk* c = new Chunk;
      tail->next.store(c, std::memory_order_release);
      tail = c;
      tail_count = 0;
    }
    tail->events[tail_count++] = std::move(ev);
    published.store(published.load(std::memory_order_relaxed) + 1,
                    std::memory_order_release);
  }

  /// Reader-side visit of events [cleared, published).
  template <typename Fn>
  void visit(Fn&& fn) const {
    const std::int64_t n = published.load(std::memory_order_acquire);
    const std::int64_t skip = cleared.load(std::memory_order_relaxed);
    const Chunk* c = &head;
    for (std::int64_t i = 0; i < n; i += kChunkCap) {
      const std::int64_t in_chunk = std::min<std::int64_t>(kChunkCap, n - i);
      for (std::int64_t j = 0; j < in_chunk; ++j) {
        if (i + j >= skip) fn(c->events[j]);
      }
      if (i + kChunkCap < n) c = c->next.load(std::memory_order_acquire);
    }
  }
};

Recorder::Recorder() {
  // The recorder is created on first use, from whichever thread profiles
  // first, so a malformed GPC_PROF exits rather than throwing there.
  if (const char* env = config::get("GPC_PROF")) {
    set_modes(config::or_exit([env] { return parse_modes(env); }));
  }
}

Recorder& Recorder::instance() {
  // Leaked on purpose: exporters run from atexit, after static destructors
  // of other translation units may have run.
  static Recorder* r = new Recorder;
  return *r;
}

unsigned parse_modes(std::string_view spec) {
  return config::parse_flags(
      "GPC_PROF", "mode", spec,
      {{"summary", kSummary}, {"trace", kTrace}, {"counters", kCounters},
       {"all", kAll}, {"1", kAll}, {"off", kOff}, {"0", kOff}});
}

void Recorder::set_modes(unsigned modes) {
  modes_.store(modes & kAll, std::memory_order_relaxed);
  if (modes != kOff && !exit_hook_armed_.exchange(true)) {
    std::atexit([] { Recorder::instance().report(stderr); });
  }
}

void Recorder::set_output_dir(std::string dir) {
  {
    std::lock_guard<std::mutex> lock(register_mutex_);
    output_dir_ = std::move(dir);
  }
  set_modes(modes() | kTrace | kCounters);
}

Recorder::ThreadBuffer& Recorder::local_buffer() {
  thread_local ThreadBuffer* buf = nullptr;
  if (buf == nullptr) {
    buf = new ThreadBuffer(log::thread_id());  // leaked; see snapshot()
    std::lock_guard<std::mutex> lock(register_mutex_);
    buffers_.push_back(buf);
  }
  return *buf;
}

void Recorder::append(Event ev) { local_buffer().push(std::move(ev)); }

void Recorder::record_span(Track track, const char* category,
                           std::string name, std::int64_t start_ns,
                           std::int64_t end_ns) {
  if (!enabled()) return;
  // Log2-bucket latency histogram: one relaxed fetch_add per span, no lock.
  const int slot = latency_slot(category);
  if (slot >= 0) {
    const std::uint64_t dur =
        end_ns > start_ns ? static_cast<std::uint64_t>(end_ns - start_ns) : 0;
    lat_hist_[slot][std::bit_width(dur)].fetch_add(
        1, std::memory_order_relaxed);
  }
  Event ev;
  ev.kind = Event::Kind::Span;
  ev.track = track;
  ev.category = category;
  ev.name = std::move(name);
  ev.tid = log::thread_id();
  ev.start_ns = start_ns;
  ev.end_ns = end_ns;
  append(std::move(ev));
}

void Recorder::record_instant(const char* category, std::string name) {
  if (!enabled()) return;
  Event ev;
  ev.kind = Event::Kind::Instant;
  ev.category = category;
  ev.name = std::move(name);
  ev.tid = log::thread_id();
  ev.start_ns = ev.end_ns = log::now_ns();
  append(std::move(ev));
}

void Recorder::record_launch(arch::Toolchain tc, const std::string& device,
                             const std::string& kernel,
                             const sim::KernelTiming& t,
                             const sim::LaunchStats& stats, int tenant,
                             std::shared_ptr<const aiwc::Features> features) {
  if (!enabled()) return;

  // Place the launch on the runtime's synthetic device timeline: it starts
  // at its host enqueue time or at the end of the previous launch on that
  // runtime, whichever is later (a device processes one grid at a time).
  const int rt = tc == arch::Toolchain::Cuda ? 0 : 1;
  const std::int64_t dur_ns =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(t.seconds * 1e9));
  const std::int64_t host_now = log::now_ns();
  std::atomic<std::int64_t>& clock = device_clock_ns_[rt];
  std::int64_t start = clock.load(std::memory_order_relaxed);
  std::int64_t begin;
  do {
    begin = std::max(start, host_now);
  } while (!clock.compare_exchange_weak(start, begin + dur_ns,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed));

  Event ev;
  ev.kind = Event::Kind::Launch;
  ev.track = rt == 0 ? Track::CudaDevice : Track::OclDevice;
  ev.category = "kernel";
  ev.name = kernel;
  ev.tid = log::thread_id();
  ev.start_ns = begin;
  ev.end_ns = begin + dur_ns;
  ev.launch = std::make_unique<LaunchRecord>();
  ev.launch->kernel = kernel;
  ev.launch->toolchain = tc;
  ev.launch->device = device;
  ev.launch->timing = t;
  ev.launch->counters = stats.total;
  ev.launch->blocks = stats.blocks;
  ev.launch->threads_per_block = stats.threads_per_block;
  ev.launch->tenant = tenant;
  ev.launch->static_ops = stats.static_ops;
  ev.launch->static_fused_ops = stats.static_fused_ops;
  for (int p = 0; p < sim::kNumFusedPatterns; ++p) {
    ev.launch->static_fused_groups[p] = stats.static_fused_groups[p];
  }
  ev.launch->aiwc = std::move(features);
  append(std::move(ev));
}

void Recorder::record_serve(ServeRecord record) {
  if (!enabled()) return;
  const std::uint64_t dur =
      record.total_ns > 0 ? static_cast<std::uint64_t>(record.total_ns) : 0;
  lat_hist_[3][std::bit_width(dur)].fetch_add(1, std::memory_order_relaxed);
  Event ev;
  ev.kind = Event::Kind::Serve;
  ev.category = "serve";
  ev.name = record.kernel;
  ev.tid = log::thread_id();
  ev.end_ns = log::now_ns();
  ev.start_ns = ev.end_ns - record.total_ns;
  ev.serve = std::make_unique<ServeRecord>(std::move(record));
  append(std::move(ev));
}

Recorder::LatencyPercentiles Recorder::span_latency(
    const char* category) const {
  LatencyPercentiles out;
  const int slot = latency_slot(category);
  if (slot < 0) return out;
  std::uint64_t counts[64];
  for (int b = 0; b < 64; ++b) {
    counts[b] = lat_hist_[slot][b].load(std::memory_order_relaxed);
    out.count += counts[b];
  }
  if (out.count == 0) return out;
  const auto quantile = [&](double q) -> std::int64_t {
    const std::uint64_t rank = static_cast<std::uint64_t>(
        q * static_cast<double>(out.count - 1));
    std::uint64_t seen = 0;
    for (int b = 0; b < 64; ++b) {
      seen += counts[b];
      if (counts[b] > 0 && seen > rank) {
        // Bucket b holds durations in [2^(b-1), 2^b); report the upper
        // bound (bucket 0 is the sub-nanosecond bucket).
        return b == 0 ? 0 : (std::int64_t{1} << b) - 1;
      }
    }
    return 0;
  };
  out.p50_ns = quantile(0.50);
  out.p95_ns = quantile(0.95);
  out.p99_ns = quantile(0.99);
  return out;
}

std::vector<const Event*> Recorder::snapshot() const {
  std::vector<ThreadBuffer*> bufs;
  {
    std::lock_guard<std::mutex> lock(register_mutex_);
    bufs = buffers_;
  }
  std::vector<const Event*> out;
  for (const ThreadBuffer* b : bufs) {
    b->visit([&out](const Event& ev) { out.push_back(&ev); });
  }
  return out;
}

void Recorder::clear() {
  std::vector<ThreadBuffer*> bufs;
  {
    std::lock_guard<std::mutex> lock(register_mutex_);
    bufs = buffers_;
  }
  for (ThreadBuffer* b : bufs) {
    b->cleared.store(b->published.load(std::memory_order_acquire),
                     std::memory_order_relaxed);
  }
  device_clock_ns_[0].store(0, std::memory_order_relaxed);
  device_clock_ns_[1].store(0, std::memory_order_relaxed);
  for (auto& hist : lat_hist_) {
    for (auto& bucket : hist) bucket.store(0, std::memory_order_relaxed);
  }
}

void ScopedSpan::begin(const char* category, std::string_view name) {
  armed_ = true;
  category_ = category;
  name_.assign(name);
  start_ns_ = log::now_ns();
}

void ScopedSpan::end() {
  recorder().record_span(Track::Host, category_, std::move(name_), start_ns_,
                         log::now_ns());
}

}  // namespace gpc::prof
