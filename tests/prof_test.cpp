// gpc::prof tests: span nesting under the thread pool, launch counters
// matching LaunchStats bit-for-bit, trace/JSONL export round-tripping
// through a JSON parser, and the differential guarantee that profiling off
// (GPC_PROF unset) leaves LaunchResult bit-identical.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "arch/device_spec.h"
#include "common/log.h"
#include "common/thread_pool.h"
#include "cuda/runtime.h"
#include "kernel/builder.h"
#include "ocl/opencl.h"
#include "prof/prof.h"

namespace gpc {
namespace {

// Deterministic `flops` accumulation for the differential test (same trick
// as differential_test.cpp): force one simulator thread before the shared
// pool exists.
const bool g_single_sim_thread = [] {
  setenv("GPC_SIM_THREADS", "1", /*overwrite=*/1);
  return true;
}();

using kernel::KernelBuilder;
using kernel::Val;

kernel::KernelDef vector_add_kernel() {
  KernelBuilder kb("vector_add");
  auto a = kb.ptr_param("a", ir::Type::F32);
  auto b = kb.ptr_param("b", ir::Type::F32);
  auto c = kb.ptr_param("c", ir::Type::F32);
  Val n = kb.s32_param("n");
  Val gid = kb.global_id_x();
  kb.if_(gid < n, [&] { kb.st(c, gid, kb.ld(a, gid) + kb.ld(b, gid)); });
  return kb.finish();
}

/// Restores the recorder to off + empty around each test that enables it.
class ProfGuard {
 public:
  ProfGuard() {
    prof::recorder().set_modes(prof::kOff);
    prof::recorder().clear();
  }
  ~ProfGuard() {
    prof::recorder().set_modes(prof::kOff);
    prof::recorder().clear();
  }
};

sim::LaunchResult run_vector_add(cuda::Context& ctx) {
  const int n = 1024;
  auto ck = ctx.compile(vector_add_kernel());
  std::vector<float> h(n, 1.5f);
  auto da = ctx.upload<float>(h);
  auto db = ctx.upload<float>(h);
  auto dc = ctx.malloc(n * 4);
  sim::LaunchConfig cfg;
  cfg.grid = {n / 256, 1, 1};
  cfg.block = {256, 1, 1};
  std::vector<sim::KernelArg> args = {
      sim::KernelArg::ptr(da), sim::KernelArg::ptr(db),
      sim::KernelArg::ptr(dc), sim::KernelArg::s32(n)};
  return ctx.launch(ck, cfg, args);
}

void expect_block_stats_equal(const sim::BlockStats& a,
                              const sim::BlockStats& b) {
  EXPECT_EQ(a.alu_issues, b.alu_issues);
  EXPECT_EQ(a.ialu_issues, b.ialu_issues);
  EXPECT_EQ(a.agu_issues, b.agu_issues);
  EXPECT_EQ(a.mad_issues, b.mad_issues);
  EXPECT_EQ(a.mul_issues, b.mul_issues);
  EXPECT_EQ(a.sfu_issues, b.sfu_issues);
  EXPECT_EQ(a.branch_issues, b.branch_issues);
  EXPECT_EQ(a.mem_issues, b.mem_issues);
  EXPECT_EQ(a.shared_cycles, b.shared_cycles);
  EXPECT_EQ(a.const_cycles, b.const_cycles);
  EXPECT_EQ(a.barrier_count, b.barrier_count);
  EXPECT_EQ(a.dram_read_bytes, b.dram_read_bytes);
  EXPECT_EQ(a.dram_write_bytes, b.dram_write_bytes);
  EXPECT_EQ(a.dram_transactions, b.dram_transactions);
  EXPECT_EQ(a.useful_global_bytes, b.useful_global_bytes);
  EXPECT_EQ(a.local_bytes, b.local_bytes);
  EXPECT_EQ(a.tex_requests, b.tex_requests);
  EXPECT_EQ(a.tex_hits, b.tex_hits);
  EXPECT_EQ(a.l1_hits, b.l1_hits);
  EXPECT_EQ(a.atomic_serial_ops, b.atomic_serial_ops);
  EXPECT_EQ(a.flops, b.flops);  // bit-exact: single sim thread
}

// ---------------------------------------------------------------------------
// Minimal strict JSON parser, enough to round-trip the exporters' output.
// ---------------------------------------------------------------------------

struct Json {
  enum class T { Null, Bool, Num, Str, Arr, Obj };
  T t = T::Null;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  bool has(const std::string& key) const { return obj.count(key) != 0; }
  const Json& at(const std::string& key) const { return obj.at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  Json parse() {
    Json v = value();
    ws();
    if (pos_ != s_.size()) fail("trailing data");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) {
    throw std::runtime_error("json error at byte " + std::to_string(pos_) +
                             ": " + why);
  }
  void ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\t' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  bool eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool eat_word(const char* w) {
    const std::size_t len = std::strlen(w);
    if (s_.compare(pos_, len, w) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  std::string string_body() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c == '\\') {
        const char e = peek();
        ++pos_;
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            if (pos_ + 4 > s_.size()) fail("bad \\u escape");
            pos_ += 4;
            out += '?';
            break;
          default: fail("bad escape");
        }
      } else {
        out += c;
      }
    }
  }

  Json value() {
    ws();
    Json v;
    const char c = peek();
    if (c == '{') {
      ++pos_;
      v.t = Json::T::Obj;
      ws();
      if (!eat('}')) {
        do {
          ws();
          std::string key = string_body();
          ws();
          expect(':');
          v.obj[key] = value();
          ws();
        } while (eat(','));
        expect('}');
      }
    } else if (c == '[') {
      ++pos_;
      v.t = Json::T::Arr;
      ws();
      if (!eat(']')) {
        do {
          v.arr.push_back(value());
          ws();
        } while (eat(','));
        expect(']');
      }
    } else if (c == '"') {
      v.t = Json::T::Str;
      v.str = string_body();
    } else if (eat_word("true")) {
      v.t = Json::T::Bool;
      v.b = true;
    } else if (eat_word("false")) {
      v.t = Json::T::Bool;
    } else if (eat_word("null")) {
      v.t = Json::T::Null;
    } else {
      v.t = Json::T::Num;
      char* end = nullptr;
      v.num = std::strtod(s_.c_str() + pos_, &end);
      if (end == s_.c_str() + pos_) fail("bad number");
      pos_ = static_cast<std::size_t>(end - s_.c_str());
    }
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

// ---------------------------------------------------------------------------

TEST(ProfModes, ParseModeList) {
  EXPECT_EQ(prof::parse_modes(""), prof::kOff);
  EXPECT_EQ(prof::parse_modes("off"), prof::kOff);
  EXPECT_EQ(prof::parse_modes("summary"), prof::kSummary);
  EXPECT_EQ(prof::parse_modes("trace,counters"),
            prof::kTrace | prof::kCounters);
  EXPECT_EQ(prof::parse_modes("summary,trace,counters"), prof::kAll);
  EXPECT_EQ(prof::parse_modes("all"), prof::kAll);
  // An unknown mode fails loudly instead of profiling less than asked for.
  EXPECT_THROW(prof::parse_modes("bogus"), InvalidArgument);
  EXPECT_THROW(prof::parse_modes("bogus,trace"), InvalidArgument);
}

TEST(ProfRecorder, DisabledRecordsNothing) {
  ProfGuard guard;
  ASSERT_FALSE(prof::enabled());
  {
    prof::ScopedSpan span("test", "should-not-appear");
  }
  prof::recorder().record_instant("test", "also-not");
  cuda::Context ctx(arch::gtx480());
  (void)run_vector_add(ctx);
  EXPECT_TRUE(prof::recorder().snapshot().empty());
}

TEST(ProfRecorder, ClearDropsEvents) {
  ProfGuard guard;
  prof::recorder().set_modes(prof::kTrace);
  prof::recorder().record_instant("test", "one");
  EXPECT_EQ(prof::recorder().snapshot().size(), 1u);
  prof::recorder().clear();
  EXPECT_TRUE(prof::recorder().snapshot().empty());
}

TEST(ProfRecorder, SpansNestAndCloseUnderThreadPool) {
  ProfGuard guard;
  prof::recorder().set_modes(prof::kTrace);

  ThreadPool pool(4);
  pool.parallel_for(64, [](std::size_t i) {
    prof::ScopedSpan outer("test", "outer");
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    {
      prof::ScopedSpan inner("test", "inner");
      std::this_thread::sleep_for(std::chrono::microseconds(20 + i % 3));
    }
  });

  std::map<int, std::vector<const prof::Event*>> by_tid;
  int total = 0;
  for (const prof::Event* ev : prof::recorder().snapshot()) {
    if (std::string_view(ev->category) != "test") continue;
    ASSERT_EQ(ev->kind, prof::Event::Kind::Span);
    EXPECT_GE(ev->end_ns, ev->start_ns) << "span not closed: " << ev->name;
    by_tid[ev->tid].push_back(ev);
    ++total;
  }
  EXPECT_EQ(total, 128);  // 64 outer + 64 inner, none lost
  EXPECT_GE(by_tid.size(), 2u) << "expected spans from several pool threads";

  // Within a thread, any two spans must be disjoint or properly nested —
  // RAII scopes cannot partially overlap.
  for (const auto& [tid, spans] : by_tid) {
    for (std::size_t i = 0; i < spans.size(); ++i) {
      for (std::size_t j = i + 1; j < spans.size(); ++j) {
        const prof::Event* a = spans[i];
        const prof::Event* b = spans[j];
        const bool disjoint =
            a->end_ns <= b->start_ns || b->end_ns <= a->start_ns;
        const bool a_in_b =
            b->start_ns <= a->start_ns && a->end_ns <= b->end_ns;
        const bool b_in_a =
            a->start_ns <= b->start_ns && b->end_ns <= a->end_ns;
        EXPECT_TRUE(disjoint || a_in_b || b_in_a)
            << "partially overlapping spans on tid " << tid;
      }
    }
  }
}

TEST(ProfRecorder, LaunchCountersMatchLaunchStatsBitForBit) {
  ProfGuard guard;
  prof::recorder().set_modes(prof::kCounters);

  cuda::Context ctx(arch::gtx480());
  const sim::LaunchResult r = run_vector_add(ctx);

  const prof::Event* launch = nullptr;
  for (const prof::Event* ev : prof::recorder().snapshot()) {
    if (ev->kind == prof::Event::Kind::Launch) {
      ASSERT_EQ(launch, nullptr) << "expected exactly one launch event";
      launch = ev;
    }
  }
  ASSERT_NE(launch, nullptr);
  ASSERT_NE(launch->launch, nullptr);
  const prof::LaunchRecord& rec = *launch->launch;
  EXPECT_EQ(rec.kernel, "vector_add");
  EXPECT_EQ(rec.toolchain, arch::Toolchain::Cuda);
  EXPECT_EQ(rec.device, "GTX480");
  EXPECT_EQ(rec.blocks, r.stats.blocks);
  EXPECT_EQ(rec.threads_per_block, r.stats.threads_per_block);
  expect_block_stats_equal(rec.counters, r.stats.total);
  EXPECT_EQ(rec.timing.seconds, r.timing.seconds);
  EXPECT_EQ(rec.timing.launch_s, r.timing.launch_s);
  EXPECT_EQ(rec.timing.issue_s, r.timing.issue_s);
  EXPECT_EQ(rec.timing.dram_s, r.timing.dram_s);
  EXPECT_STREQ(rec.timing.occupancy.limiter, r.timing.occupancy.limiter);
}

TEST(ProfRecorder, ProfilingOffLeavesLaunchResultBitIdentical) {
  ProfGuard guard;

  // Baseline: GPC_PROF unset / recorder off (the shipping default).
  ASSERT_FALSE(prof::enabled());
  cuda::Context baseline_ctx(arch::gtx480());
  const sim::LaunchResult off = run_vector_add(baseline_ctx);

  // Same launch, full profiling on: observing must not perturb the result.
  prof::recorder().set_modes(prof::kAll);
  cuda::Context profiled_ctx(arch::gtx480());
  const sim::LaunchResult on = run_vector_add(profiled_ctx);

  expect_block_stats_equal(off.stats.total, on.stats.total);
  EXPECT_EQ(off.stats.blocks, on.stats.blocks);
  EXPECT_EQ(off.stats.threads_per_block, on.stats.threads_per_block);
  ASSERT_EQ(off.stats.sm_issue_weight.size(), on.stats.sm_issue_weight.size());
  for (std::size_t i = 0; i < off.stats.sm_issue_weight.size(); ++i) {
    EXPECT_EQ(off.stats.sm_issue_weight[i], on.stats.sm_issue_weight[i]);
  }
  EXPECT_EQ(off.timing.seconds, on.timing.seconds);
  EXPECT_EQ(off.timing.launch_s, on.timing.launch_s);
  EXPECT_EQ(off.timing.issue_s, on.timing.issue_s);
  EXPECT_EQ(off.timing.dram_s, on.timing.dram_s);
  EXPECT_EQ(off.timing.latency_factor, on.timing.latency_factor);
}

/// Runs vector_add through both runtimes with full profiling; returns the
/// number of launches recorded.
int run_both_runtimes() {
  cuda::Context cu(arch::gtx480());
  (void)run_vector_add(cu);

  ocl::Context cl(arch::gtx480());
  ocl::Program prog(cl, vector_add_kernel());
  EXPECT_EQ(prog.build(), ocl::Status::Success);
  ocl::CommandQueue q(cl);
  const int n = 1024;
  std::vector<float> h(n, 2.0f);
  auto ba = cl.create_buffer(n * 4);
  auto bb = cl.create_buffer(n * 4);
  auto bc = cl.create_buffer(n * 4);
  EXPECT_EQ(q.enqueue_write_buffer(ba, h.data(), n * 4), ocl::Status::Success);
  EXPECT_EQ(q.enqueue_write_buffer(bb, h.data(), n * 4), ocl::Status::Success);
  std::vector<sim::KernelArg> args = {
      sim::KernelArg::ptr(ba.addr), sim::KernelArg::ptr(bb.addr),
      sim::KernelArg::ptr(bc.addr), sim::KernelArg::s32(n)};
  EXPECT_EQ(q.enqueue_nd_range(prog.kernel(), {n, 1, 1}, {256, 1, 1}, args),
            ocl::Status::Success);

  int launches = 0;
  for (const prof::Event* ev : prof::recorder().snapshot()) {
    if (ev->kind == prof::Event::Kind::Launch) ++launches;
  }
  return launches;
}

TEST(ProfExport, ChromeTraceRoundTripsThroughParser) {
  ProfGuard guard;
  prof::recorder().set_modes(prof::kAll);
  ASSERT_EQ(run_both_runtimes(), 2);

  const std::string path = testing::TempDir() + "/gpc_prof_trace.json";
  ASSERT_TRUE(prof::recorder().write_chrome_trace(path));

  const Json doc = JsonParser(read_file(path)).parse();
  ASSERT_EQ(doc.t, Json::T::Obj);
  ASSERT_TRUE(doc.has("traceEvents"));
  const Json& evs = doc.at("traceEvents");
  ASSERT_EQ(evs.t, Json::T::Arr);
  ASSERT_FALSE(evs.arr.empty());

  bool cuda_kernel = false, ocl_kernel = false, launch_slice = false;
  for (const Json& ev : evs.arr) {
    ASSERT_EQ(ev.t, Json::T::Obj);
    ASSERT_TRUE(ev.has("ph"));
    ASSERT_TRUE(ev.has("pid"));
    ASSERT_TRUE(ev.has("name"));
    if (ev.at("ph").str == "X") {
      ASSERT_TRUE(ev.has("ts"));
      ASSERT_TRUE(ev.has("dur"));
      EXPECT_GE(ev.at("ts").num, 0.0);
      EXPECT_GE(ev.at("dur").num, 0.0);
      const std::string& cat = ev.at("cat").str;
      if (cat == "kernel") {
        EXPECT_EQ(ev.at("name").str, "vector_add");
        // The per-runtime device tracks are what makes the CUDA-vs-OpenCL
        // launch gap visible; check both exist and carry the breakdown.
        if (ev.at("pid").num == 1) cuda_kernel = true;
        if (ev.at("pid").num == 2) ocl_kernel = true;
        ASSERT_TRUE(ev.has("args"));
        EXPECT_TRUE(ev.at("args").has("limiter"));
        EXPECT_TRUE(ev.at("args").has("launch_us"));
        EXPECT_TRUE(ev.at("args").has("occupancy"));
      } else if (cat == "launch") {
        launch_slice = true;
        EXPECT_EQ(ev.at("name").str, "[launch] vector_add");
      }
    }
  }
  EXPECT_TRUE(cuda_kernel);
  EXPECT_TRUE(ocl_kernel);
  EXPECT_TRUE(launch_slice);
}

TEST(ProfExport, CountersJsonlRoundTripsAndMatchesRecords) {
  ProfGuard guard;
  prof::recorder().set_modes(prof::kCounters);
  ASSERT_EQ(run_both_runtimes(), 2);

  const std::string path = testing::TempDir() + "/gpc_prof_counters.jsonl";
  ASSERT_TRUE(prof::recorder().write_counters_jsonl(path));

  std::vector<const prof::LaunchRecord*> records;
  for (const prof::Event* ev : prof::recorder().snapshot()) {
    if (ev->kind == prof::Event::Kind::Launch) records.push_back(
        ev->launch.get());
  }

  const std::string text = read_file(path);
  std::vector<Json> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    ASSERT_NE(nl, std::string::npos) << "unterminated JSONL line";
    lines.push_back(JsonParser(text.substr(pos, nl - pos)).parse());
    pos = nl + 1;
  }
  ASSERT_EQ(lines.size(), records.size());

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Json& line = lines[i];
    const prof::LaunchRecord& rec = *records[i];
    EXPECT_EQ(line.at("kernel").str, rec.kernel);
    EXPECT_EQ(line.at("runtime").str,
              rec.toolchain == arch::Toolchain::Cuda ? "CUDA" : "OpenCL");
    EXPECT_EQ(line.at("device").str, rec.device);
    EXPECT_EQ(line.at("blocks").num, rec.blocks);
    const Json& c = line.at("counters");
    EXPECT_EQ(static_cast<std::uint64_t>(c.at("alu_issues").num),
              rec.counters.alu_issues);
    EXPECT_EQ(static_cast<std::uint64_t>(c.at("mem_issues").num),
              rec.counters.mem_issues);
    EXPECT_EQ(static_cast<std::uint64_t>(c.at("dram_read_bytes").num),
              rec.counters.dram_read_bytes);
    EXPECT_EQ(c.obj.size(), 21u) << "full BlockStats counter set expected";
  }
}

TEST(ProfExport, DeviceTrackLaunchesDoNotOverlap) {
  ProfGuard guard;
  prof::recorder().set_modes(prof::kTrace);
  cuda::Context ctx(arch::gtx480());
  for (int i = 0; i < 5; ++i) (void)run_vector_add(ctx);

  std::vector<const prof::Event*> launches;
  for (const prof::Event* ev : prof::recorder().snapshot()) {
    if (ev->kind == prof::Event::Kind::Launch) launches.push_back(ev);
  }
  ASSERT_EQ(launches.size(), 5u);
  for (std::size_t i = 1; i < launches.size(); ++i) {
    EXPECT_GE(launches[i]->start_ns, launches[i - 1]->end_ns)
        << "device executes one grid at a time";
  }
}

TEST(ProfSummary, AggregatesPerRuntimeAndApi) {
  ProfGuard guard;
  prof::recorder().set_modes(prof::kSummary);
  ASSERT_EQ(run_both_runtimes(), 2);

  const std::string s = prof::recorder().summary();
  EXPECT_NE(s.find("CUDA kernels"), std::string::npos) << s;
  EXPECT_NE(s.find("OpenCL kernels"), std::string::npos) << s;
  EXPECT_NE(s.find("vector_add"), std::string::npos) << s;
  EXPECT_NE(s.find("Host API calls"), std::string::npos) << s;
  EXPECT_NE(s.find("clEnqueueNDRangeKernel"), std::string::npos) << s;
  EXPECT_NE(s.find("cudaLaunchKernel"), std::string::npos) << s;
}

TEST(LogClock, MonotonicTimestampsAndStableThreadIds) {
  const std::int64_t a = log::now_ns();
  const std::int64_t b = log::now_ns();
  EXPECT_GE(b, a);
  const int self = log::thread_id();
  EXPECT_EQ(log::thread_id(), self);  // stable within a thread
  int other = -1;
  std::thread t([&other] { other = log::thread_id(); });
  t.join();
  EXPECT_NE(other, self);  // distinct across threads
}

}  // namespace
}  // namespace gpc
