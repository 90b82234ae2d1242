// Exporters: chrome://tracing / Perfetto trace_event JSON and the JSONL
// counter stream. Formats are documented in DESIGN.md §11 and validated by
// tools/validate_trace.py (schema) and tests/prof_test.cpp (round-trip).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/log.h"
#include "prof/prof.h"
#include "sim/decode.h"

namespace gpc::prof {
namespace {

/// JSON string escaping (control chars, quote, backslash).
std::string esc(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// trace_event `pid` per track: one synthetic "process" per timeline so the
/// viewer stacks host threads and the two device timelines separately.
int track_pid(Track t) { return static_cast<int>(t); }

const char* runtime_name(arch::Toolchain tc) {
  return tc == arch::Toolchain::Cuda ? "CUDA" : "OpenCL";
}

double us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

void emit_complete(std::FILE* f, int pid, int tid, const char* cat,
                   const std::string& name, std::int64_t start_ns,
                   std::int64_t end_ns, const std::string& args_json,
                   bool* first) {
  std::fprintf(f,
               "%s  {\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"cat\":\"%s\","
               "\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f%s%s}",
               *first ? "" : ",\n", pid, tid, cat, esc(name).c_str(),
               us(start_ns), us(end_ns - start_ns),
               args_json.empty() ? "" : ",\"args\":", args_json.c_str());
  *first = false;
}

void emit_meta(std::FILE* f, int pid, int tid, const char* what,
               const std::string& name, bool* first) {
  std::fprintf(f,
               "%s  {\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"%s\","
               "\"args\":{\"name\":\"%s\"}}",
               *first ? "" : ",\n", pid, tid, what, esc(name).c_str());
  *first = false;
}

std::string launch_args_json(const LaunchRecord& l) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"device\":\"%s\",\"runtime\":\"%s\",\"blocks\":%d,\"tpb\":%d,"
      "\"launch_us\":%.3f,\"issue_us\":%.3f,\"dram_us\":%.3f,"
      "\"latency_factor\":%.4f,\"occupancy\":%.4f,\"limiter\":\"%s\"}",
      esc(l.device).c_str(), runtime_name(l.toolchain), l.blocks,
      l.threads_per_block, l.timing.launch_s * 1e6, l.timing.issue_s * 1e6,
      l.timing.dram_s * 1e6, l.timing.latency_factor,
      l.timing.occupancy.fraction, l.timing.occupancy.limiter);
  return buf;
}

}  // namespace

bool Recorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    GPC_LOG(Error) << "prof: cannot write trace to " << path;
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  std::set<std::pair<int, int>> tenant_rows;  // (pid, tid) rows to name

  // Track naming so Perfetto shows meaningful labels instead of pids.
  emit_meta(f, track_pid(Track::Host), 0, "process_name", "host", &first);
  emit_meta(f, track_pid(Track::CudaDevice), 0, "process_name",
            "CUDA device (simulated)", &first);
  emit_meta(f, track_pid(Track::OclDevice), 0, "process_name",
            "OpenCL device (simulated)", &first);

  for (const Event* ev : snapshot()) {
    switch (ev->kind) {
      case Event::Kind::Span:
        emit_complete(f, track_pid(ev->track), ev->tid, ev->category,
                      ev->name, ev->start_ns, ev->end_ns, "", &first);
        break;
      case Event::Kind::Instant:
        std::fprintf(f,
                     "%s  {\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"cat\":\"%s\","
                     "\"name\":\"%s\",\"ts\":%.3f,\"s\":\"t\"}",
                     first ? "" : ",\n", track_pid(ev->track), ev->tid,
                     ev->category, esc(ev->name).c_str(), us(ev->start_ns));
        first = false;
        break;
      case Event::Kind::Launch: {
        // Two slices on the device track: the runtime's launch overhead
        // (enqueue to kernel start — §IV-B.4's quantity), then execution.
        // Virtual-device launches land on a per-tenant row (tid = tenant+1)
        // of the same device track, so the trace viewer shows each tenant's
        // share of the one serialized device timeline; unvirtualized
        // launches stay on row 0.
        const LaunchRecord& l = *ev->launch;
        const int tid = l.tenant >= 0 ? l.tenant + 1 : 0;
        if (tid > 0) {
          tenant_rows.insert({track_pid(ev->track), tid});
        }
        const auto launch_ns =
            static_cast<std::int64_t>(l.timing.launch_s * 1e9);
        const std::int64_t split =
            std::min(ev->end_ns, ev->start_ns + std::max<std::int64_t>(
                                                    launch_ns, 0));
        emit_complete(f, track_pid(ev->track), tid, "launch",
                      "[launch] " + l.kernel, ev->start_ns, split, "", &first);
        emit_complete(f, track_pid(ev->track), tid, "kernel", l.kernel, split,
                      ev->end_ns, launch_args_json(l), &first);
        if (l.aiwc) {
          // Headline AIWC series as Chrome counter tracks ("C" events),
          // sampled once per launch at kernel start on the device timeline —
          // scrubbing the trace shows how workload character shifts across
          // the launch sequence (e.g. BFS levels diverging).
          const std::vector<aiwc::Metric> m = aiwc::finalize(*l.aiwc);
          const auto get = [&m](const char* name) {
            for (const aiwc::Metric& x : m) {
              if (x.name == name) return x.value;
            }
            return 0.0;
          };
          std::fprintf(
              f,
              "%s  {\"ph\":\"C\",\"pid\":%d,\"tid\":%d,\"cat\":\"aiwc\","
              "\"name\":\"aiwc\",\"ts\":%.3f,\"args\":{"
              "\"simt_efficiency\":%.6f,\"branch_entropy\":%.6f,"
              "\"opcode_entropy\":%.6f,\"mem_entropy_l0\":%.6f,"
              "\"reuse_cold_fraction\":%.6f}}",
              first ? "" : ",\n", track_pid(ev->track), tid, us(split),
              get("simt_efficiency"), get("branch_entropy"),
              get("opcode_entropy"), get("mem_entropy_l0"),
              get("reuse_cold_fraction"));
          first = false;
        }
        break;
      }
      case Event::Kind::Serve:
        // Serve completions span submit (client thread) to completion
        // (worker thread); emitting them as host spans would break the
        // per-thread nesting the trace schema guarantees. They are exported
        // via counters.jsonl ("type":"serve") and the exit summary instead.
        break;
    }
  }
  for (const auto& [pid, tid] : tenant_rows) {
    emit_meta(f, pid, tid, "thread_name",
              "tenant " + std::to_string(tid - 1), &first);
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  return true;
}

bool Recorder::write_counters_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    GPC_LOG(Error) << "prof: cannot write counters to " << path;
    return false;
  }
  for (const Event* ev : snapshot()) {
    if (ev->kind == Event::Kind::Serve) {
      // One line per served job (gpc::serve): classification, queue/serve
      // latency, batching and kernel-cache provenance. Tagged with
      // "type":"serve" so consumers (tools/validate_trace.py) separate the
      // serving stream from the per-launch counter stream.
      const ServeRecord& s = *ev->serve;
      std::fprintf(f,
                   "{\"type\":\"serve\",\"job\":%" PRIu64
                   ",\"class\":\"%s\",\"kernel\":\"%s\",\"device\":\"%s\","
                   "\"shard\":%d,\"batch\":%d,\"queue_depth\":%d,"
                   "\"cache_hit\":%s,\"queue_ns\":%" PRId64
                   ",\"total_ns\":%" PRId64 "}\n",
                   s.job_id, s.cls.c_str(), esc(s.kernel).c_str(),
                   esc(s.device).c_str(), s.shard, s.batch, s.queue_depth,
                   s.cache_hit ? "true" : "false", s.queue_ns, s.total_ns);
      continue;
    }
    if (ev->kind != Event::Kind::Launch) continue;
    const LaunchRecord& l = *ev->launch;
    const sim::BlockStats& c = l.counters;
    std::fprintf(
        f,
        "{\"kernel\":\"%s\",\"runtime\":\"%s\",\"device\":\"%s\","
        "\"blocks\":%d,\"tpb\":%d,"
        "\"seconds\":%.9e,\"launch_s\":%.9e,\"issue_s\":%.9e,"
        "\"dram_s\":%.9e,\"latency_factor\":%.6f,"
        "\"occupancy\":%.6f,\"resident_warps\":%d,\"limiter\":\"%s\","
        "\"counters\":{"
        "\"alu_issues\":%" PRIu64 ",\"ialu_issues\":%" PRIu64
        ",\"agu_issues\":%" PRIu64 ",\"mad_issues\":%" PRIu64
        ",\"mul_issues\":%" PRIu64 ",\"sfu_issues\":%" PRIu64
        ",\"branch_issues\":%" PRIu64 ",\"mem_issues\":%" PRIu64
        ",\"shared_cycles\":%" PRIu64 ",\"const_cycles\":%" PRIu64
        ",\"barrier_count\":%" PRIu64 ",\"dram_read_bytes\":%" PRIu64
        ",\"dram_write_bytes\":%" PRIu64 ",\"dram_transactions\":%" PRIu64
        ",\"useful_global_bytes\":%" PRIu64 ",\"local_bytes\":%" PRIu64
        ",\"tex_requests\":%" PRIu64 ",\"tex_hits\":%" PRIu64
        ",\"l1_hits\":%" PRIu64 ",\"atomic_serial_ops\":%" PRIu64
        ",\"flops\":%.6e}",
        esc(l.kernel).c_str(), runtime_name(l.toolchain),
        esc(l.device).c_str(), l.blocks, l.threads_per_block,
        l.timing.seconds, l.timing.launch_s, l.timing.issue_s,
        l.timing.dram_s, l.timing.latency_factor, l.timing.occupancy.fraction,
        l.timing.occupancy.resident_warps, l.timing.occupancy.limiter,
        c.alu_issues, c.ialu_issues, c.agu_issues, c.mad_issues, c.mul_issues,
        c.sfu_issues, c.branch_issues, c.mem_issues, c.shared_cycles,
        c.const_cycles, c.barrier_count, c.dram_read_bytes,
        c.dram_write_bytes, c.dram_transactions, c.useful_global_bytes,
        c.local_bytes, c.tex_requests, c.tex_hits, c.l1_hits,
        c.atomic_serial_ops, c.flops);
    // Instruction mix: the dynamic per-XKind issue mix (engine-invariant),
    // how many superinstruction groups actually executed fused (zero on the
    // oracle), and the decode pass's static fusion census of the kernel.
    std::fprintf(f, ",\"xkind_issues\":{");
    for (int k = 0; k < sim::kNumXKinds; ++k) {
      std::fprintf(f, "%s\"%s\":%" PRIu64, k == 0 ? "" : ",",
                   sim::to_string(static_cast<sim::XKind>(k)),
                   c.xkind_issues[k]);
    }
    std::fprintf(f, "},\"fused_groups\":%" PRIu64 ",\"fused_exec\":{",
                 c.fused_groups);
    for (int p = 0; p < sim::kNumFusedPatterns; ++p) {
      std::fprintf(f, "%s\"%s\":%" PRIu64, p == 0 ? "" : ",",
                   sim::to_string(static_cast<sim::FusedPattern>(p)),
                   c.fused_exec[p]);
    }
    std::fprintf(f,
                 "},\"static_fusion\":{\"ops\":%u,\"fused_ops\":%u,"
                 "\"groups\":{",
                 l.static_ops, l.static_fused_ops);
    for (int p = 0; p < sim::kNumFusedPatterns; ++p) {
      std::fprintf(f, "%s\"%s\":%u", p == 0 ? "" : ",",
                   sim::to_string(static_cast<sim::FusedPattern>(p)),
                   l.static_fused_groups[p]);
    }
    std::fprintf(f, "}}");
    // Divergence structure from the cohort scheduler (Issue 8): branch
    // splits, limit merges, peak simultaneously-live cohorts in one warp,
    // and the deepest divergence nesting seen. All zero on fully convergent
    // launches and under the min-PC reference scheduler (mode-dependent
    // diagnostics, excluded from the bit-identity contract).
    std::fprintf(f,
                 ",\"cohort\":{\"splits\":%" PRIu64 ",\"merges\":%" PRIu64
                 ",\"max_live\":%u,\"depth_max\":%u}",
                 c.cohort_splits, c.cohort_merges, c.cohort_max_live,
                 c.div_depth_max);
    if (l.tenant >= 0) std::fprintf(f, ",\"tenant\":%d", l.tenant);
    std::fprintf(f, "}\n");
  }
  std::fclose(f);
  return true;
}

bool Recorder::write_aiwc_jsonl(const std::string& path) const {
  // One JSON line per launch that carried aiwc::Features (DESIGN.md §16):
  // launch identity + geometry, the derived feature vector in finalize()'s
  // fixed order, the raw occupancy / reuse-distance / stride histograms,
  // the raw totals the cross-invariants are stated over, and the FNV-1a
  // digest of the raw data (the bit-identity fingerprint).
  const std::vector<const Event*> events = snapshot();
  bool any = false;
  for (const Event* ev : events) {
    if (ev->kind == Event::Kind::Launch && ev->launch->aiwc) {
      any = true;
      break;
    }
  }
  if (!any) return false;

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    GPC_LOG(Error) << "prof: cannot write aiwc features to " << path;
    return false;
  }
  for (const Event* ev : events) {
    if (ev->kind != Event::Kind::Launch || !ev->launch->aiwc) continue;
    const LaunchRecord& l = *ev->launch;
    const aiwc::Features& a = *l.aiwc;
    std::fprintf(f,
                 "{\"kernel\":\"%s\",\"runtime\":\"%s\",\"device\":\"%s\","
                 "\"blocks\":%" PRIu64 ",\"tpb\":%d,\"warp_size\":%d,"
                 "\"warps\":%" PRIu64,
                 esc(l.kernel).c_str(), runtime_name(l.toolchain),
                 esc(l.device).c_str(), a.blocks, a.threads_per_block,
                 a.warp_size, a.warps);

    std::fprintf(f, ",\"features\":{");
    const std::vector<aiwc::Metric> metrics = aiwc::finalize(a);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::fprintf(f, "%s\"%s\":%.9g", i == 0 ? "" : ",",
                   metrics[i].name.c_str(), metrics[i].value);
    }

    std::fprintf(f, "},\"histograms\":{\"occupancy\":[");
    for (int i = 0; i < 65; ++i) {
      std::fprintf(f, "%s%" PRIu64, i == 0 ? "" : ",", a.occupancy_hist[i]);
    }
    std::fprintf(f, "],\"reuse\":[");
    for (int i = 0; i < aiwc::kReuseBuckets; ++i) {
      std::fprintf(f, "%s%" PRIu64, i == 0 ? "" : ",", a.reuse_hist[i]);
    }
    std::fprintf(f, "],\"stride\":[");
    for (int i = 0; i < 4; ++i) {
      std::fprintf(f, "%s%" PRIu64, i == 0 ? "" : ",", a.stride_class[i]);
    }

    std::uint64_t branch_exec = 0, branch_splits = 0;
    for (std::uint64_t v : a.branch_exec) branch_exec += v;
    for (std::uint64_t v : a.branch_split) branch_splits += v;
    std::fprintf(f,
                 "]},\"totals\":{\"issues\":%" PRIu64 ",\"lanes\":%" PRIu64
                 ",\"branch_exec\":%" PRIu64 ",\"branch_splits\":%" PRIu64
                 ",\"global_accesses\":%" PRIu64 ",\"shared_accesses\":%" PRIu64
                 ",\"global_instrs\":%" PRIu64 ",\"global_unique_words\":%zu"
                 ",\"shared_unique_words\":%zu,\"reuse_cold\":%" PRIu64 "}",
                 a.total_issues(), a.total_lanes(), branch_exec, branch_splits,
                 a.global_accesses, a.shared_accesses, a.global_instrs,
                 a.global_words.size(), a.shared_words.size(), a.reuse_cold);

    std::fprintf(f, ",\"digest\":\"%016" PRIx64 "\"", a.digest());
    if (l.tenant >= 0) std::fprintf(f, ",\"tenant\":%d", l.tenant);
    std::fprintf(f, "}\n");
  }
  std::fclose(f);
  return true;
}

}  // namespace gpc::prof
