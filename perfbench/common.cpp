#include "common.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "common/rng.h"
#include "prof/prof.h"

namespace perfbench {

void RunRecord::fail(const std::string& what) {
  ++failed_ops;
  if (failures.size() < 20) failures.push_back(what);
}

void RunRecord::record_cell(const std::string& cell, std::uint64_t hash) {
  const auto [it, inserted] = cells.emplace(cell, hash);
  if (!inserted && it->second != hash) unstable.insert(cell);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

bool more_passes(int done, int passes, int min_passes, double start_s,
                 double budget_s) {
  if (passes > 0) return done < passes;
  return done < min_passes || now_s() - start_s < budget_s;
}

double timed(const std::function<void()>& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

void record_compiles(const std::function<void()>& setup, RunRecord& rec) {
  auto& recorder = gpc::prof::recorder();
  recorder.set_modes(gpc::prof::kCounters);
  setup();
  recorder.set_modes(gpc::prof::kOff);
  for (const gpc::prof::Event* e : recorder.snapshot()) {
    if (e->kind == gpc::prof::Event::Kind::Span &&
        std::string_view(e->category) == "compile") {
      rec.metrics["compiler.build_ms"] +=
          static_cast<double>(e->end_ns - e->start_ns) * 1e-6;
      rec.metrics["compiler.builds"] += 1;
    }
  }
  recorder.clear();
}

std::vector<int> permutation(std::size_t n, std::uint64_t* rng_state) {
  gpc::Rng rng(*rng_state);
  std::vector<int> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(static_cast<std::uint32_t>(i))]);
  }
  *rng_state = rng.next_u64();
  return order;
}

void Hasher::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 1099511628211ull;
  }
}

void Hasher::stats(const gpc::sim::BlockStats& s) {
  for (const std::uint64_t v :
       {s.alu_issues, s.ialu_issues, s.agu_issues, s.mad_issues, s.mul_issues,
        s.sfu_issues, s.branch_issues, s.mem_issues, s.shared_cycles,
        s.const_cycles, s.barrier_count, s.dram_read_bytes, s.dram_write_bytes,
        s.dram_transactions, s.useful_global_bytes, s.local_bytes,
        s.tex_requests, s.tex_hits, s.l1_hits, s.atomic_serial_ops,
        s.fused_groups, s.cohort_splits, s.cohort_merges}) {
    u64(v);
  }
  for (const std::uint64_t v : s.xkind_issues) u64(v);
  for (const std::uint64_t v : s.fused_exec) u64(v);
  u64(s.cohort_max_live);
  u64(s.div_depth_max);
  f64(s.flops);
}

std::uint64_t hash_result(const gpc::bench::Result& r) {
  Hasher h;
  h.str(r.status);
  h.f64(r.value);
  h.f64(r.seconds);
  h.f64(r.launch_seconds);
  h.f64(r.issue_seconds);
  h.f64(r.dram_seconds);
  h.u64(static_cast<std::uint64_t>(r.launches));
  h.stats(r.stats);
  return h.value();
}

std::uint64_t hash_launch(const gpc::sim::LaunchResult& r,
                          std::uint64_t output_hash) {
  Hasher h;
  h.f64(r.timing.seconds);
  h.f64(r.timing.launch_s);
  h.f64(r.timing.issue_s);
  h.f64(r.timing.dram_s);
  h.u64(static_cast<std::uint64_t>(r.stats.blocks));
  h.u64(static_cast<std::uint64_t>(r.stats.threads_per_block));
  h.stats(r.stats.total);
  h.u64(output_hash);
  return h.value();
}

std::uint64_t warp_instructions(const gpc::sim::BlockStats& s) {
  std::uint64_t n = 0;
  for (const std::uint64_t v : s.xkind_issues) n += v;
  return n;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
