#include "aiwc/aiwc.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/config.h"
#include "common/error.h"

namespace gpc::aiwc {

namespace {

/// Mirror of sim/decode.h to_string(XKind) — this library cannot include sim
/// headers (gpc_sim links gpc_aiwc). tests/aiwc_test.cpp locks the two
/// tables against each other.
constexpr const char* kKindNames[16] = {
    "bra",       "exit",      "bar",       "ld_param",
    "mem_global", "mem_shared", "mem_local", "mem_const",
    "mem_tex",   "read_sreg", "mov",       "cvt",
    "setp",      "selp",      "float_op",  "int_op",
};

void add_vec(std::vector<std::uint64_t>& a,
             const std::vector<std::uint64_t>& b) {
  if (b.empty()) return;
  if (a.empty()) {
    a = b;
    return;
  }
  GPC_CHECK(a.size() == b.size(),
            "aiwc: merging features of different programs");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
}

void add_map(std::unordered_map<std::uint64_t, std::uint64_t>& a,
             const std::unordered_map<std::uint64_t, std::uint64_t>& b) {
  for (const auto& [k, v] : b) a[k] += v;
}

struct Fnv {
  std::uint64_t h = 14695981039346656037ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  void mix_vec(const std::vector<std::uint64_t>& v) {
    mix(v.size());
    for (std::uint64_t x : v) mix(x);
  }
  void mix_map(const std::unordered_map<std::uint64_t, std::uint64_t>& m) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> kv(m.begin(),
                                                            m.end());
    std::sort(kv.begin(), kv.end());
    mix(kv.size());
    for (const auto& [k, v] : kv) {
      mix(k);
      mix(v);
    }
  }
};

/// Shannon entropy (bits) of a count distribution.
double entropy(const std::vector<std::uint64_t>& counts,
               std::uint64_t total) {
  if (total == 0) return 0.0;
  double h = 0.0;
  for (std::uint64_t c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(total);
    h -= p * std::log2(p);
  }
  return h;
}

}  // namespace

const char* kind_name(std::uint8_t kind) {
  return kind < 16 ? kKindNames[kind] : "?";
}

void Features::merge(const Features& o) {
  if (sites.empty()) sites = o.sites;
  if (static_ops == 0) static_ops = o.static_ops;
  if (static_fused_ops == 0) static_fused_ops = o.static_fused_ops;
  blocks += o.blocks;
  warps += o.warps;
  if (threads_per_block == 0) threads_per_block = o.threads_per_block;
  if (warp_size == 0) warp_size = o.warp_size;

  add_vec(site_issues, o.site_issues);
  add_vec(site_lanes, o.site_lanes);
  add_vec(branch_exec, o.branch_exec);
  add_vec(branch_taken, o.branch_taken);
  add_vec(branch_eval, o.branch_eval);
  add_vec(branch_split, o.branch_split);
  for (int i = 0; i < 65; ++i) occupancy_hist[i] += o.occupancy_hist[i];

  add_map(global_words, o.global_words);
  add_map(shared_words, o.shared_words);
  for (int i = 0; i < kReuseBuckets; ++i) reuse_hist[i] += o.reuse_hist[i];
  reuse_cold += o.reuse_cold;
  for (int i = 0; i < 4; ++i) stride_class[i] += o.stride_class[i];
  global_accesses += o.global_accesses;
  shared_accesses += o.shared_accesses;
  global_instrs += o.global_instrs;
}

std::uint64_t Features::total_issues() const {
  std::uint64_t s = 0;
  for (std::uint64_t v : site_issues) s += v;
  return s;
}

std::uint64_t Features::total_lanes() const {
  std::uint64_t s = 0;
  for (std::uint64_t v : site_lanes) s += v;
  return s;
}

std::uint64_t Features::digest() const {
  Fnv f;
  f.mix(sites.size());
  for (const SiteInfo& s : sites) {
    f.mix(static_cast<std::uint64_t>(s.kind) |
          (static_cast<std::uint64_t>(s.op) << 8) |
          (static_cast<std::uint64_t>(s.type) << 16) |
          (static_cast<std::uint64_t>(s.flops) << 24));
  }
  f.mix(static_ops);
  f.mix(static_fused_ops);
  f.mix(blocks);
  f.mix(warps);
  f.mix(static_cast<std::uint64_t>(threads_per_block));
  f.mix(static_cast<std::uint64_t>(warp_size));
  f.mix_vec(site_issues);
  f.mix_vec(site_lanes);
  f.mix_vec(branch_exec);
  f.mix_vec(branch_taken);
  f.mix_vec(branch_eval);
  f.mix_vec(branch_split);
  for (int i = 0; i < 65; ++i) f.mix(occupancy_hist[i]);
  f.mix_map(global_words);
  f.mix_map(shared_words);
  for (int i = 0; i < kReuseBuckets; ++i) f.mix(reuse_hist[i]);
  f.mix(reuse_cold);
  for (int i = 0; i < 4; ++i) f.mix(stride_class[i]);
  f.mix(global_accesses);
  f.mix(shared_accesses);
  f.mix(global_instrs);
  return f.h;
}

std::vector<Metric> finalize(const Features& f) {
  std::vector<Metric> out;
  const auto put = [&out](const char* name, double v) {
    out.push_back(Metric{name, v});
  };

  const std::uint64_t issues = f.total_issues();
  const std::uint64_t lanes = f.total_lanes();

  // Opcode histogram over the fusion-invariant (kind, op, type) triple,
  // folded from per-pc issue counts via a sorted map.
  std::map<std::uint32_t, std::uint64_t> opcode_hist;
  std::uint64_t flop_issues = 0;
  std::uint64_t barrier_issues = 0;
  for (std::size_t pc = 0; pc < f.site_issues.size() && pc < f.sites.size();
       ++pc) {
    const std::uint64_t c = f.site_issues[pc];
    if (c == 0) continue;
    const SiteInfo& s = f.sites[pc];
    const std::uint32_t key = static_cast<std::uint32_t>(s.kind) << 16 |
                              static_cast<std::uint32_t>(s.op) << 8 |
                              static_cast<std::uint32_t>(s.type);
    opcode_hist[key] += c;
    if (s.flops > 0) flop_issues += c;
    if (s.kind == kKindBar) barrier_issues += c;
  }
  std::vector<std::uint64_t> opcode_counts;
  opcode_counts.reserve(opcode_hist.size());
  for (const auto& [k, v] : opcode_hist) opcode_counts.push_back(v);
  put("opcode_unique", static_cast<double>(opcode_hist.size()));
  put("opcode_entropy", entropy(opcode_counts, issues));
  put("flop_issue_fraction",
      issues ? static_cast<double>(flop_issues) / issues : 0.0);
  put("fused_idiom_density",
      f.static_ops ? static_cast<double>(f.static_fused_ops) / f.static_ops
                   : 0.0);

  // Branch entropy: execution-weighted mean of the per-site binary entropy
  // of the taken/not-taken split (AIWC's "branch entropy"; 0 = perfectly
  // predictable, 1 = coin-flip everywhere).
  double br_h = 0.0;
  std::uint64_t br_weight = 0, br_exec = 0, br_split = 0;
  for (std::size_t pc = 0; pc < f.branch_eval.size(); ++pc) {
    const std::uint64_t ev = f.branch_eval[pc];
    br_exec += pc < f.branch_exec.size() ? f.branch_exec[pc] : 0;
    br_split += pc < f.branch_split.size() ? f.branch_split[pc] : 0;
    if (ev == 0) continue;
    const double p = static_cast<double>(f.branch_taken[pc]) /
                     static_cast<double>(ev);
    double h = 0.0;
    if (p > 0.0 && p < 1.0) {
      h = -(p * std::log2(p) + (1.0 - p) * std::log2(1.0 - p));
    }
    br_h += h * static_cast<double>(ev);
    br_weight += ev;
  }
  put("branch_entropy", br_weight ? br_h / static_cast<double>(br_weight)
                                  : 0.0);
  put("branch_divergence_rate",
      br_exec ? static_cast<double>(br_split) / br_exec : 0.0);

  put("simt_efficiency",
      issues && f.warp_size
          ? static_cast<double>(lanes) /
                (static_cast<double>(issues) * f.warp_size)
          : 0.0);
  const int wpb =
      f.warp_size > 0
          ? (f.threads_per_block + f.warp_size - 1) / f.warp_size
          : 0;
  put("workgroup_utilization",
      wpb ? static_cast<double>(f.threads_per_block) /
                (static_cast<double>(wpb) * f.warp_size)
          : 0.0);
  put("barriers_per_warp",
      f.warps ? static_cast<double>(barrier_issues) / f.warps : 0.0);

  put("global_unique_words", static_cast<double>(f.global_words.size()));
  put("shared_unique_words", static_cast<double>(f.shared_words.size()));

  // Memory-access entropy at kEntropyLevels decimation levels: level L
  // groups word addresses by (word >> L). The level-0 value is the plain
  // access entropy; the decay across levels is AIWC's locality curve.
  {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> words(
        f.global_words.begin(), f.global_words.end());
    std::sort(words.begin(), words.end());
    std::uint64_t total = 0;
    for (const auto& [w, c] : words) total += c;
    for (int level = 0; level < kEntropyLevels; ++level) {
      std::vector<std::uint64_t> groups;
      std::uint64_t run = 0, key = 0;
      bool first = true;
      for (const auto& [w, c] : words) {
        const std::uint64_t g = w >> level;
        if (first || g != key) {
          if (!first) groups.push_back(run);
          key = g;
          run = 0;
          first = false;
        }
        run += c;
      }
      if (!first) groups.push_back(run);
      const std::string name = "mem_entropy_l" + std::to_string(level);
      out.push_back(Metric{name, entropy(groups, total)});
    }
  }

  put("reuse_cold_fraction",
      f.global_accesses
          ? static_cast<double>(f.reuse_cold) / f.global_accesses
          : 0.0);
  // Weighted median log2 reuse distance of the non-cold accesses.
  {
    std::uint64_t warm = 0;
    for (int i = 0; i < kReuseBuckets; ++i) warm += f.reuse_hist[i];
    double median = 0.0;
    if (warm > 0) {
      std::uint64_t acc = 0;
      for (int i = 0; i < kReuseBuckets; ++i) {
        acc += f.reuse_hist[i];
        if (acc * 2 >= warm) {
          median = static_cast<double>(i);
          break;
        }
      }
    }
    put("reuse_median_log2", median);
  }

  static const char* kStrideNames[4] = {
      "stride_broadcast_fraction", "stride_unit_fraction",
      "stride_strided_fraction", "stride_gather_fraction"};
  for (int i = 0; i < 4; ++i) {
    put(kStrideNames[i], f.global_instrs
                             ? static_cast<double>(f.stride_class[i]) /
                                   f.global_instrs
                             : 0.0);
  }
  return out;
}

bool enabled_from_env() {
  // Deliberately re-read per call: tests and tools toggle GPC_AIWC between
  // launches (same contract as sanitize_options_from_env).
  const char* e = config::get("GPC_AIWC");
  return e != nullptr && config::parse_bool("GPC_AIWC", "enable", e);
}

// ---------------------------------------------------------------------------
// Collector

Collector::Collector(std::vector<SiteInfo> sites, std::uint64_t blocks,
                     int threads_per_block, int warp_size,
                     std::uint32_t static_ops,
                     std::uint32_t static_fused_ops) {
  agg_.sites = std::move(sites);
  agg_.blocks = blocks;
  agg_.threads_per_block = threads_per_block;
  agg_.warp_size = warp_size;
  agg_.static_ops = static_ops;
  agg_.static_fused_ops = static_fused_ops;
  const std::uint64_t wpb =
      warp_size > 0
          ? static_cast<std::uint64_t>((threads_per_block + warp_size - 1) /
                                       warp_size)
          : 0;
  agg_.warps = blocks * wpb;
}

void Collector::absorb(const Features& block_features) {
  std::lock_guard<std::mutex> lock(mu_);
  agg_.merge(block_features);
}

std::shared_ptr<Features> Collector::take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::make_shared<Features>(std::move(agg_));
}

// ---------------------------------------------------------------------------
// BlockAiwc

BlockAiwc::BlockAiwc(Collector& collector) : collector_(collector) {
  const std::size_t n = collector.num_sites();
  f_.site_issues.assign(n, 0);
  f_.site_lanes.assign(n, 0);
  f_.branch_exec.assign(n, 0);
  f_.branch_taken.assign(n, 0);
  f_.branch_eval.assign(n, 0);
  f_.branch_split.assign(n, 0);
}

void BlockAiwc::fenwick_add(std::uint32_t pos, int delta) {
  const std::uint32_t d = static_cast<std::uint32_t>(delta);
  for (; pos < fenwick_.size(); pos += pos & (~pos + 1)) {
    fenwick_[pos] += d;
  }
}

std::uint32_t BlockAiwc::fenwick_prefix(std::uint32_t pos) const {
  std::uint32_t s = 0;
  for (; pos > 0; pos -= pos & (~pos + 1)) s += fenwick_[pos];
  return s;
}

std::uint64_t BlockAiwc::reuse_distance(std::uint64_t line) {
  ++time_;
  if (static_cast<std::size_t>(time_) >= fenwick_.size()) {
    // Grow and rebuild: one set bit per distinct line at its last-access
    // time. O(lines * log) on each doubling — amortized constant per access.
    std::size_t cap = fenwick_.empty() ? 1024 : fenwick_.size();
    while (cap <= time_) cap *= 2;
    fenwick_.assign(cap, 0);
    for (const auto& [ln, t] : last_access_) {
      for (std::uint32_t p = t; p < cap; p += p & (~p + 1)) fenwick_[p]++;
    }
  }
  std::uint64_t d = 0;  // 0 = cold (first touch)
  const auto it = last_access_.find(line);
  if (it != last_access_.end()) {
    // Stack position = lines touched more recently than this one, plus one.
    d = last_access_.size() - fenwick_prefix(it->second) + 1;
    fenwick_add(it->second, -1);
    it->second = time_;
  } else {
    last_access_.emplace(line, time_);
  }
  fenwick_add(time_, +1);
  return d;
}

void BlockAiwc::global_access(const std::uint64_t* addrs, int n, int size) {
  if (n <= 0) return;
  f_.global_instrs++;
  f_.global_accesses += static_cast<std::uint64_t>(n);

  int cls = kUnitStride;  // single-lane instructions count as unit stride
  if (n > 1) {
    bool same = true, unit = true, constant = true;
    const std::int64_t d0 = static_cast<std::int64_t>(addrs[1] - addrs[0]);
    for (int i = 1; i < n; ++i) {
      const std::int64_t d =
          static_cast<std::int64_t>(addrs[i] - addrs[i - 1]);
      same &= d == 0;
      unit &= d == size;
      constant &= d == d0;
    }
    cls = same ? kBroadcast : unit ? kUnitStride
                 : constant ? kStrided : kGather;
  }
  f_.stride_class[cls]++;

  for (int i = 0; i < n; ++i) {
    f_.global_words[addrs[i] >> 2]++;
    const std::uint64_t d = reuse_distance(addrs[i] / kReuseLineBytes);
    if (d == 0) {
      f_.reuse_cold++;
    } else {
      int b = std::bit_width(d) - 1;
      if (b >= kReuseBuckets) b = kReuseBuckets - 1;
      f_.reuse_hist[b]++;
    }
  }
}

void BlockAiwc::shared_access(const std::uint64_t* addrs, int n) {
  if (n <= 0) return;
  f_.shared_accesses += static_cast<std::uint64_t>(n);
  for (int i = 0; i < n; ++i) f_.shared_words[addrs[i] >> 2]++;
}

void BlockAiwc::flush() { collector_.absorb(f_); }

}  // namespace gpc::aiwc
