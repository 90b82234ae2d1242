// gpc::aiwc — architecture-independent workload characterization
// (DESIGN.md §16).
//
// Per-launch feature extraction in the style of AIWC (Chilukuri et al.,
// arXiv:2003.06064): opcode-mix entropy, branch entropy, memory-access
// entropy at ten decimation levels, LRU reuse-distance histograms, stride
// classification, and SIMT-parallelism metrics, all computed from raw
// integral event streams the interpreter feeds through four hooks
// (issue / branch / global_access / shared_access).
//
// Determinism contract: every datum collected here is an integral count
// keyed by a static program location or an address, merged across blocks,
// sub-launches (split/preempted grids) and tenants by order-independent
// sums. Because the production engine (convergent path and cohort scheduler)
// issues the same warp-instruction sequence with the same lane sets as the
// min-PC oracle — the bit-identity contract locked by tests/dispatch_test.cpp —
// the merged Features of one logical launch are bit-identical no matter how
// the launch was executed. Floating-point derived features are computed only
// at finalize() time from the raw integers, iterating sorted keys, so they
// are a pure function of the raw data. digest() fingerprints the raw data.
//
// Layering: this library depends only on gpc_common and gpc_ir (names for
// ops/types). It never sees simulator types — the sim layer passes plain
// integers and address arrays, which is what keeps gpc_sim -> gpc_aiwc a
// one-way dependency.
//
// Cost: disarmed (GPC_AIWC unset and LaunchConfig::aiwc false) the only
// residue in the interpreter is a null-pointer test per hook site, the same
// discipline as the sanitizer (`if (baiwc_) [[unlikely]]`). Armed, each
// block owns a private BlockAiwc merged into the launch Collector once at
// block end — no contention on the per-instruction path.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace gpc::aiwc {

/// Number of log2 buckets in the reuse-distance histogram: bucket i counts
/// accesses whose LRU stack distance d (in 64-byte lines, d >= 1) satisfies
/// floor(log2(d)) == i. 40 buckets cover every distance a bounded simulation
/// can produce.
constexpr int kReuseBuckets = 40;

/// Memory-access entropy is reported at this many decimation levels: level L
/// drops the L low bits of the word address before computing the Shannon
/// entropy of the access distribution (the AIWC "entropy scaling" curve —
/// its slope distinguishes strided from scattered access).
constexpr int kEntropyLevels = 10;

/// Bytes per line for the reuse-distance stack (one GPU cache line).
constexpr int kReuseLineBytes = 64;

/// Stride classes of one warp-level global memory instruction, from the
/// lane-order address deltas: every lane the same address (broadcast),
/// consecutive element-sized deltas (unit), a constant non-element delta
/// (strided), anything else (gather). Single-lane instructions count as
/// unit. Indexes stride_class[].
enum StrideClass : int {
  kBroadcast = 0,
  kUnitStride = 1,
  kStrided = 2,
  kGather = 3,
};

/// Static, fusion-invariant facts about one micro-op, copied from the
/// decoded program by the launch layer. The (kind, op, type) triple is the
/// opcode-histogram key: the decode fusion pass never alters these fields
/// (only the widened xop/fused_len annotations differ on group heads), so
/// the opcode histogram is identical whether or not superinstructions ran.
struct SiteInfo {
  std::uint8_t kind = 0;   // sim::XKind value
  std::uint8_t op = 0;     // ir::Opcode value
  std::uint8_t type = 0;   // ir::Type value
  std::uint8_t flops = 0;  // per-lane flop count
};

/// XKind index of barrier micro-ops (sim::XKind::Bar). Mirrored here (with
/// the name table below) so this library never includes sim headers; locked
/// against sim::to_string(XKind) by tests/aiwc_test.cpp.
constexpr std::uint8_t kKindBar = 2;

/// Lower-snake-case name of a sim::XKind value ("bra", "mem_global", ...),
/// mirroring sim/decode.h's to_string. Returns "?" out of range.
const char* kind_name(std::uint8_t kind);

/// Raw per-launch characterization data. Everything here is integral and
/// merges by order-independent sums — see the determinism contract above.
struct Features {
  // ---- Static program facts (identical in every contribution; merge
  // copies them from whichever side has them) ----
  std::vector<SiteInfo> sites;        // one per micro-op pc
  std::uint32_t static_ops = 0;       // program length (micro-ops)
  std::uint32_t static_fused_ops = 0; // micro-ops inside fused idiom groups

  // ---- Launch geometry (blocks/warps sum across sub-launches) ----
  std::uint64_t blocks = 0;
  std::uint64_t warps = 0;
  int threads_per_block = 0;
  int warp_size = 0;

  // ---- Compute / control: per-pc scheduler-issue counts ----
  std::vector<std::uint64_t> site_issues;  // issues of the op at pc
  std::vector<std::uint64_t> site_lanes;   // scheduled lanes summed over issues
  std::vector<std::uint64_t> branch_exec;  // branch executions at pc
  std::vector<std::uint64_t> branch_taken; // lanes that took the branch
  std::vector<std::uint64_t> branch_eval;  // lanes that evaluated the branch
  std::vector<std::uint64_t> branch_split; // executions with 0 < taken < eval

  /// Issues by scheduled-lane count (index = live lanes at issue, <= 64).
  std::uint64_t occupancy_hist[65] = {};

  // ---- Memory ----
  /// Access counts per 4-byte word address (addr >> 2), global and shared
  /// address spaces separately. Texture fetches count as global.
  std::unordered_map<std::uint64_t, std::uint64_t> global_words;
  std::unordered_map<std::uint64_t, std::uint64_t> shared_words;
  /// LRU stack-distance histogram over 64-byte lines (log2 buckets; see
  /// kReuseBuckets) plus first-touch ("cold") accesses. Per-block LRU state:
  /// the stack resets at block boundaries, which is what makes the histogram
  /// independent of block execution order.
  std::uint64_t reuse_hist[kReuseBuckets] = {};
  std::uint64_t reuse_cold = 0;
  std::uint64_t stride_class[4] = {};  // per warp-level global instruction
  std::uint64_t global_accesses = 0;   // per-lane global accesses
  std::uint64_t shared_accesses = 0;   // per-lane shared accesses
  std::uint64_t global_instrs = 0;     // warp-level global instructions

  /// Order-independent sum-merge (vectors must be same-sized or empty;
  /// static/geometry scalars copy from whichever side is populated).
  void merge(const Features& o);

  std::uint64_t total_issues() const;
  std::uint64_t total_lanes() const;

  /// FNV-1a fingerprint of every raw field above, iterating map keys in
  /// sorted order. Bit-identical digests <=> bit-identical raw features.
  std::uint64_t digest() const;
};

/// One derived (floating-point) feature, computed by finalize().
struct Metric {
  std::string name;
  double value = 0;
};

/// Derives the architecture-independent feature vector from raw Features.
/// Deterministic: a pure function of the raw integers, iterating sorted
/// keys. Metric order is fixed (documented in DESIGN.md §16):
///   opcode_unique, opcode_entropy, flop_issue_fraction, fused_idiom_density,
///   branch_entropy, branch_divergence_rate, simt_efficiency,
///   workgroup_utilization, barriers_per_warp,
///   global_unique_words, shared_unique_words,
///   mem_entropy_l0 .. mem_entropy_l9,
///   reuse_cold_fraction, reuse_median_log2,
///   stride_broadcast_fraction, stride_unit_fraction, stride_strided_fraction,
///   stride_gather_fraction
std::vector<Metric> finalize(const Features& f);

/// True when GPC_AIWC=1; false when it is unset, empty or "0". Throws
/// InvalidArgument on any other value.
/// Deliberately re-read per launch (mirrors sanitize_options_from_env) so
/// tests and tools can toggle collection between launches.
bool enabled_from_env();

/// Launch-scoped sink: blocks merge their BlockAiwc data here. The launch
/// layer constructs it with the static site table and grid geometry, hands
/// it to every BlockExecutor, and take()s the merged result once the grid
/// completes.
class Collector {
 public:
  Collector(std::vector<SiteInfo> sites, std::uint64_t blocks,
            int threads_per_block, int warp_size, std::uint32_t static_ops,
            std::uint32_t static_fused_ops);

  std::size_t num_sites() const { return agg_.sites.size(); }
  int warp_size() const { return agg_.warp_size; }

  void absorb(const Features& block_features);

  /// Returns the merged launch features. Call once, after the grid is done.
  std::shared_ptr<Features> take();

 private:
  std::mutex mu_;
  Features agg_;
};

/// Per-block event collector, owned by one BlockExecutor (single-threaded).
/// The interpreter hooks call into it for every scheduler-issued warp
/// instruction and every global/shared warp memory access; flush() merges
/// the block's data into the launch Collector (call once, at successful
/// block completion — a faulted block's partial data is simply dropped,
/// matching the discard of its BlockStats).
class BlockAiwc {
 public:
  explicit BlockAiwc(Collector& collector);

  /// One scheduler-issued warp instruction at micro-op `pc` with `lanes`
  /// scheduled (pre-guard-filter) lanes.
  void issue(std::int32_t pc, int lanes) {
    f_.site_issues[static_cast<std::size_t>(pc)]++;
    f_.site_lanes[static_cast<std::size_t>(pc)] +=
        static_cast<std::uint64_t>(lanes);
    f_.occupancy_hist[lanes]++;
  }

  /// One executed branch at `pc`: `taken` of `evaluated` lanes took it.
  void branch(std::int32_t pc, int taken, int evaluated) {
    const auto i = static_cast<std::size_t>(pc);
    f_.branch_exec[i]++;
    f_.branch_taken[i] += static_cast<std::uint64_t>(taken);
    f_.branch_eval[i] += static_cast<std::uint64_t>(evaluated);
    if (taken > 0 && taken < evaluated) f_.branch_split[i]++;
  }

  /// One warp-level global (or texture) memory instruction: `n` lane
  /// addresses in lane order, each accessing `size` bytes.
  void global_access(const std::uint64_t* addrs, int n, int size);

  /// One warp-level shared memory instruction: `n` lane byte addresses.
  void shared_access(const std::uint64_t* addrs, int n);

  void flush();

 private:
  std::uint64_t reuse_distance(std::uint64_t line);

  Collector& collector_;
  Features f_;

  // Exact LRU stack distance in O(log n) per access: a Fenwick tree over
  // access times holds one set bit per distinct line at its LAST access
  // time; the distance of a re-access is the number of lines with a later
  // last-access time, plus one.
  std::unordered_map<std::uint64_t, std::uint32_t> last_access_;
  std::vector<std::uint32_t> fenwick_;  // 1-based BIT over time stamps
  std::uint32_t time_ = 0;

  void fenwick_add(std::uint32_t pos, int delta);
  std::uint32_t fenwick_prefix(std::uint32_t pos) const;
};

}  // namespace gpc::aiwc
