#include "sim/interp.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <string>

#include "common/error.h"
#include "resil/fault.h"
#include "sim/op_semantics.h"
#include "sim/value_codec.h"

namespace gpc::sim {

using ir::Opcode;
using ir::Type;

namespace {

constexpr std::uint64_t kStepBudget = 8ull << 30;  // runaway-kernel backstop
constexpr int kTexLineBytes = 32;

std::atomic<bool> g_fast_path{true};

/// Operand fetch against the pre-decoded stream: a register-slot load or the
/// immediate already encoded for this use site by the decode pass.
inline std::uint64_t fetch(const MOp& o, const std::uint64_t* regs, int width,
                           int lane) {
  return o.reg >= 0
             ? regs[static_cast<std::size_t>(o.reg) * width + lane]
             : o.imm;
}

}  // namespace

void set_convergent_fast_path(bool enabled) {
  g_fast_path.store(enabled, std::memory_order_relaxed);
}

bool convergent_fast_path_enabled() {
  return g_fast_path.load(std::memory_order_relaxed);
}

KernelArg KernelArg::ptr(std::uint64_t device_addr) {
  return {Type::U64, device_addr};
}
KernelArg KernelArg::s32(std::int32_t v) {
  return {Type::S32, enc_int(Type::S32, v)};
}
KernelArg KernelArg::u32(std::uint32_t v) {
  return {Type::U32, enc_int(Type::U32, v)};
}
KernelArg KernelArg::f32(float v) { return {Type::F32, enc_f32(v)}; }

BlockExecutor::BlockExecutor(const arch::DeviceSpec& spec,
                             const ir::Function& fn,
                             const DecodedProgram& prog,
                             std::span<const KernelArg> args,
                             DeviceMemory& mem,
                             std::span<const TexBinding> textures,
                             const LaunchConfig& config, Dim3 block_id,
                             ExecArena& arena, Sanitizer* sanitizer,
                             aiwc::Collector* aiwc)
    : spec_(spec),
      fn_(fn),
      prog_(prog),
      args_(args),
      mem_(mem),
      textures_(textures),
      config_(config),
      block_id_(block_id),
      arena_(arena) {
  GPC_REQUIRE(args_.size() == fn_.params.size(),
              "kernel argument count mismatch for " + fn_.name);
  GPC_CHECK(prog_.ops.size() == fn_.body.size(),
            "decode cache out of sync with " + fn_.name);
  arena_.tex_cache.reconfigure(
      spec.has_texture_cache ? spec.tex_cache_bytes : kTexLineBytes * 4,
      kTexLineBytes, 4);
  arena_.l1_cache.reconfigure(spec.has_l1 ? spec.l1_bytes : 64 * 4, 64, 4);

  const int threads = static_cast<int>(config.block.count());
  arena_.shared.assign(
      static_cast<std::size_t>(fn.static_shared_bytes) +
          config.dynamic_shared_bytes,
      0);
  arena_.pc.assign(threads, 0);
  arena_.regs.assign(static_cast<std::size_t>(fn.num_vregs) * threads, 0);
  arena_.local.assign(static_cast<std::size_t>(fn.local_bytes) * threads, 0);

  const int wsz = spec.warp_size;
  GPC_CHECK(wsz <= kImmRowLanes, "warp wider than an immediate row");
  if (static_cast<int>(arena_.all_lanes.size()) < wsz) {
    arena_.all_lanes.resize(wsz);
    for (int l = 0; l < wsz; ++l) arena_.all_lanes[l] = l;
  }
  // Every per-lane scratch row is sized here, once per block: no
  // instruction resizes one.
  arena_.mask.resize(wsz);
  arena_.exec.resize(wsz);
  arena_.addr.resize(wsz);
  arena_.val.resize(wsz);
  arena_.seg.resize(wsz);
  const std::size_t bank_words =
      2 * static_cast<std::size_t>(std::max(spec.shared_banks, 0));
  if (arena_.bank_word.size() < bank_words) {
    arena_.bank_word.assign(bank_words, 0);
  }

  budget_ = config.step_budget > 0 ? config.step_budget : kStepBudget;
  if (sanitizer != nullptr) {
    bsan_ = std::make_unique<BlockSanitizer>(
        *sanitizer, wsz, arena_.shared.size(), block_id.x, block_id.y,
        block_id.z);
  }
  if (aiwc != nullptr) {
    baiwc_ = std::make_unique<aiwc::BlockAiwc>(*aiwc);
  }

  fast_path_ = convergent_fast_path_enabled();
  const int nwarps = (threads + wsz - 1) / wsz;
  warps_.resize(nwarps);
  for (int w = 0; w < nwarps; ++w) {
    Warp& wp = warps_[w];
    wp.base = w * wsz;
    wp.width = std::min(wsz, threads - wp.base);
    wp.pc = arena_.pc.data() + wp.base;
    wp.regs = arena_.regs.data() +
              static_cast<std::size_t>(fn.num_vregs) * wp.base;
    wp.local = arena_.local.data() +
               static_cast<std::size_t>(fn.local_bytes) * wp.base;
    wp.converged = fast_path_;
    wp.cpc = 0;
  }
}

void BlockExecutor::check_budget() {
  if (++steps_ > budget_) {
    // The per-launch watchdog event: a hung/runaway launch becomes a
    // classified DeviceFault instead of a wall-clock stall.
    resil::note_watchdog_trip();
    throw DeviceFault("kernel exceeded instruction budget in " + fn_.name);
  }
}

void BlockExecutor::check_budget_extra(std::uint64_t extra) {
  steps_ += extra;
  if (steps_ > budget_) {
    resil::note_watchdog_trip();
    throw DeviceFault("kernel exceeded instruction budget in " + fn_.name);
  }
}

void BlockExecutor::note_div_by_zero(const MicroOp& m) {
  if (bsan_) [[unlikely]] {
    bsan_->div_by_zero(mop_pc(m));
  }
}

std::int32_t BlockExecutor::mop_pc(const MicroOp& m) const {
  return static_cast<std::int32_t>(&m - prog_.ops.data());
}

std::string BlockExecutor::divergence_detail(const Warp& w,
                                             const int* arrived, int n,
                                             std::int32_t bar_pc) const {
  constexpr int kMaxListed = 8;
  std::string s = "threads ";
  for (int i = 0; i < n && i < kMaxListed; ++i) {
    if (i > 0) s += ",";
    s += std::to_string(w.base + arrived[i]);
  }
  if (n > kMaxListed) s += ",…(" + std::to_string(n) + " total)";
  s += " arrived at the barrier (micro-op " + std::to_string(bar_pc) +
       ") while";
  int listed = 0, missing = 0;
  for (int l = 0; l < w.width; ++l) {
    if (w.pc[l] < 0 || w.pc[l] == bar_pc) continue;
    ++missing;
    if (listed >= kMaxListed) continue;
    s += (listed > 0 ? "," : " ") + std::string("thread ") +
         std::to_string(w.base + l) + " is at micro-op " +
         std::to_string(w.pc[l]);
    ++listed;
  }
  if (missing > listed) {
    s += ",…(" + std::to_string(missing) + " threads elsewhere)";
  }
  return s;
}

std::uint64_t BlockExecutor::sreg_value(ir::SReg s, const Warp& w,
                                        int lane) const {
  const int flat = w.base + lane;
  const int bx = config_.block.x, by = config_.block.y;
  switch (s) {
    case ir::SReg::TidX: return flat % bx;
    case ir::SReg::TidY: return (flat / bx) % by;
    case ir::SReg::TidZ: return flat / (bx * by);
    case ir::SReg::NTidX: return bx;
    case ir::SReg::NTidY: return by;
    case ir::SReg::NTidZ: return config_.block.z;
    case ir::SReg::CtaIdX: return block_id_.x;
    case ir::SReg::CtaIdY: return block_id_.y;
    case ir::SReg::CtaIdZ: return block_id_.z;
    // Split launches (resil policy layer) execute a sub-grid of a logical
    // grid; kernels must observe the logical extent or index math breaks.
    case ir::SReg::NCtaIdX: return config_.logical().x;
    case ir::SReg::NCtaIdY: return config_.logical().y;
    case ir::SReg::NCtaIdZ: return config_.logical().z;
    case ir::SReg::LaneId: return flat % spec_.warp_size;
    case ir::SReg::WarpSize: return spec_.warp_size;
    case ir::SReg::GridDimFlatX: return config_.logical().x;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Cost accounting

namespace {

/// Sizes the stamped open-address dedup table for up to n keys (load factor
/// <= 0.5) and returns the index mask. Stamps survive across instructions —
/// a slot is live only when its stamp equals the current epoch, so there is
/// no per-instruction clearing.
std::size_t dedup_reserve(ExecArena& a, int n) {
  std::size_t cap = a.dedup_key.size();
  if (cap < static_cast<std::size_t>(n) * 2) {
    cap = 64;
    while (cap < static_cast<std::size_t>(n) * 2) cap <<= 1;
    a.dedup_key.assign(cap, 0);
    a.dedup_stamp.assign(cap, 0);
  }
  return cap - 1;
}

inline std::size_t dedup_hash(std::uint64_t key) {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 17);
}

}  // namespace

void BlockExecutor::account_global(const std::uint64_t* addrs, int n,
                                   int size, bool is_read) {
  if (n == 0) return;
  if (baiwc_) [[unlikely]] baiwc_->global_access(addrs, n, size);
  stats_.mem_issues++;
  stats_.useful_global_bytes += static_cast<std::uint64_t>(n) * size;
  const int seg = spec_.dram_segment_bytes;
  std::uint64_t* const segs = arena_.seg.data();
  // Every real spec uses a power-of-two segment: a shift instead of one
  // 64-bit divide per lane per memory instruction.
  if ((seg & (seg - 1)) == 0) {
    const int sh = std::countr_zero(static_cast<unsigned>(seg));
    for (int i = 0; i < n; ++i) segs[i] = addrs[i] >> sh;
  } else {
    for (int i = 0; i < n; ++i) segs[i] = addrs[i] / seg;
  }
  // The L1 model is stateful (LRU), so segments must be probed in the same
  // ascending distinct order the original sort+unique produced. Coalesced
  // kernels arrive already sorted — detect that instead of always sorting.
  bool sorted = true;
  for (int i = 1; i < n; ++i) {
    if (segs[i] < segs[i - 1]) {
      sorted = false;
      break;
    }
  }
  if (!sorted) {
    if (n <= 32) {
      // One warp's worth of segments: insertion sort beats introsort's
      // setup (divergent gathers hit this on every memory instruction).
      for (int i = 1; i < n; ++i) {
        const std::uint64_t v = segs[i];
        int j = i - 1;
        for (; j >= 0 && segs[j] > v; --j) segs[j + 1] = segs[j];
        segs[j + 1] = v;
      }
    } else {
      std::sort(segs, segs + n);
    }
  }
  std::uint64_t last = 0;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t s = segs[i];
    if (i > 0 && s == last) continue;  // duplicates are adjacent once sorted
    last = s;
    if (is_read && spec_.has_l1) {
      if (arena_.l1_cache.access(s * seg)) {
        stats_.l1_hits++;
        continue;
      }
    }
    stats_.dram_transactions++;
    if (is_read) {
      stats_.dram_read_bytes += seg;
    } else {
      stats_.dram_write_bytes += seg;
    }
  }
}

void BlockExecutor::account_shared(const std::uint64_t* addrs, int n) {
  if (n == 0) return;
  if (baiwc_) [[unlikely]] baiwc_->shared_access(addrs, n);
  const int banks = spec_.shared_banks;
  if (banks <= 1) {
    stats_.shared_cycles += 1;
    return;
  }
  // Conflict degree = max over banks of the number of DISTINCT word
  // addresses mapping to that bank; identical addresses broadcast. The
  // degree is order-independent, so an O(n) stamped dedup + stamped
  // per-bank counters replace the old sort+unique (which dominated the
  // convergent-MxM profile: two shared loads per inner-loop iteration).
  ExecArena& a = arena_;
  // First prove degree <= 2 with one bitmask pass, no hashing. A bank
  // holds at most two DISTINCT words exactly when, scanning the lanes, no
  // word misses both remembered words of its bank; a 64-bit used-bank mask
  // per remembered word decides it in a handful of ALU ops per lane.
  // On every modelled device a warp is at most twice as wide as its bank
  // count, so broadcasts, runs of consecutive words, padded tiles and
  // permutations all end here (GT200's stride-1 access is degree 2: 32
  // lanes over 16 banks); three or more distinct words in one bank fall
  // through to the exact stamped count below.
  if (banks <= 64 && (banks & (banks - 1)) == 0) {
    const std::uint64_t bmask = static_cast<std::uint64_t>(banks) - 1;
    std::uint64_t* const w1 = a.bank_word.data();
    std::uint64_t* const w2 = w1 + banks;
    std::uint64_t used1 = 0, used2 = 0;
    int i = 0;
    for (; i < n; ++i) {
      const std::uint64_t wd = addrs[i] >> 2;
      const std::uint64_t b = wd & bmask;
      const std::uint64_t bit = 1ull << b;
      if (!(used1 & bit)) {
        used1 |= bit;
        w1[b] = wd;
      } else if (w1[b] == wd) {
        continue;  // broadcast
      } else if (!(used2 & bit)) {
        used2 |= bit;
        w2[b] = wd;
      } else if (w2[b] != wd) {
        break;  // a third distinct word in one bank
      }
    }
    if (i == n) {
      stats_.shared_cycles += used2 != 0 ? 2 : 1;
      return;
    }
  }
  const std::uint64_t stamp = ++a.dedup_epoch;
  const std::size_t mask = dedup_reserve(a, n);
  if (static_cast<int>(a.bank_count.size()) < banks) {
    a.bank_stamp.assign(banks, 0);
    a.bank_count.assign(banks, 0);
  }
  int degree = 1;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t wd = addrs[i] / 4;
    std::size_t h = dedup_hash(wd) & mask;
    for (;;) {
      if (a.dedup_stamp[h] != stamp) {
        a.dedup_stamp[h] = stamp;
        a.dedup_key[h] = wd;
        break;
      }
      if (a.dedup_key[h] == wd) goto duplicate;  // broadcast
      h = (h + 1) & mask;
    }
    {
      const int b = static_cast<int>(wd % banks);
      const int c = (a.bank_stamp[b] == stamp ? a.bank_count[b] : 0) + 1;
      a.bank_stamp[b] = stamp;
      a.bank_count[b] = c;
      degree = std::max(degree, c);
    }
  duplicate:;
  }
  stats_.shared_cycles += degree;
}

void BlockExecutor::account_const(const std::uint64_t* addrs, int n) {
  if (n == 0) return;
  // Uniform access broadcasts in one cycle; divergent constant access
  // serialises per distinct address (GT200 behaviour; Fermi is similar
  // through its constant cache). The uniform case is overwhelmingly the
  // common one (literal loads put the same address in every lane), so prove
  // it with one vectorizable scan before paying for the stamped dedup.
  std::uint64_t diff = 0;
  for (int i = 1; i < n; ++i) diff |= addrs[i] ^ addrs[0];
  if (diff == 0) {
    stats_.const_cycles += 1;
    return;
  }
  ExecArena& a = arena_;
  const std::uint64_t stamp = ++a.dedup_epoch;
  const std::size_t mask = dedup_reserve(a, n);
  std::uint64_t distinct = 0;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t ad = addrs[i];
    std::size_t h = dedup_hash(ad) & mask;
    for (;;) {
      if (a.dedup_stamp[h] != stamp) {
        a.dedup_stamp[h] = stamp;
        a.dedup_key[h] = ad;
        ++distinct;
        break;
      }
      if (a.dedup_key[h] == ad) break;
      h = (h + 1) & mask;
    }
  }
  stats_.const_cycles += distinct;
}

// ---------------------------------------------------------------------------
// Execution

void BlockExecutor::exec_memory(Warp& w, const MicroOp& m, const int* lanes,
                                int n) {
  const int size = m.msize;
  const int width = w.width;
  std::uint64_t* regs = w.regs;
  auto dst_slot = [&](int lane) -> std::uint64_t& {
    return regs[static_cast<std::size_t>(m.dst) * width + lane];
  };

  switch (m.kind) {
    case XKind::LdParam:
      ld_param(w, m, lanes, n);
      return;
    case XKind::MemGlobal: {
      std::uint64_t* const addrs = arena_.addr.data();
      if (m.op == Opcode::Ld) {
        for (int i = 0; i < n; ++i) {
          addrs[i] = fetch(m.a, regs, width, lanes[i]);
        }
        if (bsan_) [[unlikely]] {
          bsan_->global_batch(mem_, addrs, n, size,
                              /*is_store=*/false, mop_pc(m));
        }
        // All lanes read the pre-instruction memory state.
        for (int i = 0; i < n; ++i) {
          std::uint64_t raw = mem_.load(addrs[i], size);
          if (m.type == Type::S32) {
            raw = enc_int(Type::S32, static_cast<std::int32_t>(raw));
          }
          dst_slot(lanes[i]) = raw;
        }
        account_global(addrs, n, size, /*is_read=*/true);
      } else if (m.op == Opcode::St) {
        std::uint64_t* const vals = arena_.val.data();
        for (int i = 0; i < n; ++i) {
          addrs[i] = fetch(m.a, regs, width, lanes[i]);
          vals[i] = fetch(m.b, regs, width, lanes[i]);
        }
        if (bsan_) [[unlikely]] {
          bsan_->global_batch(mem_, addrs, n, size,
                              /*is_store=*/true, mop_pc(m));
        }
        for (int i = 0; i < n; ++i) {
          mem_.store(addrs[i], vals[i], size);
        }
        account_global(addrs, n, size, /*is_read=*/false);
      } else {  // atomics: serialised, both read and write DRAM
        if (baiwc_) [[unlikely]] {
          // account_global never sees atomics; collect the lane addresses
          // here (the re-fetch below is side-effect-free).
          for (int i = 0; i < n; ++i) {
            addrs[i] = fetch(m.a, regs, width, lanes[i]);
          }
          baiwc_->global_access(addrs, n, size);
        }
        stats_.mem_issues++;
        for (int i = 0; i < n; ++i) {
          const int l = lanes[i];
          const std::uint64_t a = fetch(m.a, regs, width, l);
          const std::uint64_t v = fetch(m.b, regs, width, l);
          if (bsan_) [[unlikely]] {
            bsan_->global_batch(mem_, &a, 1, size, /*is_store=*/true,
                                mop_pc(m));
          }
          std::uint64_t old;
          if (m.type == Type::F32) {
            old = mem_.atomic_add_f32(a, dec_f32(v));
          } else {
            old = mem_.atomic_add(a, v, size);
            if (m.type == Type::S32) {
              old = enc_int(Type::S32, static_cast<std::int32_t>(old));
            }
          }
          if (m.dst >= 0) dst_slot(l) = old;
          stats_.atomic_serial_ops++;
          stats_.dram_read_bytes += size;
          stats_.dram_write_bytes += size;
        }
      }
      return;
    }
    case XKind::MemShared: {
      std::uint64_t* const addrs = arena_.addr.data();
      for (int i = 0; i < n; ++i) {
        addrs[i] = fetch(m.a, regs, width, lanes[i]);
      }
      // msize is a power of two, so alignment is a mask test (a modulo here
      // is a hardware divide per lane on the hottest instruction there is).
      const std::uint64_t align_mask = static_cast<std::uint64_t>(size) - 1;
      const std::uint64_t limit = arena_.shared.size();
      for (int i = 0; i < n; ++i) {
        const std::uint64_t a = addrs[i];
        if (past_limit(a, size, limit) || (a & align_mask) != 0) {
          throw DeviceFault("shared access out of bounds in " + fn_.name +
                            ": offset " + std::to_string(a));
        }
      }
      if (m.op == Opcode::Ld) {
        if (bsan_) [[unlikely]] {
          bsan_->shared_load(addrs, lanes, n, w.base, size, mop_pc(m));
        }
        const std::uint8_t* shared = arena_.shared.data();
        for (int i = 0; i < n; ++i) {
          std::uint64_t raw = 0;
          std::memcpy(&raw, shared + addrs[i], size);
          if (m.type == Type::S32) {
            raw = enc_int(Type::S32, static_cast<std::int32_t>(raw));
          }
          dst_slot(lanes[i]) = raw;
        }
      } else if (m.op == Opcode::St) {
        // Lockstep semantics: gather all values first, then write.
        std::uint64_t* const vals = arena_.val.data();
        for (int i = 0; i < n; ++i) {
          vals[i] = fetch(m.b, regs, width, lanes[i]);
        }
        if (bsan_) [[unlikely]] {
          bsan_->shared_store(addrs, vals, lanes, n, w.base, size,
                              mop_pc(m));
        }
        for (int i = 0; i < n; ++i) {
          std::memcpy(arena_.shared.data() + addrs[i], &vals[i], size);
        }
      } else {  // shared atomics: serialised by hardware, hence correct
        if (bsan_) [[unlikely]] {
          bsan_->shared_atomic(addrs, lanes, n, w.base, size, mop_pc(m));
        }
        for (int i = 0; i < n; ++i) {
          const std::uint64_t v = fetch(m.b, regs, width, lanes[i]);
          if (m.type == Type::F32) {
            float cur;
            std::memcpy(&cur, arena_.shared.data() + addrs[i], 4);
            cur += dec_f32(v);
            std::memcpy(arena_.shared.data() + addrs[i], &cur, 4);
          } else {
            std::uint32_t cur;
            std::memcpy(&cur, arena_.shared.data() + addrs[i], 4);
            const std::uint32_t old = cur;
            cur += static_cast<std::uint32_t>(v);
            std::memcpy(arena_.shared.data() + addrs[i], &cur, 4);
            if (m.dst >= 0) {
              dst_slot(lanes[i]) = enc_int(m.type, old);
            }
          }
          stats_.atomic_serial_ops++;
        }
      }
      account_shared(addrs, n);
      return;
    }
    case XKind::MemLocal: {
      stats_.mem_issues++;
      stats_.local_bytes += static_cast<std::uint64_t>(n) * size;
      for (int i = 0; i < n; ++i) {
        const int l = lanes[i];
        const std::uint64_t off = fetch(m.a, regs, width, l);
        if (past_limit(off, size, fn_.local_bytes)) {
          throw DeviceFault("local access out of bounds in " + fn_.name);
        }
        std::uint8_t* p =
            w.local + static_cast<std::size_t>(l) * fn_.local_bytes + off;
        if (m.op == Opcode::Ld) {
          std::uint64_t raw = 0;
          std::memcpy(&raw, p, size);
          if (m.type == Type::S32) {
            raw = enc_int(Type::S32, static_cast<std::int32_t>(raw));
          }
          dst_slot(l) = raw;
        } else {
          const std::uint64_t v = fetch(m.b, regs, width, l);
          std::memcpy(p, &v, size);
        }
      }
      return;
    }
    case XKind::MemConst: {
      std::uint64_t* const addrs = arena_.addr.data();
      for (int i = 0; i < n; ++i) {
        addrs[i] = fetch(m.a, regs, width, lanes[i]);
      }
      for (int i = 0; i < n; ++i) {
        if (past_limit(addrs[i], size, fn_.const_data.size())) {
          throw DeviceFault("constant access out of bounds in " + fn_.name);
        }
        std::uint64_t raw = 0;
        std::memcpy(&raw, fn_.const_data.data() + addrs[i], size);
        if (m.type == Type::S32) {
          raw = enc_int(Type::S32, static_cast<std::int32_t>(raw));
        }
        dst_slot(lanes[i]) = raw;
      }
      account_const(addrs, n);
      return;
    }
    case XKind::MemTex: {
      GPC_CHECK(m.aux >= 0 && m.aux < static_cast<int>(textures_.size()),
                "unbound texture unit in " + fn_.name);
      const TexBinding& tb = textures_[m.aux];
      stats_.mem_issues++;
      stats_.tex_requests += n;
      std::uint64_t* const taddrs = arena_.addr.data();
      for (int i = 0; i < n; ++i) {
        const int l = lanes[i];
        const std::int64_t idx =
            dec_int(Type::S32, fetch(m.a, regs, width, l));
        const std::uint64_t addr =
            tb.base + static_cast<std::uint64_t>(idx) * size;
        if (idx < 0 || addr + size > tb.base + tb.bytes) {
          throw DeviceFault("texture fetch out of bounds in " + fn_.name);
        }
        if (baiwc_) [[unlikely]] taddrs[i] = addr;
        std::uint64_t raw = mem_.load(addr, size);
        if (m.type == Type::S32) {
          raw = enc_int(Type::S32, static_cast<std::int32_t>(raw));
        }
        dst_slot(l) = raw;
        if (arena_.tex_cache.access(addr)) {
          stats_.tex_hits++;
        } else {
          stats_.dram_read_bytes += kTexLineBytes;
          stats_.dram_transactions++;
        }
      }
      if (baiwc_) [[unlikely]] baiwc_->global_access(taddrs, n, size);
      return;
    }
    default:
      break;
  }
  throw InternalError("bad micro-op kind in exec_memory");
}

void BlockExecutor::exec_compute(Warp& w, const MicroOp& m, const int* lanes,
                                 int n) {
  count_issue(m, n);
  if (m.dst < 0) return;  // no writeback target; accounting above stands

  const int width = w.width;
  std::uint64_t* const regs = w.regs;
  std::uint64_t* const d = regs + static_cast<std::size_t>(m.dst) * width;
  if (m.kind == XKind::ReadSReg) {
    for (int i = 0; i < n; ++i) {
      const int l = lanes[i];
      d[l] = enc_int(Type::S32,
                     static_cast<std::int64_t>(sreg_value(m.sreg, w, l)));
    }
    return;
  }
  const std::uint64_t* const imm = prog_.imm_rows.data();
  const std::uint64_t* a = lane_src(m.a, regs, width, imm);
  const std::uint64_t* b = lane_src(m.b, regs, width, imm);
  const std::uint64_t* c = lane_src(m.c, regs, width, imm);
  const auto divz = [&] {
    note_div_by_zero(m);
    return 0;
  };
  // A fusion head's xop names its superinstruction; the oracle always runs
  // the op itself.
  switch (m.fused_len != 0 ? xop_for(m) : m.xop) {
    case XOp::Mov: lanes_apply<true>(lanes, n, d, mov_lane, a); return;
    case XOp::SelP: lanes_apply<true>(lanes, n, d, selp_lane, a, b, c); return;
#define GPC_X(name, expr)                                                 \
  case XOp::Cvt##name:                                                    \
    lanes_apply<true>(lanes, n, d, cvt::name{m.src_type, m.type}, a);     \
    return;
    GPC_CVT_OPS(GPC_X)
#undef GPC_X
#define GPC_X(T)                                                          \
  case XOp::Setp##T:                                                      \
    setp_typed<true, Type::T>(m.cmp, lanes, n, d, a, b);                  \
    return;
    GPC_X(F32) GPC_X(F64) GPC_X(S32) GPC_X(U32) GPC_X(U64)
#undef GPC_X
#define GPC_X(name, expr)                                                 \
  case XOp::F32##name:                                                    \
    row_lanes<true, fop::name, Type::F32>(divz, lanes, n, d, a, b, c);    \
    return;                                                               \
  case XOp::F64##name:                                                    \
    row_lanes<true, fop::name, Type::F64>(divz, lanes, n, d, a, b, c);    \
    return;
    GPC_XOP_FLOAT_OPS(GPC_X)
#undef GPC_X
#define GPC_X(name, expr64, expr32)                                       \
  case XOp::S32##name:                                                    \
    row_lanes<true, iop::name, Type::S32>(divz, lanes, n, d, a, b, c);    \
    return;                                                               \
  case XOp::U32##name:                                                    \
    row_lanes<true, iop::name, Type::U32>(divz, lanes, n, d, a, b, c);    \
    return;                                                               \
  case XOp::U64##name:                                                    \
    row_lanes<true, iop::name, Type::U64>(divz, lanes, n, d, a, b, c);    \
    return;
    GPC_XOP_INT_OPS(GPC_X)
#undef GPC_X
    case XOp::ComputeOther:
      exec_compute_other(m, lanes, n, d, a, b, c);
      return;
    default:
      throw InternalError("bad micro-op kind in exec_compute");
  }
}

// Runtime-typed fallback for (kind, op, type) combinations without a typed
// handler — in practice predicate-typed logic and compares. It evaluates the
// same rows, decoding and encoding per the run-time type with
// dec_int/enc_int.
void BlockExecutor::exec_compute_other(const MicroOp& m, const int* lanes,
                                       int n, std::uint64_t* d,
                                       const std::uint64_t* a,
                                       const std::uint64_t* b,
                                       const std::uint64_t* c) {
  const Type t = m.type;
  const auto dec = [t](std::uint64_t raw) { return dec_int(t, raw); };
  if (m.kind == XKind::SetP) {
    setp_lanes<true>(m.cmp, dec, lanes, n, d, a, b);
    return;
  }
  if (m.kind != XKind::IntOp) {
    throw InternalError(std::string("compute op unsupported: ") +
                        ir::to_string(m.op));
  }
  const auto divz = [&] {
    note_div_by_zero(m);
    return 0;
  };
  // The rows' 64-bit lane over the decoded values. A predicate is one bit
  // wide, so its result keeps bit 0 (the row's ~a is then logical not).
  const auto eval = [&](auto row) {
    lanes_apply<true>(
        lanes, n, d,
        [&](std::uint64_t x, std::uint64_t y, std::uint64_t z) {
          std::uint64_t r = decltype(row)::template lane<Type::U64>(
              divz, static_cast<std::uint64_t>(dec(x)),
              static_cast<std::uint64_t>(dec(y)),
              static_cast<std::uint64_t>(dec(z)));
          if (t == Type::Pred) r &= 1;
          return enc_int(t, static_cast<std::int64_t>(r));
        },
        a, b, c);
  };
  switch (m.op) {
#define GPC_X(name, ...)                                                  \
  case Opcode::name:                                                      \
    eval(iop::name{});                                                    \
    return;
    GPC_XOP_INT_OPS(GPC_X)
#undef GPC_X
    default:
      throw InternalError(std::string("int op unsupported: ") +
                          ir::to_string(m.op));
  }
}

// ---------------------------------------------------------------------------
// Scheduling

// The oracle: every step issues the instruction at the smallest live PC for
// exactly the lanes parked there, so divergent branches serialise and
// reconverge naturally.
bool BlockExecutor::step(Warp& w) {
  int pcmin = INT32_MAX;
  int live = 0;
  for (int l = 0; l < w.width; ++l) {
    const int p = w.pc[l];
    if (p >= 0) {
      ++live;
      pcmin = std::min(pcmin, p);
    }
  }
  if (pcmin == INT32_MAX || w.waiting) return false;

  check_budget();
  GPC_CHECK(pcmin < static_cast<int>(prog_.ops.size()),
            "pc ran past end of " + fn_.name);
  const MicroOp& m = prog_.ops[pcmin];
  stats_.xkind_issues[static_cast<int>(m.kind)]++;

  int* mask = arena_.mask.data();
  int nmask = 0;
  for (int l = 0; l < w.width; ++l) {
    if (w.pc[l] == pcmin) mask[nmask++] = l;
  }
  if (baiwc_) [[unlikely]] baiwc_->issue(pcmin, nmask);

  if (m.kind == XKind::Bra) {
    stats_.branch_issues++;
    int taken = 0;
    for (int i = 0; i < nmask; ++i) {
      const int l = mask[i];
      const bool t = guard_pass(w, m, l);
      taken += t;
      w.pc[l] = t ? m.target : pcmin + 1;
    }
    if (baiwc_) [[unlikely]] baiwc_->branch(pcmin, taken, nmask);
    return true;
  }
  if (m.kind == XKind::Exit) {
    for (int i = 0; i < nmask; ++i) w.pc[mask[i]] = -1;
    return true;
  }
  if (m.kind == XKind::Bar) {
    // All live lanes of the warp must arrive together. With synccheck on,
    // the violation is recorded with per-lane provenance and the arrived
    // subset proceeds past the barrier (report-and-continue, so one launch
    // surfaces every divergent site); otherwise it is a fault.
    if (nmask != live) {
      std::uint64_t arrived = 0;
      for (int i = 0; i < nmask; ++i) arrived |= 1ull << mask[i];
      const std::string detail = divergence_detail(w, mask, nmask, pcmin);
      if (!bsan_ || !bsan_->divergent_barrier(mop_pc(m), arrived, detail)) {
        throw DeviceFault("divergent barrier in " + fn_.name + ": " + detail);
      }
    }
    stats_.barrier_count++;
    for (int i = 0; i < nmask; ++i) w.pc[mask[i]] = pcmin + 1;
    w.waiting = true;
    return false;
  }

  int* exec = arena_.exec.data();
  int nexec = 0;
  for (int i = 0; i < nmask; ++i) {
    const int l = mask[i];
    if (guard_pass(w, m, l)) exec[nexec++] = l;
  }

  if (nexec > 0) {
    if (m.kind <= XKind::MemTex) {
      exec_memory(w, m, exec, nexec);
    } else {
      exec_compute(w, m, exec, nexec);
    }
  } else {
    stats_.alu_issues++;  // predicated-off issue still consumes a slot
  }
  for (int i = 0; i < nmask; ++i) w.pc[mask[i]] = pcmin + 1;
  return true;
}

// Reconvergence-stack cohort scheduler (DESIGN.md §15): the divergent
// counterpart of the convergent fast path. The warp's live lanes group into
// cohorts — one per DISTINCT pc, kept sorted ascending — and the front
// (min-pc) cohort runs straight-line through the computed-goto engine until
// it reaches the next cohort's pc (pop/merge), splits at a guarded branch
// (push), exits, or arrives at a barrier. Because the running cohort's limit
// is exactly the next cohort's pc, warp instructions issue in EXACTLY the
// order the per-step min-PC scan produced — which is what keeps BlockStats,
// intra-warp memory ordering (the RdxS lost-update mechanisms) and fault
// points bit-identical across schedulers. The rpc/depth stamps (immediate
// post-dominators, decode.cpp) only feed the cohort_splits/merges and
// divergence-depth diagnostics; merging never depends on them.
//
// pc[] is stale while cohorts hold the truth and is re-synced at every
// scheduler exit (reconvergence, barrier, exit). A DeviceFault mid-run
// leaves it stale, which is fine: the launch aborts and block state is
// discarded (same rationale as check_budget_extra's mid-group trip).
bool BlockExecutor::run_divergent(Warp& w) {
  std::vector<Cohort>& cohorts = arena_.cohorts;
  cohorts.clear();
  const std::uint64_t full =
      w.width == 64 ? ~0ull : (1ull << w.width) - 1;
  std::uint64_t live = 0;

  const auto insert = [&cohorts](std::int32_t pc, std::uint64_t lanes,
                                 std::int32_t rpc, std::uint32_t depth,
                                 std::uint64_t* merges) {
    std::size_t i = 0;
    while (i < cohorts.size() && cohorts[i].pc < pc) ++i;
    if (i < cohorts.size() && cohorts[i].pc == pc) {
      Cohort& c = cohorts[i];
      c.lanes |= lanes;
      if (depth < c.depth) {  // the shallower frame owns the merged cohort
        c.depth = depth;
        c.rpc = rpc;
      }
      if (merges != nullptr) ++*merges;
    } else {
      cohorts.insert(cohorts.begin() + i, Cohort{pc, rpc, depth, lanes});
    }
  };

  for (int l = 0; l < w.width; ++l) {
    const std::int32_t p = w.pc[l];
    if (p < 0) continue;
    live |= 1ull << l;
    insert(p, 1ull << l, -1, 0, nullptr);
  }

  int* const lane_buf = arena_.mask.data();
  if (cohorts.size() > stats_.cohort_max_live) {
    stats_.cohort_max_live = static_cast<std::uint32_t>(cohorts.size());
  }
  if (cohorts.size() > 1) {
    // The warp arrives already split: the branch that diverged it ran in
    // the convergent engine, which materialises pc[] instead of reporting
    // CohortStop::Split. Count that entry divergence here so the
    // splits/merges diagnostics pair up (a merge can never precede a
    // split) and depth reflects the live divergence level.
    stats_.cohort_splits += cohorts.size() - 1;
    if (stats_.div_depth_max < 1) stats_.div_depth_max = 1;
    // Stamp the entry cohorts at level 1 so a split inside the scheduler
    // reports level 2, not 1: the warp is already one level diverged when
    // it gets here. rpc stays -1 (no frame to pop; diagnostics only).
    for (Cohort& c : cohorts) c.depth = 1;
  }

  while (!cohorts.empty()) {
    // Full reconvergence: hand the warp back to the convergent fast path.
    if (cohorts.size() == 1 && cohorts.front().lanes == full) {
      const std::int32_t pc = cohorts.front().pc;
      for (int l = 0; l < w.width; ++l) w.pc[l] = pc;
      w.converged = true;
      w.cpc = pc;
      return true;
    }

    Cohort cur = cohorts.front();
    cohorts.erase(cohorts.begin());
    int n = 0;
    for (std::uint64_t b = cur.lanes; b != 0; b &= b - 1) {
      lane_buf[n++] = std::countr_zero(b);
    }
    CohortRun run;
    run.lanes = lane_buf;
    run.n = n;
    run.pc = cur.pc;
    run.limit = cohorts.empty() ? INT32_MAX : cohorts.front().pc;

    switch (engine_goto<true>(w, run)) {
      case CohortStop::Limit: {
        std::int32_t rpc = cur.rpc;
        std::uint32_t depth = cur.depth;
        if (rpc >= 0 && run.pc >= rpc) {
          // Reached the stamped reconvergence point: this frame pops.
          rpc = -1;
          if (depth > 0) --depth;
        }
        insert(run.pc, cur.lanes, rpc, depth, &stats_.cohort_merges);
        break;
      }
      case CohortStop::Split: {
        stats_.cohort_splits++;
        const std::uint32_t depth = cur.depth + 1;
        if (depth > stats_.div_depth_max) stats_.div_depth_max = depth;
        const std::int32_t rpc =
            run.bra_pc >= 0 &&
                    run.bra_pc < static_cast<std::int32_t>(prog_.rpc.size())
                ? prog_.rpc[run.bra_pc]
                : -1;
        insert(run.pc, cur.lanes & ~run.taken_mask, rpc, depth,
               &stats_.cohort_merges);
        insert(run.target, cur.lanes & run.taken_mask, rpc, depth,
               &stats_.cohort_merges);
        if (cohorts.size() > stats_.cohort_max_live) {
          stats_.cohort_max_live = static_cast<std::uint32_t>(cohorts.size());
        }
        break;
      }
      case CohortStop::Exited: {
        for (int i = 0; i < n; ++i) w.pc[lane_buf[i]] = -1;
        live &= ~cur.lanes;
        break;  // cohorts may now be empty: the warp finished
      }
      case CohortStop::Barrier: {
        // Sync pc[] first so divergence_detail names the live lanes at
        // their true pcs (never pre-split state, never exited lanes).
        for (int i = 0; i < n; ++i) w.pc[lane_buf[i]] = run.pc;
        for (const Cohort& c : cohorts) {
          for (std::uint64_t b = c.lanes; b != 0; b &= b - 1) {
            w.pc[std::countr_zero(b)] = c.pc;
          }
        }
        if (cur.lanes != live) {
          const std::string detail =
              divergence_detail(w, lane_buf, n, run.pc);
          if (!bsan_ ||
              !bsan_->divergent_barrier(run.pc, cur.lanes, detail)) {
            throw DeviceFault("divergent barrier in " + fn_.name + ": " +
                              detail);
          }
        }
        stats_.barrier_count++;
        for (int i = 0; i < n; ++i) w.pc[lane_buf[i]] = run.pc + 1;
        w.waiting = true;
        return false;
      }
    }
  }
  return false;  // every lane exited; pc[] is -1 throughout
}

void BlockExecutor::run_warp(Warp& w) {
  if (!fast_path_) {
    while (step(w)) {
    }
    return;
  }
  for (;;) {
    if (w.converged) {
      CohortRun unused;
      engine_goto<false>(w, unused);
      if (w.converged) return;  // parked at a barrier or finished
    }
    if (!run_divergent(w)) return;  // parked or finished
    // reconverged: the fast path resumes
  }
}

BlockStats BlockExecutor::run() {
  for (;;) {
    bool all_finished = true;
    for (Warp& w : warps_) {
      if (w.finished()) continue;
      all_finished = false;
      if (!w.waiting) run_warp(w);
    }
    if (all_finished) break;

    bool all_parked = true;
    for (const Warp& w : warps_) {
      if (!w.finished() && !w.waiting) all_parked = false;
    }
    if (all_parked) {
      for (Warp& w : warps_) w.waiting = false;  // release the barrier
      // The barrier orders every prior shared-memory access before every
      // later one: racecheck's cross-instruction hazard window resets.
      if (bsan_) [[unlikely]] bsan_->barrier_release();
    } else {
      // Some warp is neither finished, waiting, nor able to progress.
      bool stuck = true;
      for (Warp& w : warps_) {
        if (!w.finished() && !w.waiting) {
          // It will be run on the next outer iteration; progress happens
          // unless the step budget trips. Guard against livelock:
          stuck = false;
        }
      }
      GPC_CHECK(!stuck, "block scheduler stuck in " + fn_.name);
    }
  }
  // Successful completion only: a faulted block throws past this, dropping
  // its partial characterization data just like its BlockStats.
  if (baiwc_) [[unlikely]] baiwc_->flush();
  return stats_;
}

}  // namespace gpc::sim
