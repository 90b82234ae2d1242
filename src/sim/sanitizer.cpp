#include "sim/sanitizer.h"

#include <algorithm>

#include "common/config.h"
#include "sim/memory.h"

namespace gpc::sim {

SanitizeOptions operator|(SanitizeOptions a, SanitizeOptions b) {
  return SanitizeOptions{a.race || b.race, a.mem || b.mem, a.sync || b.sync};
}

SanitizeOptions parse_sanitize_spec(const char* spec) {
  if (spec == nullptr) return {};
  constexpr unsigned kRace = 1, kMem = 2, kSync = 4, kAll = 7;
  const unsigned bits = config::parse_flags(
      "GPC_SIM_SANITIZE", "check", spec,
      {{"race", kRace}, {"mem", kMem}, {"sync", kSync}, {"all", kAll},
       {"1", kAll}});
  return SanitizeOptions{(bits & kRace) != 0, (bits & kMem) != 0,
                         (bits & kSync) != 0};
}

SanitizeOptions sanitize_options_from_env() {
  return parse_sanitize_spec(config::get("GPC_SIM_SANITIZE"));
}

const char* to_string(SanitizerTool t) {
  switch (t) {
    case SanitizerTool::Racecheck: return "racecheck";
    case SanitizerTool::Memcheck: return "memcheck";
    case SanitizerTool::Synccheck: return "synccheck";
  }
  return "?";
}

std::string SanitizerReport::to_string() const {
  if (clean()) return {};
  std::string out;
  const std::string kernel = findings.empty() ? "" : findings.front().kernel;
  out += "==SANITIZER== kernel " + kernel + ": " +
         std::to_string(findings.size()) + " distinct finding site(s)";
  if (dropped > 0) {
    out += " (+" + std::to_string(dropped) + " dropped past the cap)";
  }
  out += "\n";
  for (const SanitizerFinding& f : findings) {
    out += "==SANITIZER== [" + std::string(sim::to_string(f.tool)) + "] " +
           f.kind + " at micro-op " + std::to_string(f.pc) + ", block (" +
           std::to_string(f.block[0]) + "," + std::to_string(f.block[1]) +
           "," + std::to_string(f.block[2]) + ")";
    if (f.occurrences > 1) {
      out += ", " + std::to_string(f.occurrences) + " occurrences";
    }
    out += ": " + f.message + "\n";
  }
  return out;
}

Sanitizer::Sanitizer(SanitizeOptions opts, std::string kernel_name)
    : opts_(opts), kernel_(std::move(kernel_name)) {}

void Sanitizer::record(SanitizerTool tool, const char* kind, std::int32_t pc,
                       const int block[3], std::string message,
                       std::uint64_t cohort_mask) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (SanitizerFinding& f : findings_) {
    if (f.tool == tool && f.pc == pc && f.kind == kind) {
      ++f.occurrences;
      return;
    }
  }
  if (findings_.size() >= kMaxFindings) {
    ++dropped_;
    return;
  }
  SanitizerFinding f;
  f.tool = tool;
  f.kind = kind;
  f.message = std::move(message);
  f.kernel = kernel_;
  f.pc = pc;
  f.block[0] = block[0];
  f.block[1] = block[1];
  f.block[2] = block[2];
  f.cohort_mask = cohort_mask;
  findings_.push_back(std::move(f));
}

SanitizerReport Sanitizer::report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SanitizerReport r;
  r.checks = opts_;
  r.findings = findings_;
  r.dropped = dropped_;
  return r;
}

BlockSanitizer::BlockSanitizer(Sanitizer& collector, int warp_size,
                               std::size_t shared_bytes, int bx, int by,
                               int bz)
    : collector_(collector),
      warp_size_(warp_size < 1 ? 1 : warp_size),
      block_{bx, by, bz},
      words_((shared_bytes + 3) / 4) {}

void BlockSanitizer::report(SanitizerTool tool, const char* kind,
                            std::int32_t pc, std::string message,
                            std::uint64_t cohort_mask) {
  collector_.record(tool, kind, pc, block_, std::move(message), cohort_mask);
}

void BlockSanitizer::shared_load(const std::uint64_t* addrs, const int* lanes,
                                 int n, int base_lane, int size,
                                 std::int32_t pc) {
  // Pass 1: checks against the pre-instruction shadow.
  for (int i = 0; i < n; ++i) {
    const int tid = base_lane + lanes[i];
    for (std::uint64_t wd = addrs[i] / 4; wd <= (addrs[i] + size - 1) / 4;
         ++wd) {
      const Word& w = words_[wd];
      if (mem_on() && !w.init) {
        report(SanitizerTool::Memcheck, "uninit-shared-read", pc,
               "thread " + std::to_string(tid) + " reads shared word at byte "
               "offset " + std::to_string(wd * 4) +
               " that no thread has written");
      }
      if (race_on() && w.writer >= 0 && w.writer != tid &&
          w.write_epoch == epoch_ && split_warp(w.writer, tid)) {
        report(SanitizerTool::Racecheck, "split-warp-read-after-write", pc,
               "thread " + std::to_string(tid) + " reads shared word at byte "
               "offset " + std::to_string(wd * 4) + " written by thread " +
               std::to_string(w.writer) + " (micro-op " +
               std::to_string(w.write_pc) +
               ") with no barrier in between; both threads sit in the same "
               "assumed 32-wide warp but execute in different hardware warps "
               "of width " + std::to_string(warp_size_) +
               ", so the warp-synchronous value is not the one a 32-wide "
               "lockstep execution would produce");
      }
    }
  }
  // Pass 2: shadow update.
  for (int i = 0; i < n; ++i) {
    const int tid = base_lane + lanes[i];
    for (std::uint64_t wd = addrs[i] / 4; wd <= (addrs[i] + size - 1) / 4;
         ++wd) {
      words_[wd].reader = tid;
      words_[wd].read_epoch = epoch_;
    }
  }
}

void BlockSanitizer::shared_store(const std::uint64_t* addrs,
                                  const std::uint64_t* vals, const int* lanes,
                                  int n, int base_lane, int size,
                                  std::int32_t pc) {
  if (race_on()) {
    // Same-instruction conflicts: two lanes of one lockstep store hitting
    // one word. With gather-then-write semantics one of the two values is
    // silently dropped — the §V RdxS lost update when both lanes had
    // previously read the word (a colliding read-modify-write).
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        const std::uint64_t lo = std::min(addrs[i], addrs[j]);
        const std::uint64_t hi = std::max(addrs[i], addrs[j]);
        if (hi - lo >= static_cast<std::uint64_t>(size)) continue;
        const Word& w = words_[hi / 4];
        const bool rmw = w.read_epoch == epoch_ && w.reader >= 0;
        if (!rmw && vals[i] == vals[j]) continue;  // benign broadcast
        const int ti = base_lane + lanes[i], tj = base_lane + lanes[j];
        report(SanitizerTool::Racecheck,
               rmw ? "lost-update" : "write-write-conflict", pc,
               "threads " + std::to_string(ti) + " and " + std::to_string(tj) +
                   " write the shared word at byte offset " +
                   std::to_string(lo) + " in the same lockstep instruction" +
                   (rmw ? " after both read it — one read-modify-write "
                          "update is lost"
                        : " with different values — one store is lost"));
      }
    }
    // Split-warp hazards against earlier instructions in this barrier
    // interval (checked before this instruction updates the shadow).
    for (int i = 0; i < n; ++i) {
      const int tid = base_lane + lanes[i];
      for (std::uint64_t wd = addrs[i] / 4; wd <= (addrs[i] + size - 1) / 4;
           ++wd) {
        const Word& w = words_[wd];
        if (w.write_epoch == epoch_ && w.writer >= 0 && w.writer != tid &&
            split_warp(w.writer, tid)) {
          report(SanitizerTool::Racecheck, "split-warp-write-after-write", pc,
                 "thread " + std::to_string(tid) + " overwrites shared word "
                 "at byte offset " + std::to_string(wd * 4) +
                 " written by thread " + std::to_string(w.writer) +
                 " (micro-op " + std::to_string(w.write_pc) +
                 ") with no barrier in between, and the hardware warp of "
                 "width " + std::to_string(warp_size_) +
                 " split their assumed 32-wide warp");
        } else if (w.read_epoch == epoch_ && w.reader >= 0 &&
                   w.reader != tid && split_warp(w.reader, tid)) {
          report(SanitizerTool::Racecheck, "split-warp-write-after-read", pc,
                 "thread " + std::to_string(tid) + " overwrites shared word "
                 "at byte offset " + std::to_string(wd * 4) +
                 " read by thread " + std::to_string(w.reader) +
                 " with no barrier in between, and the hardware warp of "
                 "width " + std::to_string(warp_size_) +
                 " split their assumed 32-wide warp");
        }
      }
    }
  }
  for (int i = 0; i < n; ++i) {
    const int tid = base_lane + lanes[i];
    for (std::uint64_t wd = addrs[i] / 4; wd <= (addrs[i] + size - 1) / 4;
         ++wd) {
      Word& w = words_[wd];
      w.writer = tid;
      w.write_pc = pc;
      w.write_epoch = epoch_;
      w.init = true;
      w.reader = -1;
    }
  }
}

void BlockSanitizer::shared_atomic(const std::uint64_t* addrs,
                                   const int* lanes, int n, int base_lane,
                                   int size, std::int32_t pc) {
  for (int i = 0; i < n; ++i) {
    const int tid = base_lane + lanes[i];
    for (std::uint64_t wd = addrs[i] / 4; wd <= (addrs[i] + size - 1) / 4;
         ++wd) {
      Word& w = words_[wd];
      if (mem_on() && !w.init) {
        report(SanitizerTool::Memcheck, "uninit-shared-read", pc,
               "thread " + std::to_string(tid) +
                   " atomically updates shared word at byte offset " +
                   std::to_string(wd * 4) + " that no thread has written");
      }
      w.writer = tid;
      w.write_pc = pc;
      w.write_epoch = epoch_;
      w.init = true;
      w.reader = -1;
    }
  }
}

void BlockSanitizer::global_batch(const DeviceMemory& mem,
                                  const std::uint64_t* addrs, int n, int size,
                                  bool is_store, std::int32_t pc) {
  if (!mem_on()) return;
  const char* verb = is_store ? "write" : "read";
  for (int i = 0; i < n; ++i) {
    const std::uint64_t a = addrs[i];
    const DeviceMemory::Allocation* al = mem.find_allocation(a);
    if (al == nullptr) {
      // Inside the heap (the hard whole-heap check passed or will fault
      // loudly) but in no allocation: alignment padding, a red zone, or
      // past the bump pointer. Identify the nearest preceding allocation.
      const DeviceMemory::Allocation* prev = mem.preceding_allocation(a);
      std::string msg = std::to_string(size) + "-byte global " + verb +
                        " at address " + std::to_string(a) +
                        " touches unallocated device memory";
      if (prev != nullptr) {
        msg += " " + std::to_string(a - (prev->base + prev->bytes)) +
               " byte(s) past the end of the " + std::to_string(prev->bytes) +
               "-byte allocation at " + std::to_string(prev->base);
      }
      report(SanitizerTool::Memcheck, "global-oob", pc, std::move(msg));
    } else if (a + size > al->base + al->bytes) {
      report(SanitizerTool::Memcheck, "global-oob", pc,
             std::to_string(size) + "-byte global " + verb + " at address " +
                 std::to_string(a) + " spills past the end of the " +
                 std::to_string(al->bytes) + "-byte allocation at " +
                 std::to_string(al->base) +
                 " into the neighbouring allocation or padding");
    }
  }
}

bool BlockSanitizer::divergent_barrier(std::int32_t pc, std::uint64_t arrived,
                                       const std::string& detail) {
  report(SanitizerTool::Synccheck, "divergent-barrier", pc, detail, arrived);
  return sync_on();
}

void BlockSanitizer::div_by_zero(std::int32_t pc) {
  if (!mem_on()) return;
  report(SanitizerTool::Memcheck, "div-by-zero", pc,
         "division by zero at micro-op " + std::to_string(pc) +
         " (quotient/remainder is 0 on the device)");
}

void BlockSanitizer::barrier_release() { ++epoch_; }

}  // namespace gpc::sim
