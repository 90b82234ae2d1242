// Simulated device global memory.
//
// One flat byte-addressable heap per device with a bump allocator (device
// addresses are offsets into it; address 0 is reserved so null pointers
// fault). Loads and stores from concurrently executing blocks go through
// std::atomic_ref so the benign same-value races some kernels rely on
// (e.g. BFS frontier flags) are well-defined on the host too.
//
// The heap is backed by an anonymous demand-zero mapping on POSIX hosts, so
// constructing a multi-hundred-megabyte device costs no page faults until a
// kernel actually touches the pages (sessions are created per benchmark run,
// so eager zero-fill used to dominate wall-clock). A plain zero-filled
// vector is the portable fallback.
//
// Dirty extent. reset() must leave every byte reading 0, but a session that
// is reset once per job (gpc::serve, BenchmarkBase::attempt_in) only ever
// touches the low end of the heap. Everything written since the last reset
// lies below the dirty extent: the bump pointer, raised by any host write()
// or device store/atomic that lands past it but inside capacity (legal, if
// unallocated). The device-side bounds check compares against the bump
// pointer, so this costs no extra work on the hot path: only an access past
// it takes the out-of-line slow path, which faults real out-of-bounds or
// misaligned accesses and records the end of a legal stray store. Both the
// check and reset() trust the bump pointer, so it never passes capacity
// (alloc() clamps a red zone that would run past the heap).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/error.h"

namespace gpc::sim {

/// True when a `size`-byte access at `addr` does not end at or below
/// `limit`. Compared without forming addr + size, which wraps to a small
/// number for an address within `size` bytes of 2^64.
constexpr bool past_limit(std::uint64_t addr, std::uint64_t size,
                          std::uint64_t limit) {
  return size > limit || addr > limit - size;
}

class DeviceMemory {
 public:
  /// One live allocation, in [base, base + bytes).
  struct Allocation {
    std::uint64_t base = 0;
    std::uint64_t bytes = 0;
  };

  /// capacity_bytes: total simulated DRAM.
  explicit DeviceMemory(std::size_t capacity_bytes);
  ~DeviceMemory();

  DeviceMemory(const DeviceMemory&) = delete;
  DeviceMemory& operator=(const DeviceMemory&) = delete;

  /// Allocates `bytes` with 256-byte alignment (matching cudaMalloc);
  /// returns the device address. Throws OutOfResources when DRAM is full.
  std::uint64_t alloc(std::size_t bytes);

  /// Resets the allocator (frees everything) and zeroes the dirty extent,
  /// so every byte reads 0 again. A small extent is memset; a large one
  /// goes back to demand-zero with one madvise over the extent. madvise is
  /// not priced by its range: it costs a TLB-shootdown IPI to every thread
  /// of the process plus a page fault on the next touch of each page, which
  /// is why per-job resets of a few kilobytes do not use it.
  void reset();

  std::size_t capacity() const { return capacity_; }
  std::size_t used() const { return top_; }
  /// One past the highest byte written since the last reset (>= used()).
  std::size_t dirty_extent() const {
    return std::max<std::size_t>(
        top_, stray_top_.load(std::memory_order_relaxed));
  }

  // Host-side bulk access (cudaMemcpy-style).
  void write(std::uint64_t addr, const void* src, std::size_t bytes);
  void read(std::uint64_t addr, void* dst, std::size_t bytes) const;

  /// Device-side accesses: 4- or 8-byte, naturally aligned, atomic-relaxed.
  /// Throws DeviceFault on out-of-bounds or misaligned access; an access
  /// past the bump pointer but inside capacity is legal. Inline —
  /// these run once per lane per global memory instruction, the hottest
  /// per-lane path in divergent kernels; only accesses past the bump
  /// pointer go out of line.
  std::uint64_t load(std::uint64_t addr, int size) const {
    check(addr, size);
    return load_unchecked(addr, size);
  }
  void store(std::uint64_t addr, std::uint64_t value, int size) {
    check_store(addr, size);
    store_unchecked(addr, value, size);
  }

  /// The batch form of the bounds check for one warp access: true when
  /// every address is aligned and inside [256, bump pointer), the range
  /// load_unchecked/store_unchecked may touch. One branch-free pass; on
  /// false the caller replays the access through load()/store(), which
  /// fault or raise the dirty extent per lane exactly as before.
  bool all_below_top(const std::uint64_t* addrs, int n, int size) const {
    const std::uint64_t last = top_ - size;  // top_ >= 256 > size
    const std::uint64_t align = static_cast<std::uint64_t>(size) - 1;
    std::uint64_t bad = 0;
    for (int i = 0; i < n; ++i) {
      const std::uint64_t a = addrs[i];
      bad |= static_cast<std::uint64_t>(a > last) |
             static_cast<std::uint64_t>(a < 256) | (a & align);
    }
    return bad == 0;
  }

  /// Relaxed 4- or 8-byte access without the bounds check, for addresses
  /// check() or all_below_top() accepted.
  std::uint64_t load_unchecked(std::uint64_t addr, int size) const {
    const std::uint8_t* p = base_ + addr;
    if (size == 4) {
      const auto* w = reinterpret_cast<const std::uint32_t*>(p);
      return std::atomic_ref<const std::uint32_t>(*w).load(
          std::memory_order_relaxed);
    }
    const auto* w = reinterpret_cast<const std::uint64_t*>(p);
    return std::atomic_ref<const std::uint64_t>(*w).load(
        std::memory_order_relaxed);
  }
  void store_unchecked(std::uint64_t addr, std::uint64_t value, int size) {
    std::uint8_t* p = base_ + addr;
    if (size == 4) {
      auto* w = reinterpret_cast<std::uint32_t*>(p);
      std::atomic_ref<std::uint32_t>(*w).store(
          static_cast<std::uint32_t>(value), std::memory_order_relaxed);
      return;
    }
    auto* w = reinterpret_cast<std::uint64_t*>(p);
    std::atomic_ref<std::uint64_t>(*w).store(value, std::memory_order_relaxed);
  }

  /// Atomic integer add; returns the previous value.
  std::uint64_t atomic_add(std::uint64_t addr, std::uint64_t value, int size);
  /// Atomic float add (CAS loop); returns the previous value's bits.
  std::uint32_t atomic_add_f32(std::uint64_t addr, float value);

  /// Bounds/alignment check of a device load. One compare against the bump
  /// pointer; anything past it goes to the out-of-line check_slow.
  void check(std::uint64_t addr, int size) const {
    if (!below_top(addr, size)) [[unlikely]] check_slow(addr, size);
  }

  /// The allocation containing `addr`, or null when `addr` falls in
  /// alignment padding / a red zone / past the bump pointer. O(log n).
  const Allocation* find_allocation(std::uint64_t addr) const;

  /// The allocation with the greatest base <= addr (whether or not it
  /// contains addr), or null. Used by memcheck to phrase overrun reports.
  const Allocation* preceding_allocation(std::uint64_t addr) const;

  /// Live allocations in increasing base order (bump allocator).
  const std::vector<Allocation>& allocations() const { return allocs_; }

  /// Inserts `bytes` of unallocated guard space after every subsequent
  /// allocation so memcheck catches overruns into what would otherwise be
  /// the 256-byte-aligned neighbouring buffer. Enabled automatically at
  /// construction when GPC_SIM_SANITIZE includes "mem".
  void set_red_zone(std::size_t bytes) { red_zone_ = bytes; }

 private:
  bool below_top(std::uint64_t addr, int size) const {
    // size is 4 or 8 (a power of two), so alignment is a mask test.
    return all_below_top(&addr, 1, size);
  }
  /// As check(), for stores and atomics: the slow path also raises the
  /// dirty extent over a legal store past the bump pointer.
  void check_store(std::uint64_t addr, int size) {
    if (!below_top(addr, size)) [[unlikely]] {
      check_slow(addr, size);
      note_dirty(addr + size);
    }
  }
  /// Throws DeviceFault unless [addr, addr + size) is an aligned range
  /// inside [256, capacity).
  void check_slow(std::uint64_t addr, int size) const;
  /// Raises stray_top_ to at least `end` (atomic max: blocks store
  /// concurrently).
  void note_dirty(std::uint64_t end);

  std::uint8_t* base_ = nullptr;  // mmap region or fallback_.data()
  std::size_t capacity_ = 0;
  bool mapped_ = false;           // true when base_ came from mmap
  std::vector<std::uint8_t> fallback_;
  std::size_t top_ = 256;  // address 0..255 reserved (null page)
  // Highest end of a host write or device store past top_ since the last
  // reset; dirty_extent() is the larger of the two.
  std::atomic<std::uint64_t> stray_top_{256};
  std::size_t red_zone_ = 0;
  std::vector<Allocation> allocs_;  // sorted by base
};

}  // namespace gpc::sim
