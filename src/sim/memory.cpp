#include "sim/memory.h"

#include <algorithm>
#include <string>

#include "sim/sanitizer.h"

#if defined(__unix__) || defined(__APPLE__)
#define GPC_HAVE_MMAP 1
#include <sys/mman.h>
#endif

namespace gpc::sim {

namespace {
// reset() zeroes a dirty extent up to this size with memset and hands a
// larger one back to the kernel with madvise (see memory.h). Measured on a
// 4-core x86-64 host with two busy sibling threads, the reset call alone:
// memset 26 us vs madvise 32 us at 1 MB, equal at 2 MB, 194 vs 133 us at
// 4 MB. Below the cut-over memset also wins when the next job re-touches
// the pages, since madvise leaves a page fault on each.
constexpr std::size_t kMemsetResetMaxBytes = std::size_t{2} << 20;
}  // namespace

DeviceMemory::DeviceMemory(std::size_t capacity_bytes)
    : capacity_(capacity_bytes) {
  // Memcheck red zones: when the process opted into memcheck via the
  // environment, leave a guard gap after every allocation so an overrun
  // lands in unallocated space instead of the neighbouring buffer.
  // Programmatic (per-launch) memcheck users call set_red_zone themselves
  // before allocating if they want the same.
  if (sanitize_options_from_env().mem) red_zone_ = 256;
#ifdef GPC_HAVE_MMAP
  if (capacity_ > 0) {
    void* p = ::mmap(nullptr, capacity_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p != MAP_FAILED) {
      base_ = static_cast<std::uint8_t*>(p);
      mapped_ = true;
      return;
    }
  }
#endif
  fallback_.assign(capacity_, 0);
  base_ = fallback_.data();
}

DeviceMemory::~DeviceMemory() {
#ifdef GPC_HAVE_MMAP
  if (mapped_) ::munmap(base_, capacity_);
#endif
}

std::uint64_t DeviceMemory::alloc(std::size_t bytes) {
  const std::size_t aligned = (top_ + 255) & ~std::size_t{255};
  if (aligned + bytes > capacity_) {
    throw OutOfResources("device memory exhausted: need " +
                         std::to_string(bytes) + " bytes, " +
                         std::to_string(capacity_ - aligned) + " free");
  }
  // The red zone may run past capacity; the bump pointer must not, since
  // the bounds check and reset() both trust it to stay inside the heap.
  top_ = std::min(aligned + bytes + red_zone_, capacity_);
  allocs_.push_back(Allocation{aligned, bytes});
  return aligned;
}

const DeviceMemory::Allocation* DeviceMemory::preceding_allocation(
    std::uint64_t addr) const {
  auto it = std::upper_bound(
      allocs_.begin(), allocs_.end(), addr,
      [](std::uint64_t a, const Allocation& al) { return a < al.base; });
  if (it == allocs_.begin()) return nullptr;
  return &*--it;
}

const DeviceMemory::Allocation* DeviceMemory::find_allocation(
    std::uint64_t addr) const {
  const Allocation* al = preceding_allocation(addr);
  if (al == nullptr || addr >= al->base + al->bytes) return nullptr;
  return al;
}

void DeviceMemory::reset() {
  const std::size_t extent = dirty_extent();
  top_ = 256;
  stray_top_.store(256, std::memory_order_relaxed);
  allocs_.clear();
  if (extent <= 256) return;
#ifdef GPC_HAVE_MMAP
  // Past the cut-over, dropping the pages back to demand-zero beats
  // zeroing them in place (address 0 of the mapping is page-aligned).
  if (mapped_ && extent > kMemsetResetMaxBytes &&
      ::madvise(base_, extent, MADV_DONTNEED) == 0) {
    return;
  }
#endif
  std::memset(base_ + 256, 0, extent - 256);
}

void DeviceMemory::check_slow(std::uint64_t addr, int size) const {
  if (past_limit(addr, static_cast<std::uint64_t>(size), capacity_) ||
      addr < 256) {
    throw DeviceFault("global access out of bounds: addr=" +
                      std::to_string(addr) + " size=" + std::to_string(size));
  }
  if ((addr & (static_cast<std::uint64_t>(size) - 1)) != 0) {
    throw DeviceFault("misaligned global access: addr=" +
                      std::to_string(addr) + " size=" + std::to_string(size));
  }
}

void DeviceMemory::note_dirty(std::uint64_t end) {
  std::uint64_t cur = stray_top_.load(std::memory_order_relaxed);
  while (end > cur && !stray_top_.compare_exchange_weak(
                          cur, end, std::memory_order_relaxed)) {
  }
}

void DeviceMemory::write(std::uint64_t addr, const void* src,
                         std::size_t bytes) {
  GPC_REQUIRE(addr >= 256 && addr + bytes <= capacity_,
              "host write out of device memory bounds");
  if (addr + bytes > top_) note_dirty(addr + bytes);
  std::memcpy(base_ + addr, src, bytes);
}

void DeviceMemory::read(std::uint64_t addr, void* dst,
                        std::size_t bytes) const {
  GPC_REQUIRE(addr >= 256 && addr + bytes <= capacity_,
              "host read out of device memory bounds");
  std::memcpy(dst, base_ + addr, bytes);
}

std::uint64_t DeviceMemory::atomic_add(std::uint64_t addr,
                                       std::uint64_t value, int size) {
  check_store(addr, size);
  std::uint8_t* p = base_ + addr;
  if (size == 4) {
    auto* w = reinterpret_cast<std::uint32_t*>(p);
    return std::atomic_ref<std::uint32_t>(*w).fetch_add(
        static_cast<std::uint32_t>(value), std::memory_order_relaxed);
  }
  auto* w = reinterpret_cast<std::uint64_t*>(p);
  return std::atomic_ref<std::uint64_t>(*w).fetch_add(
      value, std::memory_order_relaxed);
}

std::uint32_t DeviceMemory::atomic_add_f32(std::uint64_t addr, float value) {
  check_store(addr, 4);
  auto* w = reinterpret_cast<std::uint32_t*>(base_ + addr);
  std::atomic_ref<std::uint32_t> ref(*w);
  std::uint32_t old = ref.load(std::memory_order_relaxed);
  for (;;) {
    float f;
    std::memcpy(&f, &old, 4);
    f += value;
    std::uint32_t desired;
    std::memcpy(&desired, &f, 4);
    if (ref.compare_exchange_weak(old, desired, std::memory_order_relaxed)) {
      return old;
    }
  }
}

}  // namespace gpc::sim
