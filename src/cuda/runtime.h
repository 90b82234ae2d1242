// CUDA-like host runtime API over the simulator.
//
// Mirrors the CUDA runtime's shape (context-per-device, cudaMalloc/cudaMemcpy,
// kernel launches with grid/block dims, texture binding) so the benchmark
// drivers read like their CUDA-SDK/SHOC originals. Kernels are compiled with
// the NVOPENCC-policy front end. What sets this runtime apart from gpc::ocl
// is its API shape (exceptions, textures) and its arch::cuda_runtime() data
// (low enqueue latency, per-copy overhead); copy pricing
// (sim::time_transfer) and the timers (sim::LaunchTotals) are shared.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arch/device_spec.h"
#include "compiler/compiled_kernel.h"
#include "compiler/pipeline.h"
#include "kernel/ast.h"
#include "sim/launch.h"
#include "sim/memory.h"

namespace gpc::virt {
class TenantQueue;
}  // namespace gpc::virt

namespace gpc::cuda {

using DevicePtr = std::uint64_t;

class Context {
 public:
  /// heap_bytes: size of the simulated device DRAM.
  explicit Context(const arch::DeviceSpec& spec,
                   std::size_t heap_bytes = std::size_t{512} << 20);

  const arch::DeviceSpec& device() const { return spec_; }
  sim::DeviceMemory& memory() { return mem_; }

  // ---- Memory management ----
  DevicePtr malloc(std::size_t bytes);
  void memcpy_h2d(DevicePtr dst, const void* src, std::size_t bytes);
  void memcpy_d2h(void* dst, DevicePtr src, std::size_t bytes);

  template <typename T>
  DevicePtr upload(std::span<const T> host) {
    const DevicePtr p = malloc(host.size_bytes());
    memcpy_h2d(p, host.data(), host.size_bytes());
    return p;
  }
  template <typename T>
  void download(DevicePtr src, std::span<T> host) {
    memcpy_d2h(host.data(), src, host.size_bytes());
  }

  // ---- Compilation ----
  compiler::CompiledKernel compile(const kernel::KernelDef& def,
                                   const compiler::CompileOptions& opts = {});

  // ---- Textures ----
  void bind_texture(int unit, DevicePtr base, std::size_t bytes,
                    ir::Type elem);
  void unbind_textures() { textures_.clear(); }

  // ---- Launch ----
  /// Synchronous launch. Error model is CUDA's, not OpenCL's: kernel-side
  /// faults (out-of-bounds access, divergent barrier, instruction-budget
  /// blowout) propagate as gpc::DeviceFault exceptions — the analogue of a
  /// sticky cudaErrorLaunchFailed — and resource-validation failures as
  /// gpc::OutOfResources. The grid is stopped early on the first fault.
  sim::LaunchResult launch(const compiler::CompiledKernel& ck,
                           const sim::LaunchConfig& config,
                           std::span<const sim::KernelArg> args);

  // ---- Virtualization (gpc::virt) ----
  /// Routes every subsequent launch through the tenant's command queue —
  /// time-sliced and fair-share scheduled against the other tenants of the
  /// queue's VirtualDeviceManager. nullptr (the default) detaches: launches
  /// run directly on the simulator, bit-identical to a build without virt.
  void attach_virt(virt::TenantQueue* q) { virt_ = q; }
  virt::TenantQueue* virt_queue() const { return virt_; }

  // ---- Timers (event-style accumulation) ----
  const sim::LaunchTotals& totals() const { return totals_; }
  void reset_timers() { totals_ = {}; }

 private:
  const arch::DeviceSpec& spec_;
  arch::RuntimeSpec runtime_;
  sim::DeviceMemory mem_;
  std::vector<sim::TexBinding> textures_;
  sim::LaunchTotals totals_;
  virt::TenantQueue* virt_ = nullptr;
};

}  // namespace gpc::cuda
