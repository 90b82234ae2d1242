// OpenCL-like host platform API over the simulator.
//
// Mirrors the OpenCL 1.1 host model: platform/device enumeration across three
// vendors ("NVIDIA CUDA", "AMD APP", "IBM OpenCL"), contexts, command queues
// with profiling, buffers, programs and kernels. Unlike the CUDA facade this
// API reports failures through error codes — clEnqueueNDRangeKernel returning
// CL_OUT_OF_RESOURCES on the Cell/BE is Table VI's "ABT" result, so the error
// path is part of the reproduction. Apart from that API shape, only the
// arch::opencl_runtime() data (enqueue latency, per-copy overhead) differ
// from gpc::cuda: launches take the same sim::LaunchConfig, and copy
// pricing (sim::time_transfer) and the timers (sim::LaunchTotals) are
// shared.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arch/device_spec.h"
#include "compiler/compiled_kernel.h"
#include "kernel/ast.h"
#include "sim/launch.h"
#include "sim/memory.h"

namespace gpc::virt {
class TenantQueue;
}  // namespace gpc::virt

namespace gpc::ocl {

/// Error codes are the OpenCL way of reporting failure, and several of them
/// are part of the reproduction (see file comment) — dropping one on the
/// floor is almost always a bug, hence [[nodiscard]].
enum class [[nodiscard]] Status {
  Success,
  DeviceNotFound,
  BuildProgramFailure,
  InvalidKernelArgs,
  InvalidWorkGroupSize,
  OutOfResources,
  OutOfHostMemory,
  /// The kernel itself faulted mid-grid (out-of-bounds access, divergent
  /// barrier, instruction-budget blowout). The grid stops early; details
  /// via CommandQueue::last_error().
  DeviceFault,
};

const char* to_string(Status s);

enum class DeviceType { Gpu, Cpu, Accelerator, All };

struct Platform {
  std::string name;
  std::string vendor;
  std::vector<const arch::DeviceSpec*> devices;
};

/// The installed platforms of the paper's testbeds (Table III plus the
/// portability targets of §V).
std::vector<Platform> get_platforms();

/// clGetDeviceIDs-style selection over all platforms.
std::vector<const arch::DeviceSpec*> get_devices(DeviceType type);

/// Finds a device by paper short name ("GTX480", "Cell/BE", ...).
const arch::DeviceSpec* find_device(const std::string& short_name);

struct Buffer {
  std::uint64_t addr = 0;
  std::size_t bytes = 0;
};

class Context;

/// A built kernel. Thin handle over the compiled artefact. Normally obtained
/// from Program::kernel(); directly constructible for callers that manage
/// compilation themselves.
class Kernel {
 public:
  explicit Kernel(compiler::CompiledKernel ck) : ck_(std::move(ck)) {}
  const compiler::CompiledKernel& compiled() const { return ck_; }
  const std::string& name() const { return ck_.name(); }

 private:
  compiler::CompiledKernel ck_;
};

/// clCreateProgramWithSource + clBuildProgram analogue: compiles kernel
/// definitions with the OpenCL front-end for the context's device.
class Program {
 public:
  Program(Context& ctx, const kernel::KernelDef& def);

  Status build();
  /// Valid after a successful build().
  const Kernel& kernel() const;
  const std::string& build_log() const { return log_; }

 private:
  Context& ctx_;
  kernel::KernelDef def_;
  std::optional<Kernel> kernel_;
  std::string log_;
};

/// One enqueued command: the launch result (stats, timing, sanitizer
/// findings, AIWC features) plus its CL_PROFILING_COMMAND_* analogue.
struct Event : sim::LaunchResult {
  double queued_to_start_s = 0;  // the "kernel launch time" of §IV-B.4
  double start_to_end_s = 0;
};

class Context {
 public:
  explicit Context(const arch::DeviceSpec& spec,
                   std::size_t heap_bytes = std::size_t{512} << 20);

  const arch::DeviceSpec& device() const { return spec_; }
  sim::DeviceMemory& memory() { return mem_; }

  Buffer create_buffer(std::size_t bytes);

 private:
  friend class CommandQueue;
  friend class Program;
  const arch::DeviceSpec& spec_;
  arch::RuntimeSpec runtime_;
  sim::DeviceMemory mem_;
};

class CommandQueue {
 public:
  explicit CommandQueue(Context& ctx) : ctx_(ctx) {}

  Status enqueue_write_buffer(Buffer dst, const void* src, std::size_t bytes);
  Status enqueue_read_buffer(void* dst, Buffer src, std::size_t bytes);

  /// clEnqueueNDRangeKernel analogue. `global` is the total work-item count
  /// per dimension (the paper's NDRange-vs-GridDim programming-model
  /// difference: OpenCL specifies work-items, CUDA specifies blocks);
  /// `local` the work-group size. global must be a multiple of local.
  Status enqueue_nd_range(const Kernel& k, sim::Dim3 global, sim::Dim3 local,
                          std::span<const sim::KernelArg> args,
                          Event* event = nullptr,
                          int dynamic_local_bytes = 0);
  /// As above, with the work-group grid and every other sim::LaunchConfig
  /// field (sub-grid offset, degraded execution, step budget) given by the
  /// caller, on a compiled kernel the caller owns: no copy is made, so the
  /// simulator's decode cache fills on `ck` itself (harness::DeviceSession
  /// enqueues this way).
  Status enqueue_nd_range(const compiler::CompiledKernel& ck,
                          const sim::LaunchConfig& config,
                          std::span<const sim::KernelArg> args,
                          Event* event = nullptr);

  const sim::LaunchTotals& totals() const { return totals_; }
  void reset_timers() { totals_ = {}; }

  /// Human-readable detail of the last enqueue that returned an error
  /// status (OpenCL's error codes carry no message; this is the analogue of
  /// checking the driver log). Empty when the last enqueued operation
  /// succeeded: every enqueue method (kernel *and* buffer ops) resets it on
  /// entry, so a fault in launch N can never bleed into the diagnosis of
  /// launch N+1.
  const std::string& last_error() const { return last_error_; }

  // ---- Virtualization (gpc::virt) ----
  /// Routes every subsequent enqueue_nd_range through the tenant's command
  /// queue (time-sliced, fair-share scheduled). nullptr detaches: enqueues
  /// run directly on the simulator, bit-identical to a build without virt.
  void attach_virt(virt::TenantQueue* q) { virt_ = q; }
  virt::TenantQueue* virt_queue() const { return virt_; }

 private:
  Context& ctx_;
  sim::LaunchTotals totals_;
  std::string last_error_;
  virt::TenantQueue* virt_ = nullptr;
};

}  // namespace gpc::ocl
