#include "ocl/opencl.h"

#include "common/error.h"
#include "common/log.h"
#include "compiler/pipeline.h"
#include "prof/prof.h"
#include "resil/fault.h"
#include "virt/virt.h"

namespace gpc::ocl {

const char* to_string(Status s) {
  switch (s) {
    case Status::Success: return "CL_SUCCESS";
    case Status::DeviceNotFound: return "CL_DEVICE_NOT_FOUND";
    case Status::BuildProgramFailure: return "CL_BUILD_PROGRAM_FAILURE";
    case Status::InvalidKernelArgs: return "CL_INVALID_KERNEL_ARGS";
    case Status::InvalidWorkGroupSize: return "CL_INVALID_WORK_GROUP_SIZE";
    case Status::OutOfResources: return "CL_OUT_OF_RESOURCES";
    case Status::OutOfHostMemory: return "CL_OUT_OF_HOST_MEMORY";
    case Status::DeviceFault: return "CL_DEVICE_FAULT";
  }
  return "?";
}

std::vector<Platform> get_platforms() {
  std::vector<Platform> ps;
  ps.push_back({"NVIDIA CUDA", "NVIDIA Corporation",
                {&arch::gtx280(), &arch::gtx480()}});
  ps.push_back({"AMD Accelerated Parallel Processing",
                "Advanced Micro Devices, Inc.",
                {&arch::hd5870(), &arch::intel920()}});
  ps.push_back({"IBM OpenCL Development Kit", "IBM", {&arch::cellbe()}});
  return ps;
}

std::vector<const arch::DeviceSpec*> get_devices(DeviceType type) {
  std::vector<const arch::DeviceSpec*> out;
  for (const Platform& p : get_platforms()) {
    for (const arch::DeviceSpec* d : p.devices) {
      const bool is_gpu = d->is_gpu();
      const bool is_cpu = d->family == arch::ArchFamily::X86;
      const bool is_acc = d->family == arch::ArchFamily::CellBE;
      if (type == DeviceType::All || (type == DeviceType::Gpu && is_gpu) ||
          (type == DeviceType::Cpu && is_cpu) ||
          (type == DeviceType::Accelerator && is_acc)) {
        out.push_back(d);
      }
    }
  }
  return out;
}

const arch::DeviceSpec* find_device(const std::string& short_name) {
  for (const arch::DeviceSpec* d : get_devices(DeviceType::All)) {
    if (d->short_name == short_name) return d;
  }
  return nullptr;
}

Context::Context(const arch::DeviceSpec& spec, std::size_t heap_bytes)
    : spec_(spec), runtime_(arch::opencl_runtime()), mem_(heap_bytes) {}

Buffer Context::create_buffer(std::size_t bytes) {
  prof::ScopedSpan span("api", "clCreateBuffer");
  return Buffer{mem_.alloc(bytes), bytes};
}

Program::Program(Context& ctx, const kernel::KernelDef& def)
    : ctx_(ctx), def_(def) {}

Status Program::build() {
  prof::ScopedSpan span("compile", "clBuildProgram");
  if (resil::armed()) {
    if (auto inj = resil::sample(resil::Site::Build, def_.name)) {
      // Transient build failure: the injection budget advances, so a retry
      // (resil policy / GPC_RETRY) can succeed on a later call.
      log_ = "build failed: " + inj->detail;
      return Status::BuildProgramFailure;
    }
  }
  try {
    compiler::CompiledKernel ck =
        compiler::compile(def_, arch::Toolchain::OpenCl);
    kernel_.emplace(Kernel(std::move(ck)));
    log_ = "build succeeded for " + ctx_.spec_.short_name;
    return Status::Success;
  } catch (const Error& e) {
    log_ = std::string("build failed: ") + e.what();
    return Status::BuildProgramFailure;
  }
}

const Kernel& Program::kernel() const {
  GPC_REQUIRE(kernel_.has_value(), "program not built");
  return *kernel_;
}

Status CommandQueue::enqueue_write_buffer(Buffer dst, const void* src,
                                          std::size_t bytes) {
  last_error_.clear();
  if (bytes > dst.bytes) {
    last_error_ = "write of " + std::to_string(bytes) +
                  " B exceeds buffer size " + std::to_string(dst.bytes);
    return Status::InvalidKernelArgs;
  }
  if (resil::armed()) {
    if (auto inj = resil::sample(resil::Site::Memcpy, "clEnqueueWriteBuffer")) {
      last_error_ = inj->detail;
      return Status::OutOfHostMemory;
    }
  }
  prof::ScopedSpan span("xfer", "clEnqueueWriteBuffer");
  ctx_.mem_.write(dst.addr, src, bytes);
  totals_.transfer_s += sim::time_transfer(ctx_.spec_, ctx_.runtime_, bytes);
  return Status::Success;
}

Status CommandQueue::enqueue_read_buffer(void* dst, Buffer src,
                                         std::size_t bytes) {
  last_error_.clear();
  if (bytes > src.bytes) {
    last_error_ = "read of " + std::to_string(bytes) +
                  " B exceeds buffer size " + std::to_string(src.bytes);
    return Status::InvalidKernelArgs;
  }
  if (resil::armed()) {
    if (auto inj = resil::sample(resil::Site::Memcpy, "clEnqueueReadBuffer")) {
      last_error_ = inj->detail;
      return Status::OutOfHostMemory;
    }
  }
  prof::ScopedSpan span("xfer", "clEnqueueReadBuffer");
  ctx_.mem_.read(src.addr, dst, bytes);
  totals_.transfer_s += sim::time_transfer(ctx_.spec_, ctx_.runtime_, bytes);
  return Status::Success;
}

Status CommandQueue::enqueue_nd_range(const Kernel& k, sim::Dim3 global,
                                      sim::Dim3 local,
                                      std::span<const sim::KernelArg> args,
                                      Event* event, int dynamic_local_bytes) {
  if (global.x % local.x != 0 || global.y % local.y != 0 ||
      global.z % local.z != 0) {
    last_error_ = "global size is not a multiple of the work-group size";
    return Status::InvalidWorkGroupSize;
  }
  sim::LaunchConfig cfg;
  cfg.grid = {global.x / local.x, global.y / local.y, global.z / local.z};
  cfg.block = local;
  cfg.dynamic_shared_bytes = dynamic_local_bytes;
  return enqueue_nd_range(k.compiled(), cfg, args, event);
}

Status CommandQueue::enqueue_nd_range(const compiler::CompiledKernel& ck,
                                      const sim::LaunchConfig& config,
                                      std::span<const sim::KernelArg> args,
                                      Event* event) {
  last_error_.clear();
  try {
    prof::ScopedSpan span("api", "clEnqueueNDRangeKernel");
    sim::LaunchResult r =
        virt_ ? virt_->launch(ctx_.spec_, ctx_.runtime_, ck, config, args,
                              ctx_.mem_, {})
              : sim::launch_kernel(ctx_.spec_, ctx_.runtime_, ck, config,
                                   args, ctx_.mem_);
    totals_.add(r.timing);
    if (prof::enabled()) {
      prof::recorder().record_launch(arch::Toolchain::OpenCl,
                                     ctx_.spec_.short_name, ck.name(),
                                     r.timing, r.stats,
                                     virt_ ? virt_->tenant_id() : -1, r.aiwc);
    }
    if (event != nullptr) {
      event->queued_to_start_s = r.timing.launch_s;
      event->start_to_end_s = r.timing.seconds - r.timing.launch_s;
      static_cast<sim::LaunchResult&>(*event) = std::move(r);
    }
    return Status::Success;
  } catch (const OutOfResources& e) {
    last_error_ = e.what();
    GPC_LOG(Info) << "enqueue_nd_range(" << ck.name()
                  << "): " << to_string(Status::OutOfResources) << " — "
                  << e.what();
    return Status::OutOfResources;
  } catch (const DeviceFault& e) {
    // A kernel-side fault (OOB access, divergent barrier, runaway loop):
    // OpenCL surfaces this as an error status, not an exception — the grid
    // has already been stopped early by the pool's batch cancellation.
    last_error_ = e.what();
    GPC_LOG(Info) << "enqueue_nd_range(" << ck.name()
                  << "): " << to_string(Status::DeviceFault) << " — "
                  << e.what();
    return Status::DeviceFault;
  } catch (const InvalidArgument& e) {
    last_error_ = e.what();
    return Status::InvalidKernelArgs;
  }
}

}  // namespace gpc::ocl
