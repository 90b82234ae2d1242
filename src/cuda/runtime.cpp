#include "cuda/runtime.h"

#include "common/error.h"
#include "prof/prof.h"
#include "resil/fault.h"
#include "virt/virt.h"

namespace gpc::cuda {

Context::Context(const arch::DeviceSpec& spec, std::size_t heap_bytes)
    : spec_(spec), runtime_(arch::cuda_runtime()), mem_(heap_bytes) {
  GPC_REQUIRE(spec.vendor == arch::Vendor::Nvidia,
              "CUDA runs only on NVIDIA devices (" + spec.short_name + ")");
}

DevicePtr Context::malloc(std::size_t bytes) {
  prof::ScopedSpan span("api", "cudaMalloc");
  return mem_.alloc(bytes);
}

void Context::memcpy_h2d(DevicePtr dst, const void* src, std::size_t bytes) {
  if (resil::armed()) {
    if (auto inj = resil::sample(resil::Site::Memcpy, "cudaMemcpy(H2D)")) {
      throw TransientFault(inj->detail);
    }
  }
  prof::ScopedSpan span("xfer", "cudaMemcpy(H2D)");
  mem_.write(dst, src, bytes);
  totals_.transfer_s += sim::time_transfer(spec_, runtime_, bytes);
}

void Context::memcpy_d2h(void* dst, DevicePtr src, std::size_t bytes) {
  if (resil::armed()) {
    if (auto inj = resil::sample(resil::Site::Memcpy, "cudaMemcpy(D2H)")) {
      throw TransientFault(inj->detail);
    }
  }
  prof::ScopedSpan span("xfer", "cudaMemcpy(D2H)");
  mem_.read(src, dst, bytes);
  totals_.transfer_s += sim::time_transfer(spec_, runtime_, bytes);
}

compiler::CompiledKernel Context::compile(const kernel::KernelDef& def,
                                          const compiler::CompileOptions& opts) {
  if (resil::armed()) {
    if (auto inj = resil::sample(resil::Site::Build, def.name)) {
      // Transient toolchain failure; a retry draws a fresh decision.
      throw TransientFault(inj->detail);
    }
  }
  prof::ScopedSpan span("compile", "nvcc");
  return compiler::compile(def, arch::Toolchain::Cuda, opts);
}

void Context::bind_texture(int unit, DevicePtr base, std::size_t bytes,
                           ir::Type elem) {
  if (unit >= static_cast<int>(textures_.size())) {
    textures_.resize(unit + 1);
  }
  textures_[unit] = sim::TexBinding{base, bytes, elem};
}

sim::LaunchResult Context::launch(const compiler::CompiledKernel& ck,
                                  const sim::LaunchConfig& config,
                                  std::span<const sim::KernelArg> args) {
  GPC_REQUIRE(ck.toolchain == arch::Toolchain::Cuda,
              "kernel " + ck.name() + " was not compiled for CUDA");
  prof::ScopedSpan span("api", "cudaLaunchKernel");
  sim::LaunchResult r =
      virt_ ? virt_->launch(spec_, runtime_, ck, config, args, mem_, textures_)
            : sim::launch_kernel(spec_, runtime_, ck, config, args, mem_,
                                 textures_);
  totals_.add(r.timing);
  if (prof::enabled()) {
    prof::recorder().record_launch(arch::Toolchain::Cuda, spec_.short_name,
                                   ck.name(), r.timing, r.stats,
                                   virt_ ? virt_->tenant_id() : -1, r.aiwc);
  }
  return r;
}

}  // namespace gpc::cuda
