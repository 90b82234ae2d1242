// Quickstart: write one kernel, run it through both programming models.
//
//   $ ./build/examples/quickstart
//
// Demonstrates the core workflow of the library:
//   1. describe a device kernel once with kernel::KernelBuilder,
//   2. run it through the CUDA-like runtime API on a GTX480,
//   3. run the SAME kernel through the OpenCL-like platform API,
//   4. compare results and timings (the paper's PR metric).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "arch/device_spec.h"
#include "cuda/runtime.h"
#include "kernel/builder.h"
#include "ocl/opencl.h"

using namespace gpc;
using kernel::KernelBuilder;
using kernel::Unroll;
using kernel::Val;
using kernel::Var;

// SAXPY: y[i] = a*x[i] + y[i]. One definition serves both toolchains.
kernel::KernelDef make_saxpy() {
  KernelBuilder kb("saxpy");
  auto x = kb.ptr_param("x", ir::Type::F32);
  auto y = kb.ptr_param("y", ir::Type::F32);
  Val a = kb.f32_param("a");
  Val n = kb.s32_param("n");
  Val gid = kb.global_id_x();
  kb.if_(gid < n, [&] { kb.st(y, gid, a * kb.ld(x, gid) + kb.ld(y, gid)); });
  return kb.finish();
}

int main() {
  const int n = 1 << 20;
  const float a = 2.5f;
  std::vector<float> hx(n), hy(n);
  for (int i = 0; i < n; ++i) {
    hx[i] = 0.001f * static_cast<float>(i % 1000);
    hy[i] = 1.0f;
  }

  auto def = make_saxpy();

  // ---- CUDA path (runtime API) ----
  double cuda_seconds = 0;
  std::vector<float> cuda_result(n);
  {
    cuda::Context ctx(arch::gtx480());
    auto ck = ctx.compile(def);
    const auto dx = ctx.upload<float>(hx);
    const auto dy = ctx.upload<float>(hy);
    sim::LaunchConfig cfg;
    cfg.block = {256, 1, 1};
    cfg.grid = {(n + 255) / 256, 1, 1};
    std::vector<sim::KernelArg> args = {
        sim::KernelArg::ptr(dx), sim::KernelArg::ptr(dy),
        sim::KernelArg::f32(a), sim::KernelArg::s32(n)};
    ctx.launch(ck, cfg, args);
    ctx.download<float>(dy, cuda_result);
    cuda_seconds = ctx.totals().kernel_s;
  }

  // ---- OpenCL path (platform API) ----
  double ocl_seconds = 0;
  std::vector<float> ocl_result(n);
  {
    ocl::Context ctx(*ocl::find_device("GTX480"));
    ocl::Program prog(ctx, def);
    if (prog.build() != ocl::Status::Success) {
      std::fprintf(stderr, "build failed: %s\n", prog.build_log().c_str());
      return 1;
    }
    ocl::CommandQueue q(ctx);
    auto bx = ctx.create_buffer(n * 4);
    auto by = ctx.create_buffer(n * 4);
    auto check = [&](ocl::Status st, const char* what) {
      if (st != ocl::Status::Success) {
        std::fprintf(stderr, "%s failed: %s\n", what, ocl::to_string(st));
        std::exit(1);
      }
    };
    check(q.enqueue_write_buffer(bx, hx.data(), n * 4), "write x");
    check(q.enqueue_write_buffer(by, hy.data(), n * 4), "write y");
    std::vector<sim::KernelArg> args = {
        sim::KernelArg::ptr(bx.addr), sim::KernelArg::ptr(by.addr),
        sim::KernelArg::f32(a), sim::KernelArg::s32(n)};
    ocl::Event ev;
    check(q.enqueue_nd_range(prog.kernel(), {n, 1, 1}, {256, 1, 1}, args, &ev),
          "enqueue saxpy");
    check(q.enqueue_read_buffer(ocl_result.data(), by, n * 4), "read y");
    ocl_seconds = q.totals().kernel_s;
    std::printf("OpenCL profiling: queued->start %.1f us, start->end %.1f us\n",
                ev.queued_to_start_s * 1e6, ev.start_to_end_s * 1e6);
  }

  // ---- Compare ----
  // The OpenCL front end contracts a*x+y into a fused fma while CUDA's mad
  // rounds the product first, so the two results differ in the last ulp —
  // exactly the kind of step-5 compiler difference the paper catalogues.
  int mismatches = 0;
  for (int i = 0; i < n; ++i) {
    const float want = a * hx[i] + 1.0f;
    const float tol = 2e-7f * std::fabs(want);
    if (std::fabs(cuda_result[i] - want) > tol) ++mismatches;
    if (std::fabs(ocl_result[i] - want) > tol) ++mismatches;
  }
  std::printf("saxpy over %d elements on a simulated GTX480\n", n);
  std::printf("  CUDA   kernel time: %8.1f us\n", cuda_seconds * 1e6);
  std::printf("  OpenCL kernel time: %8.1f us\n", ocl_seconds * 1e6);
  std::printf("  PR (Perf_OpenCL / Perf_CUDA): %.3f\n",
              cuda_seconds / ocl_seconds);
  std::printf("  mismatches: %d\n", mismatches);
  return mismatches == 0 ? 0 : 1;
}
