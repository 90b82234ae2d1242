// Sparse matrix-vector multiplication, CSR format (SHOC "SPMV", Table II).
// Two kernels: the scalar thread-per-row version and the vector
// (warp-per-row) version with a shared-memory partial reduction. The source
// vector x is read through texture unit 0 under CUDA (Fig. 4/5); §V's CPU
// study shows the warp-oriented kernel collapsing on the Intel920.
#include <vector>

#include "bench_kernels/common.h"
#include "bench_kernels/kernels.h"
#include "bench_kernels/registry.h"

namespace gpc::bench {

using kernel::KernelBuilder;
using kernel::KernelDef;
using kernel::Unroll;
using kernel::Val;
using kernel::Var;

namespace kernels {

KernelDef spmv_scalar() {
  KernelBuilder kb("spmv_csr_scalar");
  auto rowptr = kb.ptr_param("rowptr", ir::Type::S32);
  auto cols = kb.ptr_param("cols", ir::Type::S32);
  auto vals = kb.ptr_param("vals", ir::Type::F32);
  auto x = kb.ptr_param("x", ir::Type::F32);
  auto y = kb.ptr_param("y", ir::Type::F32);
  Val n = kb.s32_param("n");
  auto xt = kb.texture("xTex", ir::Type::F32);

  Val row = kb.global_id_x();
  kb.if_(row < n, [&] {
    Var sum = kb.var_f32("sum");
    kb.set(sum, kb.cf(0.0));
    Var j = kb.var_s32("j");
    kb.for_(j, kb.ld(rowptr, row), kb.ld(rowptr, row + 1), kb.c32(1),
            Unroll::none(), [&] {
              kb.set(sum, Val(sum) + kb.ld(vals, Val(j)) *
                                         kb.tex1d(xt, x, kb.ld(cols, Val(j))));
            });
    kb.st(y, row, sum);
  });
  return kb.finish();
}

KernelDef spmv_vector(int block) {
  const int warp = 32;  // the CUDA source bakes in its warp size
  KernelBuilder kb("spmv_csr_vector");
  auto rowptr = kb.ptr_param("rowptr", ir::Type::S32);
  auto cols = kb.ptr_param("cols", ir::Type::S32);
  auto vals = kb.ptr_param("vals", ir::Type::F32);
  auto x = kb.ptr_param("x", ir::Type::F32);
  auto y = kb.ptr_param("y", ir::Type::F32);
  Val n = kb.s32_param("n");
  auto xt = kb.texture("xTex", ir::Type::F32);
  auto part = kb.shared_array("partials", ir::Type::F32, block);

  Val tid = kb.tid_x();
  Val lane = tid & (warp - 1);
  Val wid = tid >> 5;
  Val row = kb.ctaid_x() * (block / warp) + wid;

  Var sum = kb.var_f32("sum");
  kb.set(sum, kb.cf(0.0));
  Var j = kb.var_s32("j");
  Var row_end = kb.var_s32("row_end");
  kb.if_(row < n, [&] {
    kb.set(j, kb.ld(rowptr, row) + lane);
    kb.set(row_end, kb.ld(rowptr, row + 1));
    kb.while_(Val(j) < Val(row_end), [&] {
      kb.set(sum, Val(sum) + kb.ld(vals, Val(j)) *
                                 kb.tex1d(xt, x, kb.ld(cols, Val(j))));
      kb.set(j, Val(j) + warp);
    });
  });
  kb.sts(part, tid, sum);
  kb.barrier();
  // Tree reduction within each 32-lane segment (barriers keep it portable —
  // the slowness on CPUs comes from the barrier-serialised schedule itself).
  for (int s = warp / 2; s > 0; s >>= 1) {
    kb.if_(lane < s, [&] {
      kb.sts(part, tid, kb.lds(part, tid) + kb.lds(part, tid + s));
    });
    kb.barrier();
  }
  kb.if_((lane == 0) & (row < n),
         [&] { kb.st(y, row, kb.lds(part, tid)); });
  return kb.finish();
}

}  // namespace kernels

namespace {

struct Csr {
  std::vector<std::int32_t> rowptr, cols;
  std::vector<float> vals, x;
  int n = 0;
  int nnz() const { return static_cast<int>(cols.size()); }
};

Csr make_csr(int n, int nnz_per_row) {
  Csr m;
  m.n = n;
  m.rowptr.resize(n + 1);
  Rng rng(37);
  for (int i = 0; i < n; ++i) {
    m.rowptr[i] = static_cast<std::int32_t>(m.cols.size());
    // Banded sparsity (±2048 columns): the x gathers scatter one lane per
    // DRAM segment without the texture cache.
    for (int e = 0; e < nnz_per_row; ++e) {
      int c = i + static_cast<int>(rng.next_below(4096)) - 2048;
      m.cols.push_back(std::clamp(c, 0, n - 1));
      m.vals.push_back(rng.next_float(-1.0f, 1.0f));
    }
  }
  m.rowptr[n] = static_cast<std::int32_t>(m.cols.size());
  m.x.resize(n);
  for (float& v : m.x) v = rng.next_float(-1.0f, 1.0f);
  return m;
}

class SpmvBenchmark final : public BenchmarkBase {
 public:
  std::string name() const override { return "SPMV"; }
  std::string suite() const override { return "SHOC"; }
  std::string dwarf() const override { return "Sparse Linear Algebra"; }
  std::string description() const override {
    return "Multiplication of sparse matrix and vector (CSR)";
  }
  Metric metric() const override { return Metric::GFlops; }

 protected:
  void run_impl(harness::DeviceSession& s, const Options& opts,
                Result* r) const override {
    const int block = 128;
    int n = static_cast<int>(8192 * opts.scale);
    n = std::max(block, n / block * block);
    const Csr m = make_csr(n, 32);

    const auto d_rowptr = s.upload<std::int32_t>(m.rowptr);
    const auto d_cols = s.upload<std::int32_t>(m.cols);
    const auto d_vals = s.upload<float>(m.vals);
    const auto d_x = s.upload<float>(m.x);
    const auto d_y = s.alloc(static_cast<std::size_t>(n) * 4);

    // The "warp-oriented" kernel is the GPU default; serialising runtimes
    // default to the scalar kernel, matching how the paper reports Table VI
    // (and its §V experiment flips this).
    const bool vector = opts.spmv_force_vector ||
                        (opts.spmv_vector && s.device().warp_size >= 32);

    compiler::CompileOptions copts;
    copts.enable_textures = opts.use_texture;
    auto ck = s.compile(
        vector ? kernels::spmv_vector(block) : kernels::spmv_scalar(), copts);
    s.bind_texture(0, d_x, static_cast<std::size_t>(n) * 4, ir::Type::F32);

    std::vector<sim::KernelArg> args = {
        sim::KernelArg::ptr(d_rowptr), sim::KernelArg::ptr(d_cols),
        sim::KernelArg::ptr(d_vals), sim::KernelArg::ptr(d_x),
        sim::KernelArg::ptr(d_y), sim::KernelArg::s32(n)};
    const int rows_per_block = vector ? block / 32 : block;
    const int grid = (n + rows_per_block - 1) / rows_per_block;
    auto lr = s.launch(ck, {grid, 1, 1}, {block, 1, 1}, args);
    r->stats = lr.stats.total;

    std::vector<float> got(n);
    s.download<float>(d_y, got);
    std::vector<float> want(n, 0.0f);
    for (int i = 0; i < n; ++i) {
      float sum = 0;
      for (int j = m.rowptr[i]; j < m.rowptr[i + 1]; ++j) {
        sum += m.vals[j] * m.x[m.cols[j]];
      }
      want[i] = sum;
    }
    // The warp reduction reorders the summation; tolerance absorbs it.
    r->correct = nearly_equal(got, want, 1e-3f, 1e-3f);
    r->value = 2.0 * m.nnz() / s.totals().kernel_s / 1e9;
  }
};

}  // namespace

const Benchmark* make_spmv_benchmark() {
  static const SpmvBenchmark b;
  return &b;
}

}  // namespace gpc::bench
