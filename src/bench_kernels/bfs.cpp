// Breadth-first search, Rodinia style (Table II): one kernel expands the
// current frontier, a second folds the updating mask back into the frontier.
// The host relaunches the pair once per BFS level and polls a stop flag, so
// kernel-launch latency — where CUDA and OpenCL runtimes differ (§IV-B.4) —
// is a first-order term of the total time.
#include <queue>
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

KernelDef bfs_expand() {
  KernelBuilder kb("bfs_expand");
  auto rowptr = kb.ptr_param("rowptr", ir::Type::S32);
  auto cols = kb.ptr_param("cols", ir::Type::S32);
  auto frontier = kb.ptr_param("frontier", ir::Type::S32);
  auto updating = kb.ptr_param("updating", ir::Type::S32);
  auto visited = kb.ptr_param("visited", ir::Type::S32);
  auto cost = kb.ptr_param("cost", ir::Type::S32);
  Val n = kb.s32_param("n");

  Val tid = kb.global_id_x();
  kb.if_(tid < n, [&] {
    kb.if_(kb.ld(frontier, tid) != 0, [&] {
      kb.st(frontier, tid, kb.c32(0));
      Var e = kb.var_s32("e");
      Var j = kb.var_s32("j");
      kb.for_(e, kb.ld(rowptr, tid), kb.ld(rowptr, tid + 1), kb.c32(1),
              Unroll::none(), [&] {
                kb.set(j, kb.ld(cols, Val(e)));
                kb.if_(kb.ld(visited, Val(j)) == 0, [&] {
                  // Benign races: every writer stores the same level value.
                  kb.st(cost, Val(j), kb.ld(cost, tid) + 1);
                  kb.st(updating, Val(j), kb.c32(1));
                });
              });
    });
  });
  return kb.finish();
}

KernelDef bfs_update() {
  KernelBuilder kb("bfs_update");
  auto frontier = kb.ptr_param("frontier", ir::Type::S32);
  auto updating = kb.ptr_param("updating", ir::Type::S32);
  auto visited = kb.ptr_param("visited", ir::Type::S32);
  auto stop = kb.ptr_param("stop", ir::Type::S32);
  Val n = kb.s32_param("n");

  Val tid = kb.global_id_x();
  kb.if_(tid < n, [&] {
    kb.if_(kb.ld(updating, tid) != 0, [&] {
      kb.st(frontier, tid, kb.c32(1));
      kb.st(visited, tid, kb.c32(1));
      kb.st(updating, tid, kb.c32(0));
      kb.st(stop, kb.c32(0), kb.c32(1));  // same value from all writers
    });
  });
  return kb.finish();
}

}  // namespace kernels

namespace {

struct Graph {
  std::vector<std::int32_t> rowptr, cols;
  int n = 0;
};

Graph make_graph(int n, int degree) {
  Graph g;
  g.n = n;
  g.rowptr.resize(n + 1);
  Rng rng(41);
  for (int i = 0; i < n; ++i) {
    g.rowptr[i] = static_cast<std::int32_t>(g.cols.size());
    for (int e = 0; e < degree; ++e) {
      g.cols.push_back(static_cast<std::int32_t>(rng.next_below(n)));
    }
  }
  g.rowptr[n] = static_cast<std::int32_t>(g.cols.size());
  return g;
}

std::vector<std::int32_t> bfs_reference(const Graph& g, int src) {
  std::vector<std::int32_t> cost(g.n, -1);
  std::queue<int> q;
  cost[src] = 0;
  q.push(src);
  while (!q.empty()) {
    const int u = q.front();
    q.pop();
    for (int e = g.rowptr[u]; e < g.rowptr[u + 1]; ++e) {
      const int v = g.cols[e];
      if (cost[v] < 0) {
        cost[v] = cost[u] + 1;
        q.push(v);
      }
    }
  }
  return cost;
}

class BfsBenchmark final : public BenchmarkBase {
 public:
  std::string name() const override { return "BFS"; }
  std::string suite() const override { return "Rodinia"; }
  std::string dwarf() const override { return "Graph Traversal"; }
  std::string description() const override {
    return "Graph breadth first search";
  }
  Metric metric() const override { return Metric::Seconds; }

 protected:
  void run_impl(harness::DeviceSession& s, const Options& opts,
                Result* r) const override {
    const int block = opts.workgroup > 0 ? opts.workgroup : 256;
    int n = static_cast<int>(32768 * opts.scale);
    n = std::max(block, n / block * block);
    const Graph g = make_graph(n, 8);
    const int src = 0;

    const auto d_rowptr = s.upload<std::int32_t>(g.rowptr);
    const auto d_cols = s.upload<std::int32_t>(g.cols);
    std::vector<std::int32_t> zeros(n, 0), minus1(n, -1);
    std::vector<std::int32_t> init_frontier(n, 0), init_visited(n, 0);
    std::vector<std::int32_t> init_cost(n, -1);
    init_frontier[src] = 1;
    init_visited[src] = 1;
    init_cost[src] = 0;
    const auto d_frontier = s.upload<std::int32_t>(init_frontier);
    const auto d_updating = s.upload<std::int32_t>(zeros);
    const auto d_visited = s.upload<std::int32_t>(init_visited);
    const auto d_cost = s.upload<std::int32_t>(init_cost);
    const auto d_stop = s.alloc(4);

    auto k1 = s.compile(kernels::bfs_expand());
    auto k2 = s.compile(kernels::bfs_update());

    const int grid = n / block;
    sim::BlockStats agg;
    std::int32_t stop = 1;
    int levels = 0;
    while (stop != 0 && levels < n) {
      stop = 0;
      s.write(d_stop, &stop, 4);
      std::vector<sim::KernelArg> a1 = {
          sim::KernelArg::ptr(d_rowptr), sim::KernelArg::ptr(d_cols),
          sim::KernelArg::ptr(d_frontier), sim::KernelArg::ptr(d_updating),
          sim::KernelArg::ptr(d_visited), sim::KernelArg::ptr(d_cost),
          sim::KernelArg::s32(n)};
      auto lr = s.launch(k1, {grid, 1, 1}, {block, 1, 1}, a1);
      agg.merge(lr.stats.total);
      std::vector<sim::KernelArg> a2 = {
          sim::KernelArg::ptr(d_frontier), sim::KernelArg::ptr(d_updating),
          sim::KernelArg::ptr(d_visited), sim::KernelArg::ptr(d_stop),
          sim::KernelArg::s32(n)};
      auto lr2 = s.launch(k2, {grid, 1, 1}, {block, 1, 1}, a2);
      agg.merge(lr2.stats.total);
      s.read(&stop, d_stop, 4);
      ++levels;
    }
    r->stats = agg;

    std::vector<std::int32_t> got(n);
    s.download<std::int32_t>(d_cost, got);
    const auto want = bfs_reference(g, src);
    r->correct = got == want;
    r->value = s.totals().kernel_s;
  }
};

}  // namespace

const Benchmark* make_bfs_benchmark() {
  static const BfsBenchmark b;
  return &b;
}

}  // namespace gpc::bench
