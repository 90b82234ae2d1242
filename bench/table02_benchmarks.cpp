// Paper Table II: the selected benchmarks, from the live registry.
#include "bench_kernels/registry.h"
#include "bench_util.h"
#include "common/table.h"

int main(int argc, char** argv) {
  using namespace gpc;
  // No options of its own; rejects a misspelt GPC_* name and exits cleanly
  // on a library error like every other bench binary.
  (void)benchbin::parse_args(argc, argv);
  benchbin::heading("Table II — Selected benchmarks");
  TextTable t({"App.", "Suite", "Dwarf/Class", "Performance Metric",
               "Description"});
  for (const bench::Benchmark* b : bench::real_world_benchmarks()) {
    t.add_row({b->name(), b->suite(), b->dwarf(),
               bench::unit_name(b->metric()), b->description()});
  }
  std::printf("%s", t.to_string().c_str());

  std::printf("\nSynthetic applications (§III-B.1):\n");
  TextTable s({"App.", "Metric", "Description"});
  for (const bench::Benchmark* b :
       {&bench::devicememory_benchmark(), &bench::maxflops_benchmark()}) {
    s.add_row({b->name(), bench::unit_name(b->metric()), b->description()});
  }
  std::printf("%s", s.to_string().c_str());
  return 0;
}
