// Paper Tables III & IV: platform configurations and GPU specifications,
// printed from the device models, plus the Eq. 2 / Eq. 3 theoretical peaks.
#include "arch/device_spec.h"
#include "bench_util.h"
#include "common/table.h"

int main(int argc, char** argv) {
  using namespace gpc;
  // No options of its own; rejects a misspelt GPC_* name and exits cleanly
  // on a library error like every other bench binary.
  (void)benchbin::parse_args(argc, argv);
  benchbin::heading("Table III — Details of underlying platforms");
  {
    int n = 0;
    const arch::PlatformConfig* p = arch::platforms(&n);
    TextTable t({"", "Saturn", "Dutijc", "Jupiter"});
    auto row = [&](const char* label, auto get) {
      std::vector<std::string> cells = {label};
      for (int i = 0; i < n; ++i) cells.push_back(get(p[i]));
      t.add_row(cells);
    };
    row("Host CPU", [](const auto& c) { return c.host_cpu; });
    row("Attached GPUs", [](const auto& c) { return c.gpu_short_name; });
    row("gcc version", [](const auto& c) { return c.gcc_version; });
    row("CUDA version", [](const auto& c) { return c.cuda_version; });
    row("APP version", [](const auto& c) { return c.app_version; });
    std::printf("%s", t.to_string().c_str());
  }

  benchbin::heading("Table IV — Specifications of GPUs");
  {
    const arch::DeviceSpec* gpus[] = {&arch::gtx480(), &arch::gtx280(),
                                      &arch::hd5870()};
    TextTable t({"", "GTX480", "GTX280", "HD5870"});
    auto row = [&](const char* label, auto get) {
      std::vector<std::string> cells = {label};
      for (const auto* g : gpus) cells.push_back(get(*g));
      t.add_row(cells);
    };
    row("Architecture",
        [](const auto& g) { return std::string(arch::to_string(g.family)); });
    row("#Compute Unit",
        [](const auto& g) { return std::to_string(g.compute_units_paper); });
    row("#Cores", [](const auto& g) { return std::to_string(g.cores); });
    row("#Processing Elements", [](const auto& g) {
      return g.processing_elements ? std::to_string(g.processing_elements)
                                   : std::string("-");
    });
    row("Core Clock(MHz)",
        [](const auto& g) { return benchbin::fmt(g.core_clock_mhz, 0); });
    row("Memory Clock(MHz)",
        [](const auto& g) { return benchbin::fmt(g.mem_clock_mhz, 0); });
    row("MIW(bits)", [](const auto& g) { return std::to_string(g.miw_bits); });
    row("Memory Capacity(GB)", [](const auto& g) {
      return g.mem_type + " " + benchbin::fmt(g.mem_capacity_gb, 1);
    });
    std::printf("%s", t.to_string().c_str());
  }

  benchbin::heading("Theoretical peaks (Eq. 2 and Eq. 3 of the paper)");
  {
    TextTable t({"Device", "TP_BW (GB/s)", "TP_FLOPS (GFlops/s)", "R"});
    for (const auto* g : {&arch::gtx280(), &arch::gtx480(), &arch::hd5870()}) {
      t.add_row({g->short_name,
                 benchbin::fmt(g->theoretical_bandwidth_gbs(), 1),
                 benchbin::fmt(g->theoretical_gflops(), 2),
                 std::to_string(g->flops_per_core_per_clock)});
    }
    std::printf("%s", t.to_string().c_str());
    std::printf(
        "\nPaper: TP_BW = 141.7 / 177.4 GB/s and TP_FLOPS = 933.12 / 1344.96\n"
        "GFlops/s for GTX280 / GTX480 (R = 3 on GT200 via mad+mul dual\n"
        "issue, R = 2 on Fermi).\n");
  }
  return 0;
}
