// Device models for the five platforms of the paper (Tables III & IV):
// NVIDIA GTX280 (GT200), NVIDIA GTX480 (Fermi), ATI Radeon HD5870 (Cypress),
// Intel Core i7-920 (X86, used as an OpenCL CPU device through AMD APP), and
// the Cell Broadband Engine (IBM OpenCL).
//
// A DeviceSpec carries three kinds of data:
//   1. the specification values the paper prints in Table IV,
//   2. microarchitectural parameters the simulator needs (lockstep width,
//      cache topology, coalescing granularity, bank count, resource limits),
//   3. calibration constants mapping theoretical to achieved peak rates.
//      These are the only "fitted" numbers in the reproduction; everything
//      else (who wins, crossovers, failures) emerges from simulation. Each
//      constant is documented next to its value in devices.cpp.
#pragma once

#include <string>

namespace gpc::arch {

enum class Vendor { Nvidia, Amd, Ibm, Intel };
enum class ArchFamily { GT200, Fermi, Cypress, X86, CellBE };

/// Which toolchain produced and launches the kernel. The paper's entire
/// subject is the behavioural difference between these two.
enum class Toolchain { Cuda, OpenCl };

const char* to_string(Vendor v);
const char* to_string(ArchFamily f);
const char* to_string(Toolchain t);

struct DeviceSpec {
  std::string name;        // marketing name, e.g. "GeForce GTX 480"
  std::string short_name;  // paper name, e.g. "GTX480"
  Vendor vendor = Vendor::Nvidia;
  ArchFamily family = ArchFamily::Fermi;

  // ---- Table IV values (printed verbatim by bench/table03_platforms) ----
  int compute_units_paper = 0;  // "#Compute Unit" as the paper counts it
  int cores = 0;                // "#Cores"
  int processing_elements = 0;  // "#Processing Elements" (ATI only, else 0)
  double core_clock_mhz = 0;    // shader clock
  double mem_clock_mhz = 0;     // "Memory Clock(MHz)" as listed in Table IV
  int miw_bits = 0;             // memory interface width
  double mem_capacity_gb = 0;
  std::string mem_type;         // "GDDR5", ...

  // ---- Execution model ----
  int sm_count = 0;           // simulated compute units
  int cores_per_sm = 0;       // scalar lanes issuing per cycle per CU
  int warp_size = 32;         // hardware lockstep width; 1 = work-items are
                              // serialized to the next barrier (CPU runtimes)
  int max_threads_per_sm = 1024;
  int max_threads_per_group = 512;
  int max_groups_per_sm = 8;
  int shared_mem_per_sm = 16 << 10;   // bytes
  int regs_per_sm = 16 << 10;         // 32-bit registers
  int max_regs_per_thread = 128;      // compiler/runtime per-thread cap
  int max_code_bytes = 0;             // kernel code-size cap (0 = none);
                                      // Cell/BE SPE code shares the 256 KB
                                      // local store with data
  bool private_mem_in_local_store = false;  // Cell/BE: per-work-item private
                                            // arrays also consume the local
                                            // store budget

  // ---- Memory system ----
  double mem_transfers_per_clock = 2;  // Eq. 2 uses 2 (DDR); HD5870 GDDR5 is
                                       // quad-pumped relative to its listed
                                       // 1200 MHz command clock
  bool has_l1 = false;      // Fermi-only among the GPUs
  bool has_l2 = false;
  int l1_bytes = 0;
  int l2_bytes = 0;
  bool has_texture_cache = false;
  int tex_cache_bytes = 0;
  bool has_constant_cache = false;
  int const_cache_bytes = 0;
  int dram_segment_bytes = 64;  // coalescing transaction granularity
  int shared_banks = 16;
  int icache_bytes = 4 << 10;  // per-SM instruction cache; kernels whose
                               // body exceeds it pay an issue penalty
  double dram_latency_cycles = 440;  // exposed when occupancy is too low

  // ---- Compute issue ----
  bool dual_issue_mul_mad = false;  // GT200: mul+mad co-issue (R = 3)
  int flops_per_core_per_clock = 2; // R in Eq. 3
  double sfu_cost_scale = 4.0;      // transcendental ops vs simple ALU ops

  // ---- Calibration constants (achieved/theoretical, see devices.cpp) ----
  double dram_eff_cuda = 0.80;    // perfect-stream efficiency under CUDA
  double dram_eff_opencl = 0.80;  // ... under OpenCL
  double flop_eff_cuda = 0.95;
  double flop_eff_opencl = 0.95;

  // ---- Host link ----
  double pcie_gb_per_s = 5.2;

  // Derived, Eq. 2 of the paper: TP_BW = MC * (MIW/8) * transfers * 1e-9.
  double theoretical_bandwidth_gbs() const {
    return mem_clock_mhz * 1e6 * (miw_bits / 8.0) * mem_transfers_per_clock *
           1e-9;
  }

  // Derived, Eq. 3 of the paper: TP_FLOPS = CC * #Cores * R * 1e-9.
  double theoretical_gflops() const {
    return core_clock_mhz * 1e6 * cores * flops_per_core_per_clock * 1e-9;
  }

  double dram_efficiency(Toolchain tc) const {
    return tc == Toolchain::Cuda ? dram_eff_cuda : dram_eff_opencl;
  }
  double flop_efficiency(Toolchain tc) const {
    return tc == Toolchain::Cuda ? flop_eff_cuda : flop_eff_opencl;
  }

  bool is_cpu_like() const { return family == ArchFamily::X86; }
  bool is_gpu() const {
    return family == ArchFamily::GT200 || family == ArchFamily::Fermi ||
           family == ArchFamily::Cypress;
  }
};

/// Per-toolchain runtime behaviour that is independent of the device.
struct RuntimeSpec {
  Toolchain toolchain = Toolchain::Cuda;
  // Time from enqueue to kernel start. The paper (§IV-B.4) observes that the
  // OpenCL launch path is slower than CUDA's and that this dominates
  // iterative multi-launch applications like BFS. Values follow Karimi et
  // al. [18]-style measurements (order of magnitude).
  double launch_overhead_us = 7.0;
  // Additional per-launch cost proportional to grid size (driver builds the
  // dispatch descriptor); tiny but measurable.
  double launch_overhead_us_per_1k_groups = 0.25;
  // Fixed cost of one host<->device copy on top of the PCIe transfer time
  // (driver call + DMA setup), in seconds.
  double transfer_overhead_s = 8e-6;
};

RuntimeSpec cuda_runtime();
RuntimeSpec opencl_runtime();

// The five devices of the paper. References are to static storage.
const DeviceSpec& gtx280();
const DeviceSpec& gtx480();
const DeviceSpec& hd5870();
const DeviceSpec& intel920();
const DeviceSpec& cellbe();

/// Looks a device up by its paper short name ("GTX280", ...); throws
/// InvalidArgument for unknown names.
const DeviceSpec& device_by_name(const std::string& short_name);

/// Host platform descriptions (paper Table III).
struct PlatformConfig {
  std::string platform_name;  // "Saturn", "Dutijc", "Jupiter"
  std::string host_cpu;
  std::string gpu_short_name;
  std::string gcc_version;
  std::string cuda_version;  // "-" when not applicable
  std::string app_version;   // "-" when not applicable
};

/// The three testbeds of Table III, in paper order (Saturn, Dutijc, Jupiter).
const PlatformConfig* platforms(int* count);

}  // namespace gpc::arch
