#include "hw/chip_database.hpp"

#include <stdexcept>

namespace autogemm::hw {
namespace {

constexpr long KiB = 1024;
constexpr long MiB = 1024 * KiB;

// The Fig 3 / Section III-B worked-example machine: every instruction class
// has latency 8 and unit throughput, execution is strictly in-order. The
// analytic-model unit tests assert the paper's closed forms (e.g.
// 20*kc + 13*floor(kc_vec) + 65 cycles for the 5x16 tile) on this model.
HardwareModel reference_model() {
  HardwareModel m;
  m.name = "Reference";
  m.lat_fma = m.lat_load = m.lat_store = 8.0;
  m.cpi_fma = m.cpi_load = m.cpi_store = 1.0;
  m.lanes = 4;
  m.sigma_ai = 6.0;
  m.lat_int = 1.0;
  m.cpi_int = 1.0;
  m.ooo_window = 1;
  m.issue_width = 2;  // one memory/fma op plus loop control per cycle
  m.caches = {{64 * KiB, 64, 0, false}};  // loads cost only lat_load
  m.dram_latency_cycles = 0;
  m.freq_ghz = 1.0;
  m.topology = {1, 1, 0.0, 0.0};
  return m;
}

// Huawei Kunpeng 920 (TSV110 cores). High sigma_AI chip in the paper's
// taxonomy: a small scheduling window makes it sensitive to pipeline
// arrangement (rotating register allocation helps ~3%, Fig 6), and L2
// accesses are expensive (the K=256 cliff in Fig 6).
HardwareModel kp920_model() {
  HardwareModel m;
  m.name = "KP920";
  m.lat_fma = 4.0;
  m.lat_load = 4.0;
  m.lat_store = 2.0;
  m.cpi_fma = 0.5;   // 2x128-bit FMA pipes
  m.cpi_load = 0.5;  // 2 load ports
  m.cpi_store = 1.0;
  m.lanes = 4;  // NEON
  m.sigma_ai = 6.5;
  m.ooo_window = 40;
  m.caches = {{64 * KiB, 64, 4, false},
              {512 * KiB, 64, 20, false},
              {32 * MiB, 64, 50, true}};
  m.dram_latency_cycles = 180;
  m.freq_ghz = 2.6;
  m.topology = {8, 8, 0.0029, 0.0};
  m.dram_bw_gbs = 60.0;
  m.l3_bw_gbs = 240.0;
  return m;
}

// AWS Graviton2 (Neoverse N1). Low sigma_AI: a wide out-of-order window
// hides most scheduling imperfections, so rotating register allocation is
// performance-neutral (Fig 6) and low-AI edge tiles are cheap (Fig 7).
HardwareModel graviton2_model() {
  HardwareModel m;
  m.name = "Graviton2";
  m.lat_fma = 4.0;
  m.lat_load = 4.0;
  m.lat_store = 2.0;
  m.cpi_fma = 0.5;
  m.cpi_load = 0.5;
  m.cpi_store = 1.0;
  m.lanes = 4;
  m.sigma_ai = 4.5;
  m.ooo_window = 128;
  m.caches = {{64 * KiB, 64, 4, false},
              {1 * MiB, 64, 11, false},
              {32 * MiB, 64, 32, true}};
  m.dram_latency_cycles = 160;
  m.freq_ghz = 2.5;
  m.topology = {16, 16, 0.00122, 0.0};
  m.dram_bw_gbs = 150.0;
  m.l3_bw_gbs = 500.0;
  return m;
}

// Ampere Altra (Neoverse N1, dual-socket NUMA in the paper's testbed).
HardwareModel altra_model() {
  HardwareModel m;
  m.name = "Altra";
  m.lat_fma = 4.0;
  m.lat_load = 4.0;
  m.lat_store = 2.0;
  m.cpi_fma = 0.5;
  m.cpi_load = 0.5;
  m.cpi_store = 1.0;
  m.lanes = 4;
  m.sigma_ai = 4.8;
  m.ooo_window = 128;
  m.caches = {{64 * KiB, 64, 4, false},
              {1 * MiB, 64, 11, false},
              {32 * MiB, 64, 35, true}};
  m.dram_latency_cycles = 170;
  m.freq_ghz = 3.0;
  m.topology = {70, 35, 0.00148, 0.1};  // 2 NUMA sockets
  m.dram_bw_gbs = 200.0;
  m.l3_bw_gbs = 600.0;
  return m;
}

// Apple M2 (performance cores). Four 128-bit FP pipes and a very deep
// reorder window; the lowest sigma_AI of the evaluated chips.
HardwareModel m2_model() {
  HardwareModel m;
  m.name = "M2";
  m.lat_fma = 4.0;
  m.lat_load = 3.0;
  m.lat_store = 2.0;
  m.cpi_fma = 0.25;  // 4 FP pipes
  m.cpi_load = 0.33;
  m.cpi_store = 0.5;
  m.lanes = 4;
  m.sigma_ai = 4.0;
  m.ooo_window = 600;
  m.issue_width = 8;
  m.caches = {{128 * KiB, 64, 3, false}, {16 * MiB, 64, 15, true}};
  m.dram_latency_cycles = 110;
  m.freq_ghz = 3.49;
  m.topology = {4, 4, 0.0232, 0.0};
  m.dram_bw_gbs = 100.0;
  m.l3_bw_gbs = 100.0;  // no L3: the SLC/L2 doubles as the cache ceiling
  return m;
}

// Fujitsu A64FX (SVE-512). Long latencies, no L3, 4 CMGs on a ring bus —
// the paper reports weak multi-CMG scaling (30.3% parallel efficiency).
HardwareModel a64fx_model() {
  HardwareModel m;
  m.name = "A64FX";
  m.lat_fma = 9.0;
  m.lat_load = 8.0;
  m.lat_store = 4.0;
  m.cpi_fma = 0.5;  // 2 SVE-512 pipes
  m.cpi_load = 0.5;
  m.cpi_store = 1.0;
  m.lanes = 16;  // 512-bit SVE
  m.sigma_ai = 7.5;
  m.ooo_window = 32;
  m.caches = {{64 * KiB, 256, 5, false}, {8 * MiB, 256, 37, true}};
  m.dram_latency_cycles = 260;
  m.freq_ghz = 2.2;
  m.topology = {48, 12, 0.01, 0.61};  // 4 CMGs; calibrated to Fig 11
  m.dram_bw_gbs = 1024.0;  // HBM2
  m.l3_bw_gbs = 1024.0;
  return m;
}

// AWS Graviton3 (Neoverse V1). SVE-256: sigma_lane = 8, per the paper's
// remark that "n_r and k_c should be a multiple of sigma_lane, which is
// ... 16 for SVE-supporting architectures like A64FX and Graviton3" —
// Graviton3's vectors are 256-bit, so the fp32 lane count is 8. Not part
// of the Table IV testbed; included to exercise the lane-width
// generality of the generator and DMT.
HardwareModel graviton3_model() {
  HardwareModel m;
  m.name = "Graviton3";
  m.lat_fma = 4.0;
  m.lat_load = 4.0;
  m.lat_store = 2.0;
  m.cpi_fma = 0.5;  // 2x256-bit FMA pipes
  m.cpi_load = 0.5;
  m.cpi_store = 1.0;
  m.lanes = 8;  // SVE-256
  m.sigma_ai = 4.5;
  m.ooo_window = 256;
  m.issue_width = 8;
  m.caches = {{64 * KiB, 64, 4, false},
              {1 * MiB, 64, 11, false},
              {32 * MiB, 64, 32, true}};
  m.dram_latency_cycles = 150;
  m.freq_ghz = 2.6;
  m.topology = {64, 64, 0.0012, 0.0};
  m.dram_bw_gbs = 300.0;
  m.l3_bw_gbs = 800.0;
  return m;
}

}  // namespace

HardwareModel chip_model(Chip chip) {
  switch (chip) {
    case Chip::kReference: return reference_model();
    case Chip::kKP920: return kp920_model();
    case Chip::kGraviton2: return graviton2_model();
    case Chip::kAltra: return altra_model();
    case Chip::kM2: return m2_model();
    case Chip::kA64FX: return a64fx_model();
    case Chip::kGraviton3: return graviton3_model();
  }
  throw std::invalid_argument("unknown chip");
}

HardwareModel host_model(int lanes, int vector_registers) {
  HardwareModel m;
  m.name = "host";
  m.lat_fma = 4.0;
  m.lat_load = 5.0;
  m.lat_store = 2.0;
  m.cpi_fma = 0.5;
  m.cpi_load = 0.5;
  m.cpi_store = 1.0;
  m.lanes = lanes;
  // DMT sized for more registers than the tier has picks tiles that spill
  // (measured 4x slowdowns); the budget is the one hardware fact the host
  // plan must respect.
  m.vector_registers = vector_registers;
  m.sigma_ai = 4.5;
  m.ooo_window = 128;
  m.caches = {{32 * KiB, 64, 4, false},
              {256 * KiB, 64, 12, false},
              {8 * MiB, 64, 40, true}};
  m.freq_ghz = 2.5;
  m.topology = {1, 1, 0.0, 0.0};
  return m;
}

std::vector<Chip> evaluated_chips() {
  return {Chip::kKP920, Chip::kGraviton2, Chip::kAltra, Chip::kM2,
          Chip::kA64FX};
}

const char* chip_name(Chip chip) {
  switch (chip) {
    case Chip::kReference: return "Reference";
    case Chip::kKP920: return "KP920";
    case Chip::kGraviton2: return "Graviton2";
    case Chip::kAltra: return "Altra";
    case Chip::kM2: return "M2";
    case Chip::kA64FX: return "A64FX";
    case Chip::kGraviton3: return "Graviton3";
  }
  return "?";
}

}  // namespace autogemm::hw
