// Hardware model: the per-chip parameters of Table III (hardware half) and
// Table IV of the paper.
//
// The paper measures these on real silicon; this reproduction carries them
// as a parameter set consumed by the pipeline simulator, the analytic
// performance model, and the roofline model. Values for the five evaluated
// chips are estimates assembled from the paper's text plus public
// micro-architecture documentation; EXPERIMENTS.md discusses sensitivity.
#pragma once

#include <string>
#include <vector>

namespace autogemm::hw {

/// Memory hierarchy level parameters. Sizes are per-sharing-domain.
struct CacheLevel {
  long size_bytes = 0;
  int line_bytes = 64;
  int latency_cycles = 4;  ///< load-to-use latency when hitting this level
  bool shared = false;     ///< shared across cores (affects blocking choices)
};

/// Thread-scaling topology (Figs 9/11): cores grouped into NUMA/CMG domains
/// with a penalty once a job spans more than one domain.
struct Topology {
  int cores = 1;
  int cores_per_group = 1;           ///< e.g. one A64FX CMG = 12 cores
  double sync_overhead_frac = 0.0;   ///< per-extra-thread serial fraction
  double cross_group_penalty = 0.0;  ///< extra serial fraction per extra group
};

/// Complete chip description.
struct HardwareModel {
  std::string name;

  // --- Table III hardware parameters -------------------------------------
  // The paper writes IPC_[fma/load/store] but uses the value as a per-
  // instruction cycle cost multiplier; we store it as reciprocal throughput
  // in cycles-per-instruction (cpi) and keep latency (L_*) separate.
  double lat_fma = 8.0;
  double lat_load = 8.0;
  double lat_store = 8.0;
  double cpi_fma = 1.0;
  double cpi_load = 1.0;
  double cpi_store = 1.0;
  int lanes = 4;          ///< sigma_lane: fp32 elements per vector register
  int vector_registers = 32;  ///< architectural SIMD register count
  double sigma_ai = 6.0;  ///< threshold AI to reach peak (micro-benchmarked)

  /// Integer ALU ops (pointer arithmetic, loop control); cheap everywhere.
  double lat_int = 1.0;
  double cpi_int = 0.5;

  // --- Micro-architecture -------------------------------------------------
  /// Scheduler lookahead of the pipeline simulator. 1 = strictly in-order;
  /// larger windows let independent younger instructions bypass a stalled
  /// one, which is how the paper explains rotating-register allocation
  /// mattering on KP920 but not on Graviton2/M2.
  int ooo_window = 1;
  /// Front-end: instructions that can enter execution per cycle.
  int issue_width = 4;

  // --- Memory hierarchy (Table IV) ----------------------------------------
  std::vector<CacheLevel> caches;   ///< L1d first; empty = flat memory
  int dram_latency_cycles = 150;

  // --- Whole-chip characteristics ------------------------------------------
  double freq_ghz = 2.5;
  Topology topology;
  double dram_bw_gbs = 100.0;  ///< roofline memory ceiling
  double l3_bw_gbs = 400.0;    ///< roofline last-level-cache ceiling

  /// Peak fp32 GFLOPS of one core: freq * (fma issue/cycle) * lanes * 2.
  double peak_gflops_core() const {
    return freq_ghz * (1.0 / cpi_fma) * lanes * 2.0;
  }
  /// Peak fp32 GFLOPS of the full chip.
  double peak_gflops_chip() const {
    return peak_gflops_core() * topology.cores;
  }
  /// Load-to-use latency for a given hierarchy level index (0=L1). Indices
  /// past the last level return DRAM latency.
  int level_latency(int level) const {
    if (level < static_cast<int>(caches.size()))
      return caches[level].latency_cycles;
    return dram_latency_cycles;
  }

  /// Parallel speedup predicted by the topology model for `threads` threads
  /// (Amdahl-style with per-thread sync overhead and cross-group penalty).
  double scaling_speedup(int threads) const;
};

}  // namespace autogemm::hw
