// Hardware model database sanity: the Table IV parameters and the derived
// quantities every other module consumes.
#include <gtest/gtest.h>

#include "backend/backend.hpp"
#include "core/plan.hpp"
#include "hw/chip_database.hpp"
#include "kernels/wide.hpp"

namespace autogemm::hw {
namespace {

TEST(ChipDatabase, FiveEvaluatedChips) {
  const auto chips = evaluated_chips();
  ASSERT_EQ(chips.size(), 5u);
  EXPECT_STREQ(chip_name(chips[0]), "KP920");
  EXPECT_STREQ(chip_name(chips[4]), "A64FX");
}

TEST(ChipDatabase, TableFourHeadlineSpecs) {
  EXPECT_EQ(chip_model(Chip::kKP920).topology.cores, 8);
  EXPECT_EQ(chip_model(Chip::kGraviton2).topology.cores, 16);
  EXPECT_EQ(chip_model(Chip::kAltra).topology.cores, 70);
  EXPECT_EQ(chip_model(Chip::kM2).topology.cores, 4);
  EXPECT_EQ(chip_model(Chip::kA64FX).topology.cores, 48);
  // SIMD widths: NEON everywhere except SVE-512 on A64FX.
  for (const auto chip : {Chip::kKP920, Chip::kGraviton2, Chip::kAltra,
                          Chip::kM2}) {
    EXPECT_EQ(chip_model(chip).lanes, 4) << chip_name(chip);
  }
  EXPECT_EQ(chip_model(Chip::kA64FX).lanes, 16);
  // Cache hierarchy depth: M2 and A64FX have no L3.
  EXPECT_EQ(chip_model(Chip::kKP920).caches.size(), 3u);
  EXPECT_EQ(chip_model(Chip::kM2).caches.size(), 2u);
  EXPECT_EQ(chip_model(Chip::kA64FX).caches.size(), 2u);
}

TEST(ChipDatabase, CacheLatenciesIncreaseWithLevel) {
  for (const auto chip : evaluated_chips()) {
    const auto hw = chip_model(chip);
    for (std::size_t i = 1; i < hw.caches.size(); ++i) {
      EXPECT_GT(hw.caches[i].latency_cycles, hw.caches[i - 1].latency_cycles)
          << hw.name;
      EXPECT_GT(hw.caches[i].size_bytes, hw.caches[i - 1].size_bytes)
          << hw.name;
    }
    EXPECT_GT(hw.dram_latency_cycles, hw.caches.back().latency_cycles)
        << hw.name;
  }
}

TEST(ChipDatabase, LevelLatencyFallsBackToDram) {
  const auto hw = chip_model(Chip::kM2);
  EXPECT_EQ(hw.level_latency(0), hw.caches[0].latency_cycles);
  EXPECT_EQ(hw.level_latency(99), hw.dram_latency_cycles);
}

TEST(ChipDatabase, ReferenceMachineMatchesFigThree) {
  const auto hw = chip_model(Chip::kReference);
  EXPECT_DOUBLE_EQ(hw.lat_fma, 8.0);
  EXPECT_DOUBLE_EQ(hw.lat_load, 8.0);
  EXPECT_DOUBLE_EQ(hw.cpi_fma, 1.0);
  EXPECT_EQ(hw.ooo_window, 1);  // strictly in-order
}

// The host model carries the SIMD width and register file of the tier that
// executes the plan. The 128-bit neon tier keeps the compiled width (4
// lanes; 16 xmm registers on x86-64, 32 on AArch64); the kAuto default
// plan is tiled for x86_wide's width when this CPU runs it and for neon's
// exactly when it does not or AUTOGEMM_BACKEND overrides it.
TEST(ChipDatabase, HostModelRespectsCompiledSimdWidth) {
  const auto hw = host_model(8, 16);
  EXPECT_EQ(hw.lanes, 8);
  EXPECT_EQ(hw.vector_registers, 16);
  EXPECT_FALSE(hw.caches.empty());

  using backend::BackendId;
  const backend::BackendCaps& neon =
      backend::get_backend(BackendId::kNeon).caps();
  EXPECT_EQ(neon.vl_default, 4);
#if defined(__aarch64__)
  EXPECT_EQ(neon.vector_registers, 32);
#else
  EXPECT_EQ(neon.vector_registers, 16);
#endif

  const BackendId resolved = backend::resolve_backend(BackendId::kAuto);
  const backend::BackendCaps& tier = backend::host_backend(resolved).caps();
  const GemmConfig cfg = default_config(64, 64, 64);
  EXPECT_EQ(cfg.backend, resolved);
  EXPECT_EQ(cfg.hw.lanes, tier.vl_default);
  EXPECT_EQ(cfg.hw.vector_registers, tier.vector_registers);
  const kernels::WideIsa isa = kernels::detect_wide_isa();
  if (tier.id == BackendId::kX86Wide) {
    EXPECT_EQ(cfg.hw.lanes, kernels::wide_lanes(isa));
    EXPECT_EQ(cfg.hw.vector_registers, kernels::wide_registers(isa));
  } else {
    EXPECT_EQ(cfg.hw.lanes, 4);
    EXPECT_EQ(cfg.hw.vector_registers, neon.vector_registers);
  }
}

TEST(ChipDatabase, PeakGflopsSanity) {
  // KP920: 2.6 GHz * 2 pipes * 4 lanes * 2 = 41.6 GFLOPS/core.
  EXPECT_NEAR(chip_model(Chip::kKP920).peak_gflops_core(), 41.6, 0.1);
  // A64FX chip peak ~ 6.76 TFLOPS fp32.
  EXPECT_NEAR(chip_model(Chip::kA64FX).peak_gflops_chip(), 6758.4, 1.0);
}

TEST(Scaling, SingleThreadIsUnity) {
  for (const auto chip : evaluated_chips())
    EXPECT_DOUBLE_EQ(chip_model(chip).scaling_speedup(1), 1.0);
}

TEST(Scaling, ClampsToCoreCount) {
  const auto hw = chip_model(Chip::kM2);
  EXPECT_DOUBLE_EQ(hw.scaling_speedup(100), hw.scaling_speedup(4));
}

TEST(Scaling, CrossGroupPenaltyKicksInPastOneGroup) {
  const auto hw = chip_model(Chip::kA64FX);  // 12 cores per CMG
  const double within = hw.scaling_speedup(12) / 12;
  const double across = hw.scaling_speedup(24) / 24;
  EXPECT_GT(within, across + 0.1);
}

}  // namespace
}  // namespace autogemm::hw
