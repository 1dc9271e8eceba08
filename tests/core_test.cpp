// End-to-end host GEMM validation across plans, loop orders, packing modes,
// tiling strategies, and the threaded path.
#include <gtest/gtest.h>

#include <string>

#include "common/matrix.hpp"
#include "common/reference_gemm.hpp"
#include "common/rng.hpp"
#include "core/gemm.hpp"
#include "test_util.hpp"

namespace autogemm {
namespace {

using common::Matrix;

struct Problem {
  Matrix a, b, c, c_ref;
  int k_depth;
  Problem(int m, int n, int k)
      : a(m, k), b(k, n), c(m, n), c_ref(m, n), k_depth(k) {
    common::fill_random(a.view(), 1);
    common::fill_random(b.view(), 2);
    common::fill_random(c.view(), 3);
    for (int r = 0; r < m; ++r)
      for (int j = 0; j < n; ++j) c_ref.at(r, j) = c.at(r, j);
    common::reference_gemm(a.view(), b.view(), c_ref.view());
  }
  double error() const {
    return common::max_rel_error(c.view(), c_ref.view());
  }
};

TEST(Gemm, ConvenienceOverloadSmallSquare) {
  Problem p(64, 64, 64);
  ASSERT_TRUE(gemm(p.a.view(), p.b.view(), p.c.view()).ok());
  EXPECT_LT(p.error(), testutil::gemm_tolerance(p.k_depth));
}

TEST(Gemm, OverwriteZeroesFirst) {
  Matrix a(8, 8), b(8, 8), c(8, 8), c_ref(8, 8);
  common::fill_random(a.view(), 1);
  common::fill_random(b.view(), 2);
  common::fill_random(c.view(), 99);  // garbage that must be discarded
  common::reference_gemm(a.view(), b.view(), c_ref.view());
  ASSERT_TRUE(gemm_overwrite(a.view(), b.view(), c.view()).ok());
  EXPECT_LT(common::max_rel_error(c.view(), c_ref.view()),
            testutil::gemm_tolerance(8));
}

TEST(Gemm, ShapeMismatchThrows) {
  Matrix a(4, 4), b(5, 4), c(4, 4);
  Plan plan(4, 4, 4, default_config(4, 4, 4));
  EXPECT_THROW(gemm(a.view(), b.view(), c.view(), plan),
               std::invalid_argument);
}

// ---- parameterized sweep --------------------------------------------------

struct ConfigCase {
  int m, n, k;
  LoopOrder order;
  kernels::Packing packing;
  TilingMode tiling;
  const char* label;
};

class GemmConfigSweep : public ::testing::TestWithParam<ConfigCase> {};

TEST_P(GemmConfigSweep, MatchesReference) {
  const auto& c = GetParam();
  SCOPED_TRACE(c.label);
  Problem p(c.m, c.n, c.k);
  GemmConfig cfg = default_config(c.m, c.n, c.k);
  cfg.loop_order = c.order;
  cfg.packing = c.packing;
  cfg.tiling = c.tiling;
  cfg.mc = 24;  // small blocks so edge blocks and multi-block loops engage
  cfg.nc = 40;
  cfg.kc = 24;
  Plan plan(c.m, c.n, c.k, cfg);
  gemm(p.a.view(), p.b.view(), p.c.view(), plan);
  EXPECT_LT(p.error(), testutil::gemm_tolerance(p.k_depth));
}

INSTANTIATE_TEST_SUITE_P(
    Orders, GemmConfigSweep,
    ::testing::Values(
        ConfigCase{50, 70, 30, LoopOrder::kNKM, kernels::Packing::kOnline,
                   TilingMode::kDynamic, "nkm_online_dmt"},
        ConfigCase{50, 70, 30, LoopOrder::kNMK, kernels::Packing::kOnline,
                   TilingMode::kDynamic, "nmk_online_dmt"},
        ConfigCase{50, 70, 30, LoopOrder::kKNM, kernels::Packing::kNone,
                   TilingMode::kDynamic, "knm_none_dmt"},
        ConfigCase{50, 70, 30, LoopOrder::kKMN, kernels::Packing::kOnline,
                   TilingMode::kStaticOpenBLAS, "kmn_online_openblas"},
        ConfigCase{50, 70, 30, LoopOrder::kMNK, kernels::Packing::kNone,
                   TilingMode::kStaticLIBXSMM, "mnk_none_libxsmm"},
        ConfigCase{50, 70, 30, LoopOrder::kMKN, kernels::Packing::kOnline,
                   TilingMode::kDynamic, "mkn_online_dmt"}));

// Irregular shapes from the paper's taxonomy: tall-skinny, long-rectangle,
// tiny, single row/column, and prime dimensions.
struct ShapeCase {
  int m, n, k;
};

class GemmShapeSweep : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(GemmShapeSweep, MatchesReference) {
  const auto& s = GetParam();
  SCOPED_TRACE(std::to_string(s.m) + "x" + std::to_string(s.n) + "x" +
               std::to_string(s.k));
  Problem p(s.m, s.n, s.k);
  ASSERT_TRUE(gemm(p.a.view(), p.b.view(), p.c.view()).ok());
  EXPECT_LT(p.error(), testutil::gemm_tolerance(p.k_depth));
}

INSTANTIATE_TEST_SUITE_P(
    Irregular, GemmShapeSweep,
    ::testing::Values(ShapeCase{1, 1, 1}, ShapeCase{1, 128, 64},
                      ShapeCase{128, 1, 64}, ShapeCase{64, 64, 1},
                      ShapeCase{17, 19, 23}, ShapeCase{256, 48, 64},
                      ShapeCase{48, 256, 64}, ShapeCase{8, 8, 8},
                      ShapeCase{100, 100, 100}, ShapeCase{3, 300, 5},
                      ShapeCase{33, 65, 129}));

TEST(Gemm, ThreadedMatchesReference) {
  Problem p(96, 120, 48);
  GemmConfig cfg = default_config(96, 120, 48);
  cfg.mc = 24;
  cfg.nc = 32;
  cfg.kc = 16;
  Plan plan(96, 120, 48, cfg);
  common::ThreadPool pool(4);
  gemm(p.a.view(), p.b.view(), p.c.view(), plan, &pool);
  EXPECT_LT(p.error(), testutil::gemm_tolerance(p.k_depth));
}

TEST(Gemm, OfflinePackedBMatchesReference) {
  Problem p(40, 96, 56);
  GemmConfig cfg = default_config(40, 96, 56);
  cfg.mc = 16;
  cfg.nc = 32;
  cfg.kc = 24;
  cfg.packing = kernels::Packing::kOffline;
  Plan plan(40, 96, 56, cfg);
  PackedB packed(p.b.view(), plan);
  const detail::GroupMember m{p.a.view(), p.b.view(), p.c.view()};
  common::Workspace ws;
  detail::execute(&m, 1, nullptr, &packed, {}, plan, nullptr, ws);
  EXPECT_LT(p.error(), testutil::gemm_tolerance(p.k_depth));
}

TEST(Gemm, OfflinePackedBThreaded) {
  Problem p(64, 64, 32);
  GemmConfig cfg = default_config(64, 64, 32);
  cfg.mc = 16;
  cfg.nc = 16;
  cfg.kc = 16;
  cfg.packing = kernels::Packing::kOffline;
  Plan plan(64, 64, 32, cfg);
  PackedB packed(p.b.view(), plan);
  common::ThreadPool pool(3);
  const detail::GroupMember m{p.a.view(), p.b.view(), p.c.view()};
  common::Workspace ws;
  detail::execute(&m, 1, nullptr, &packed, {}, plan, &pool, ws);
  EXPECT_LT(p.error(), testutil::gemm_tolerance(p.k_depth));
}

TEST(Gemm, PaddedLeadingDimensions) {
  const int m = 30, n = 50, k = 20;
  Matrix a(m, k, 64), b(k, n, 80), c(m, n, 96), c_ref(m, n, 96);
  common::fill_random(a.view(), 1);
  common::fill_random(b.view(), 2);
  common::fill_random(c.view(), 3);
  for (int r = 0; r < m; ++r)
    for (int j = 0; j < n; ++j) c_ref.at(r, j) = c.at(r, j);
  common::reference_gemm(a.view(), b.view(), c_ref.view());
  ASSERT_TRUE(gemm(a.view(), b.view(), c.view()).ok());
  EXPECT_LT(common::max_rel_error(c.view(), c_ref.view()),
            testutil::gemm_tolerance(k));
}

TEST(Plan, ClampsBlocksToProblem) {
  GemmConfig cfg = default_config(8, 8, 8);
  cfg.mc = 1000;
  cfg.nc = 1000;
  cfg.kc = 1000;
  Plan plan(8, 8, 8, cfg);
  EXPECT_EQ(plan.config().mc, 8);
  EXPECT_EQ(plan.config().nc, 8);
  EXPECT_EQ(plan.config().kc, 8);
}

TEST(Plan, RejectsEmptyProblem) {
  EXPECT_THROW(Plan(0, 4, 4, default_config(1, 4, 4)), std::invalid_argument);
}

TEST(Plan, ProjectedCyclesPositiveAndMonotoneInWork) {
  Plan small(16, 16, 16, default_config(16, 16, 16));
  Plan big(64, 64, 64, default_config(64, 64, 64));
  EXPECT_GT(small.projected_cycles(), 0.0);
  EXPECT_GT(big.projected_cycles(), small.projected_cycles());
}

TEST(Plan, DefaultConfigSkipsPackingForSmallN) {
  EXPECT_EQ(default_config(64, 8, 8).packing, kernels::Packing::kNone);
  EXPECT_EQ(default_config(64, 512, 512).packing, kernels::Packing::kOnline);
}

TEST(Plan, LoopOrderNames) {
  EXPECT_STREQ(loop_order_name(LoopOrder::kNKM), "NKM");
  EXPECT_STREQ(loop_order_name(LoopOrder::kMKN), "MKN");
}

}  // namespace
}  // namespace autogemm
