// Host micro-kernel validation: every dispatch-table entry against the
// double-precision reference, plus packing and the generic edge kernel.
#include <gtest/gtest.h>

#include <string>

#include "backend/backend.hpp"
#include "common/matrix.hpp"
#include "common/reference_gemm.hpp"
#include "common/rng.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/packing.hpp"
#include "test_util.hpp"

namespace autogemm::kernels {
namespace {

using common::Matrix;

MicroKernelFn neon_kernel(int mr, int nr) {
  return backend::get_backend(backend::BackendId::kNeon)
      .find_microkernel(mr, nr);
}

void check_tile(int mr, int nr, int kc) {
  SCOPED_TRACE("tile " + std::to_string(mr) + "x" + std::to_string(nr) +
               " kc=" + std::to_string(kc));
  Matrix a(mr, kc), b(kc, nr), c(mr, nr), c_ref(mr, nr);
  common::fill_random(a.view(), 1);
  common::fill_random(b.view(), 2);
  common::fill_random(c.view(), 3);
  for (int r = 0; r < mr; ++r)
    for (int j = 0; j < nr; ++j) c_ref.at(r, j) = c.at(r, j);
  common::reference_gemm(a.view(), b.view(), c_ref.view());
  run_tile(mr, nr, a.data(), a.ld(), b.data(), b.ld(), c.data(), c.ld(), kc);
  EXPECT_LT(common::max_rel_error(c.view(), c_ref.view()),
            testutil::gemm_tolerance(kc));
}

struct TileCase {
  int mr, nr;
};

class DispatchSweep : public ::testing::TestWithParam<TileCase> {};

TEST_P(DispatchSweep, SpecializedKernelMatchesReference) {
  const auto [mr, nr] = GetParam();
  ASSERT_NE(neon_kernel(mr, nr), nullptr);
  for (int kc : {1, 5, 16, 33}) check_tile(mr, nr, kc);
}

std::vector<TileCase> table_cases() {
  std::vector<TileCase> cases;
  for (int mr = 1; mr <= 8; ++mr)
    for (int nr = 4; nr <= 28; nr += 4)
      if (neon_kernel(mr, nr) != nullptr) cases.push_back({mr, nr});
  cases.push_back({5, 64});  // SVE-width shape
  cases.push_back({8, 32});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Table, DispatchSweep,
                         ::testing::ValuesIn(table_cases()));

TEST(Dispatch, UnknownShapeReturnsNull) {
  EXPECT_EQ(neon_kernel(5, 20), nullptr);  // infeasible in Table II
  EXPECT_EQ(neon_kernel(0, 4), nullptr);
  EXPECT_EQ(neon_kernel(3, 7), nullptr);
}

TEST(Dispatch, GenericFallbackForOddShapes) {
  // Shapes with no instantiation (e.g. nr not a lane multiple) still
  // compute correctly through run_tile's fallback.
  check_tile(3, 7, 9);
  check_tile(11, 5, 4);
  check_tile(1, 1, 1);
}

TEST(Dispatch, TableCoversPreferredTiles) {
  EXPECT_NE(neon_kernel(8, 8), nullptr);
  EXPECT_NE(neon_kernel(6, 12), nullptr);
  EXPECT_NE(neon_kernel(5, 16), nullptr);
  EXPECT_NE(neon_kernel(4, 20), nullptr);
}

TEST(Generic, StridedViews) {
  // Views embedded in larger matrices (ld > cols).
  const int mr = 4, nr = 12, kc = 10;
  Matrix a(mr, 32), b(kc, 40), c(mr, 20), c_ref(mr, 20);
  common::fill_random(a.view(), 4);
  common::fill_random(b.view(), 5);
  common::fill_random(c.view(), 6);
  for (int r = 0; r < mr; ++r)
    for (int j = 0; j < 20; ++j) c_ref.at(r, j) = c.at(r, j);
  common::reference_gemm(a.view().block(0, 0, mr, kc),
                         b.view().block(0, 0, kc, nr),
                         c_ref.view().block(0, 0, mr, nr));
  run_tile(mr, nr, a.data(), a.ld(), b.data(), b.ld(), c.data(), c.ld(), kc);
  EXPECT_LT(common::max_rel_error(c.view(), c_ref.view()),
            testutil::gemm_tolerance(kc));
}

TEST(Packing, PackBlockCopiesDense) {
  Matrix src(4, 6, 10);
  common::fill_pattern(src.view());
  std::vector<float> dst(4 * 6, -1.0f);
  pack_block(src.view(), dst.data(), 6);
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 6; ++c)
      EXPECT_EQ(dst[static_cast<std::size_t>(r) * 6 + c], src.at(r, c));
}

TEST(Packing, PackBlockWiderDestinationLd) {
  Matrix src(3, 4);
  common::fill_pattern(src.view());
  std::vector<float> dst(3 * 8, 0.0f);
  pack_block(src.view(), dst.data(), 8);
  EXPECT_EQ(dst[8], src.at(1, 0));
  EXPECT_EQ(dst[8 + 3], src.at(1, 3));
}

TEST(Packing, Names) {
  EXPECT_STREQ(packing_name(Packing::kNone), "none");
  EXPECT_STREQ(packing_name(Packing::kOnline), "online");
  EXPECT_STREQ(packing_name(Packing::kOffline), "offline");
}

}  // namespace
}  // namespace autogemm::kernels
