// Extended GEMM validation: C = alpha * op(A) * op(B) + beta * C across
// transposes, scalars, shapes, and the threaded path.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/matrix.hpp"
#include "common/reference_gemm.hpp"
#include "common/rng.hpp"
#include "core/gemm_ex.hpp"
#include "test_util.hpp"

namespace autogemm {
namespace {

using common::Matrix;

// Reference in double: C = alpha * op(A) * op(B) + beta * C.
void reference_ex(common::ConstMatrixView a, common::ConstMatrixView b,
                  common::MatrixView c, const GemmExParams& p) {
  const int m = c.rows, n = c.cols;
  const int k = p.trans_a == Trans::kNo ? a.cols : a.rows;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0;
      for (int q = 0; q < k; ++q) {
        const double av = p.trans_a == Trans::kNo ? a.at(i, q) : a.at(q, i);
        const double bv = p.trans_b == Trans::kNo ? b.at(q, j) : b.at(j, q);
        acc += av * bv;
      }
      c.at(i, j) = static_cast<float>(p.alpha * acc + p.beta * c.at(i, j));
    }
  }
}

// gtest prints this parameter as raw bytes and the test names embed them,
// so every byte must be initialized: `reserved` fills what would otherwise
// be padding between `tb` and `alpha`, keeping the names stable.
struct ExCase {
  ExCase(int m_, int n_, int k_, Trans ta_, Trans tb_, float alpha_,
         float beta_)
      : m(m_), n(n_), k(k_), ta(ta_), tb(tb_), alpha(alpha_), beta(beta_) {}
  int m, n, k;
  Trans ta, tb;
  std::uint16_t reserved = 0;
  float alpha, beta;
};
static_assert(sizeof(ExCase) == 24, "ExCase must have no padding");

class GemmExSweep : public ::testing::TestWithParam<ExCase> {};

TEST_P(GemmExSweep, MatchesReference) {
  const auto& p = GetParam();
  SCOPED_TRACE(std::to_string(p.m) + "x" + std::to_string(p.n) + "x" +
               std::to_string(p.k) + " ta=" + std::to_string((int)p.ta) +
               " tb=" + std::to_string((int)p.tb) + " alpha=" +
               std::to_string(p.alpha) + " beta=" + std::to_string(p.beta));
  const int a_rows = p.ta == Trans::kNo ? p.m : p.k;
  const int a_cols = p.ta == Trans::kNo ? p.k : p.m;
  const int b_rows = p.tb == Trans::kNo ? p.k : p.n;
  const int b_cols = p.tb == Trans::kNo ? p.n : p.k;
  Matrix a(a_rows, a_cols), b(b_rows, b_cols), c(p.m, p.n), c_ref(p.m, p.n);
  common::fill_random(a.view(), 1);
  common::fill_random(b.view(), 2);
  common::fill_random(c.view(), 3);
  for (int r = 0; r < p.m; ++r)
    for (int j = 0; j < p.n; ++j) c_ref.at(r, j) = c.at(r, j);

  GemmExParams params{p.ta, p.tb, p.alpha, p.beta};
  reference_ex(a.view(), b.view(), c_ref.view(), params);
  ASSERT_TRUE(gemm_ex(a.view(), b.view(), c.view(), params).ok());
  EXPECT_LT(common::max_rel_error(c.view(), c_ref.view()),
            testutil::gemm_tolerance(p.k));
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, GemmExSweep,
    ::testing::Values(
        ExCase{30, 40, 20, Trans::kNo, Trans::kNo, 1.0f, 1.0f},
        ExCase{30, 40, 20, Trans::kYes, Trans::kNo, 1.0f, 1.0f},
        ExCase{30, 40, 20, Trans::kNo, Trans::kYes, 1.0f, 1.0f},
        ExCase{30, 40, 20, Trans::kYes, Trans::kYes, 1.0f, 1.0f},
        ExCase{30, 40, 20, Trans::kNo, Trans::kNo, 2.5f, 0.0f},
        ExCase{30, 40, 20, Trans::kYes, Trans::kYes, -1.5f, 0.5f},
        ExCase{64, 64, 64, Trans::kYes, Trans::kNo, 0.5f, 2.0f},
        ExCase{17, 19, 23, Trans::kYes, Trans::kYes, 1.0f, 0.0f},
        ExCase{1, 128, 64, Trans::kNo, Trans::kYes, 3.0f, 1.0f},
        ExCase{128, 1, 5, Trans::kYes, Trans::kNo, 1.0f, -1.0f}));

TEST(GemmEx, BetaZeroIgnoresGarbageC) {
  Matrix a(8, 8), b(8, 8), c(8, 8), c_ref(8, 8);
  common::fill_random(a.view(), 1);
  common::fill_random(b.view(), 2);
  for (int r = 0; r < 8; ++r)
    for (int j = 0; j < 8; ++j) c.at(r, j) = 1e30f;  // must be discarded
  GemmExParams params;
  params.beta = 0.0f;
  reference_ex(a.view(), b.view(), c_ref.view(), params);
  ASSERT_TRUE(gemm_ex(a.view(), b.view(), c.view(), params).ok());
  EXPECT_LT(common::max_rel_error(c.view(), c_ref.view()),
            testutil::gemm_tolerance(8));
}

TEST(GemmEx, ThreadedTransposedMatchesReference) {
  const int m = 60, n = 72, k = 36;
  Matrix a(k, m), b(n, k), c(m, n), c_ref(m, n);
  common::fill_random(a.view(), 4);
  common::fill_random(b.view(), 5);
  common::fill_random(c.view(), 6);
  for (int r = 0; r < m; ++r)
    for (int j = 0; j < n; ++j) c_ref.at(r, j) = c.at(r, j);
  GemmExParams params{Trans::kYes, Trans::kYes, 1.25f, 0.75f};
  reference_ex(a.view(), b.view(), c_ref.view(), params);

  GemmConfig cfg = default_config(m, n, k);
  cfg.mc = 16;
  cfg.nc = 24;
  cfg.kc = 12;
  Plan plan(m, n, k, cfg);
  common::ThreadPool pool(4);
  gemm_ex(a.view(), b.view(), c.view(), params, plan, &pool);
  EXPECT_LT(common::max_rel_error(c.view(), c_ref.view()),
            testutil::gemm_tolerance(k));
}

TEST(GemmEx, ShapeMismatchThrows) {
  Matrix a(4, 5), b(5, 6), c(4, 6);
  Plan plan(4, 6, 5, default_config(4, 6, 5));
  GemmExParams params;
  params.trans_a = Trans::kYes;  // op(A) becomes 5x4: mismatch
  EXPECT_THROW(gemm_ex(a.view(), b.view(), c.view(), params, plan),
               std::invalid_argument);
}

TEST(GemmEx, PackingHelpers) {
  Matrix src(3, 4);
  common::fill_pattern(src.view());
  std::vector<float> dst(4 * 3, 0.0f);
  kernels::pack_block_transposed(src.view(), dst.data(), 3, 2.0f);
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 4; ++c)
      EXPECT_EQ(dst[static_cast<std::size_t>(c) * 3 + r],
                2.0f * src.at(r, c));
  std::vector<float> dst2(3 * 4, 0.0f);
  kernels::pack_block_scaled(src.view(), dst2.data(), 4, -1.0f);
  EXPECT_EQ(dst2[5], -src.at(1, 1));
}

}  // namespace
}  // namespace autogemm
