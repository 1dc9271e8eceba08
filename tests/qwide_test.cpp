// The wide int8 tier (kernels/qwide.hpp): each ISA's kernels and quantizer
// against the portable reference, bit for bit — integer accumulation is
// exact and the epilogue keeps the scalar operation order — over every
// remainder tile and column tail, alpha/beta and deep K; plus the SSE2
// fallback kernel the tier replaces, which must stay covered on CPUs that
// no longer pick it.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "kernels/qkernel.hpp"
#include "kernels/qwide.hpp"
#include "quant/qgemm.hpp"
#include "quant/qpacked.hpp"
#include "quant/quantize.hpp"

namespace autogemm {
namespace {

using common::Matrix;
using kernels::QWideIsa;

constexpr QWideIsa kIsas[] = {QWideIsa::kAvx2, QWideIsa::kAvxVnni,
                              QWideIsa::kAvx512Vnni};

/// C = alpha * deq(q(A) q(B)) + beta * C through the portable kernel and
/// the scalar epilogue: the semantics every tier must reproduce exactly.
void portable_product(const Matrix& a, const quant::QPackedB& qb,
                      const std::vector<float>& a_scales, float alpha,
                      float beta, Matrix& c) {
  const long lda = kernels::qpacked_ld(a.cols());
  std::vector<std::int8_t> qa(static_cast<std::size_t>(a.rows()) * lda);
  kernels::qpack_rows(a.view(), a_scales.data(), qa.data(), lda);
  std::vector<std::int32_t> acc(static_cast<std::size_t>(a.rows()) * c.cols());
  kernels::qgemm_block_portable(a.rows(), c.cols(), a.cols(), qa.data(), lda,
                                qb.col(0), qb.col_ld(), acc.data(), c.cols());
  kernels::requantize_block(c.view(), acc.data(), c.cols(), a_scales.data(),
                            qb.scales(), alpha, beta);
}

/// The same product on `isa`'s quantizer and kernels.
void wide_product(QWideIsa isa, const Matrix& a, const quant::QPackedB& qb,
                  const std::vector<float>& a_scales, float alpha, float beta,
                  Matrix& c) {
  const long lda = kernels::qpacked_ld(a.cols());
  std::vector<std::uint8_t> qa(static_cast<std::size_t>(a.rows()) * lda);
  kernels::qwide_quantize_a(isa, a.view(), a_scales.data(), qa.data(), lda);
  kernels::QWideProblem p;
  p.m = a.rows();
  p.n = c.cols();
  p.k = a.cols();
  p.a = qa.data();
  p.lda = lda;
  p.b_image = qb.wide_image();
  p.b_offset_sums = qb.wide_offset_sums();
  p.a_scales = a_scales.data();
  p.b_scales = qb.scales();
  p.alpha = alpha;
  p.beta = beta;
  p.c = c.view();
  kernels::qwide_gemm(isa, p);
}

bool bit_identical(const Matrix& x, const Matrix& y) {
  for (int r = 0; r < x.rows(); ++r)
    if (std::memcmp(&x.at(r, 0), &y.at(r, 0),
                    sizeof(float) * static_cast<std::size_t>(x.cols())) != 0)
      return false;
  return true;
}

TEST(QWide, DetectionPicksTheWidestSupportedTier) {
  const QWideIsa isa = kernels::detect_qwide_isa();
  EXPECT_FALSE(kernels::qwide_isa_supported(QWideIsa::kNone));
  if (isa == QWideIsa::kNone) {
    for (const QWideIsa t : kIsas)
      EXPECT_FALSE(kernels::qwide_isa_supported(t));
    GTEST_SKIP() << "CPU has no AVX2: the int8 tier is SSE2";
  }
  EXPECT_TRUE(kernels::qwide_isa_supported(isa));
  for (const QWideIsa t : kIsas) {
    if (t > isa) {
      EXPECT_FALSE(kernels::qwide_isa_supported(t));
    }
  }
  EXPECT_EQ(kernels::qwide_a_offset(QWideIsa::kAvx2), 0);
  EXPECT_EQ(kernels::qwide_a_offset(QWideIsa::kAvxVnni), 128);
  EXPECT_EQ(kernels::qwide_a_offset(QWideIsa::kAvx512Vnni), 128);
}

TEST(QWide, PanelImageInterleavesFourKPerColumnAndSumsEachColumn) {
  // Column c, row k of B lands at panel c / 16, group k / 4, byte
  // (c % 16) * 4 + k % 4 of that group; pads are zero.
  const int k = 7, n = 19;
  std::vector<std::int8_t> cols(static_cast<std::size_t>(n) * 16);
  for (int c = 0; c < n; ++c)
    for (int kk = 0; kk < 16; ++kk)
      cols[static_cast<std::size_t>(c) * 16 + kk] =
          kk < k ? static_cast<std::int8_t>((c * 7 + kk * 13) % 255 - 127) : 0;
  ASSERT_EQ(kernels::qwide_b_image_bytes(k, n), 8 * 32);
  std::vector<std::int8_t> image(8 * 32, 99);
  std::vector<std::int32_t> sums(n);
  kernels::qwide_pack_b(cols.data(), 16, k, n, image.data(), sums.data());
  const long panel_bytes = 2 * 64;  // two groups of 4 k
  for (int c = 0; c < 32; ++c) {
    std::int32_t sum = 0;
    for (int kk = 0; kk < 8; ++kk) {
      const std::int8_t want =
          c < n && kk < k ? cols[static_cast<std::size_t>(c) * 16 + kk] : 0;
      EXPECT_EQ(image[(c / 16) * panel_bytes + (kk / 4) * 64 + (c % 16) * 4 +
                      kk % 4],
                want)
          << "column " << c << " k " << kk;
      sum += want;
    }
    if (c < n) {
      EXPECT_EQ(sums[c], 128 * sum) << "column " << c;
    }
  }
}

TEST(QWide, QuantizerMatchesTheScalarPackerPlusOffset) {
  // Rounding, both saturation ends, zeros and a tail shorter than a
  // vector: the vector path must agree with quantize_value exactly.
  Matrix a(3, 37);
  common::fill_random(a.view(), 3);
  a.at(0, 0) = 0.0f;
  a.at(0, 1) = 1.0f;  // the row maximum: quantizes to 127
  a.at(0, 2) = -1.0f;
  a.at(2, 36) = 3.0f;  // in the scalar tail of every vector width
  const std::vector<float> scales = quant::per_row_scales(a.view());
  const long ld = kernels::qpacked_ld(a.cols());
  std::vector<std::int8_t> want(static_cast<std::size_t>(a.rows()) * ld);
  kernels::qpack_rows(a.view(), scales.data(), want.data(), ld);
  bool any = false;
  for (const QWideIsa isa : kIsas) {
    if (!kernels::qwide_isa_supported(isa)) continue;
    any = true;
    std::vector<std::uint8_t> got(want.size(), 0xAA);
    kernels::qwide_quantize_a(isa, a.view(), scales.data(), got.data(), ld);
    const int offset = kernels::qwide_a_offset(isa);
    for (std::size_t i = 0; i < want.size(); ++i)
      ASSERT_EQ(got[i], static_cast<std::uint8_t>(want[i] + offset))
          << kernels::qwide_isa_name(isa) << " element " << i;
  }
  if (!any) GTEST_SKIP() << "CPU has no AVX2: no wide int8 tier to check";
}

TEST(QWide, EveryTierIsBitIdenticalToThePortableKernel) {
  // Row counts 1..13 cover every remainder tile below each tier's main
  // tile (6, 3 rows) and past it; column counts cover every tail width of
  // 8- and 16-lane vectors and partial slabs; K covers partial 4-groups.
  if (kernels::detect_qwide_isa() == QWideIsa::kNone)
    GTEST_SKIP() << "CPU has no AVX2: no wide int8 tier to check";
  struct Case {
    int m, n, k;
    float alpha, beta;
  };
  std::vector<Case> cases;
  for (int m = 1; m <= 13; ++m)
    cases.push_back({m, 5 + 11 * m, 3 + 5 * m, 1, 0});
  for (int n = 1; n <= 33; ++n) cases.push_back({7, n, 29, 1, 0});
  for (int n : {63, 64, 65, 127, 130}) cases.push_back({9, n, 70, 1, 0});
  cases.push_back({11, 45, 61, 0.5f, 0.75f});
  cases.push_back({4, 17, 16384, 1, 0});  // deep K: wrapping sums stay exact
  for (const QWideIsa isa : kIsas) {
    if (!kernels::qwide_isa_supported(isa)) continue;
    for (const Case& t : cases) {
      Matrix a(t.m, t.k), b(t.k, t.n), c_port(t.m, t.n), c_wide(t.m, t.n);
      common::fill_random(a.view(), 100u + static_cast<unsigned>(t.m));
      common::fill_random(b.view(), 200u + static_cast<unsigned>(t.n));
      common::fill_random(c_port.view(), 300);
      std::memcpy(c_wide.data(), c_port.data(),
                  sizeof(float) * static_cast<std::size_t>(t.m) * t.n);
      auto qb = quant::QPackedB::create(b.view());
      ASSERT_TRUE(qb.ok());
      const std::vector<float> sa = quant::per_row_scales(a.view());
      portable_product(a, *qb, sa, t.alpha, t.beta, c_port);
      wide_product(isa, a, *qb, sa, t.alpha, t.beta, c_wide);
      EXPECT_TRUE(bit_identical(c_port, c_wide))
          << kernels::qwide_isa_name(isa) << " " << t.m << "x" << t.n << "x"
          << t.k;
    }
  }
}

TEST(QWide, PackedABothOperandsPathMatchesPortable) {
  Matrix a(10, 75), b(75, 41), c_port(10, 41), c_fast(10, 41);
  common::fill_random(a.view(), 8);
  common::fill_random(b.view(), 9);
  auto qa = quant::QPackedA::create(a.view());
  auto qb = quant::QPackedB::create(b.view());
  ASSERT_TRUE(qa.ok() && qb.ok());
  quant::QGemmOptions o;
  o.beta = 0.0f;
  o.force_portable = true;
  ASSERT_TRUE(quant::qgemm(*qa, *qb, c_port.view(), o).ok());
  o.force_portable = false;
  ASSERT_TRUE(quant::qgemm(*qa, *qb, c_fast.view(), o).ok());
  EXPECT_TRUE(bit_identical(c_port, c_fast));
}

TEST(QWide, Sse2FallbackKernelStaysBitIdentical) {
  // The widened int16 kernel a CPU without AVX2 runs, called directly so
  // it keeps its coverage where the wide tier is picked instead.
  for (const auto [m, n, k] : {std::array{1, 1, 1}, std::array{5, 10, 17},
                               std::array{3, 7, 129}, std::array{6, 9, 64}}) {
    Matrix a(m, k), b(k, n);
    common::fill_random(a.view(), 51);
    common::fill_random(b.view(), 52);
    const long ld = kernels::qpacked_ld(k);
    std::vector<float> sa(m, 1.0f / 127.0f), sb(n, 1.0f / 127.0f);
    std::vector<std::int8_t> qa(static_cast<std::size_t>(m) * ld),
        qb(static_cast<std::size_t>(n) * ld);
    kernels::qpack_rows(a.view(), sa.data(), qa.data(), ld);
    kernels::qpack_cols(b.view(), sb.data(), qb.data(), ld);
    std::vector<std::int16_t> wa(qa.size()), wb(qb.size());
    kernels::qwiden_pack(qa.data(), wa.data(), m, ld);
    kernels::qwiden_pack(qb.data(), wb.data(), n, ld);
    std::vector<std::int32_t> want(static_cast<std::size_t>(m) * n),
        got(want.size());
    kernels::qgemm_block_portable(m, n, k, qa.data(), ld, qb.data(), ld,
                                  want.data(), n);
    kernels::qgemm_block_i16(m, n, k, wa.data(), ld, wb.data(), ld,
                             got.data(), n);
    EXPECT_EQ(got, want) << m << "x" << n << "x" << k;
  }
}

}  // namespace
}  // namespace autogemm
