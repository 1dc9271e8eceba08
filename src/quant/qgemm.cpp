#include "quant/qgemm.hpp"

#include <algorithm>
#include <new>
#include <vector>

#include "kernels/qkernel.hpp"
#include "kernels/qwide.hpp"
#include "quant/quantize.hpp"

namespace autogemm::quant {

namespace {

Status validate_triple(int m, int n, int k, const void* a_data, long a_ld,
                       int a_cols, const void* b_data, long b_ld, int b_cols,
                       common::MatrixView c) {
  if (a_data == nullptr || b_data == nullptr || c.data == nullptr)
    return InvalidArgumentError("qgemm: null operand data");
  if (m <= 0 || n <= 0 || k <= 0)
    return InvalidArgumentError("qgemm: non-positive extent");
  if (c.rows != m || c.cols != n)
    return InvalidArgumentError("qgemm: C shape does not match A x B");
  if (a_ld < a_cols || b_ld < b_cols || c.ld < c.cols)
    return InvalidArgumentError("qgemm: leading dimension < cols");
  return {};
}

/// How many C rows each kernel invocation covers — bounds the int32
/// accumulator scratch so it stays cache-resident for large M.
constexpr int kRowBlock = 64;

StatusOr<std::vector<std::int32_t>> make_acc(int rows, int cols) {
  std::vector<std::int32_t> acc;
  try {
    acc.resize(static_cast<std::size_t>(std::min(kRowBlock, rows)) *
               static_cast<std::size_t>(cols));
  } catch (const std::bad_alloc&) {
    return ResourceExhaustedError("qgemm: accumulator allocation failed");
  }
  return acc;
}

/// Shared epilogue driver over the widened int16 kernel images (the host
/// fast path — pure pmaddwd inner loop).
Status qgemm_packed_i16(const std::int16_t* a, long lda,
                        const float* a_scales, const std::int16_t* b,
                        long ldb, const float* b_scales, int k,
                        common::MatrixView c, const QGemmOptions& opts) {
  auto acc = make_acc(c.rows, c.cols);
  if (!acc.ok()) return acc.status();
  for (int r0 = 0; r0 < c.rows; r0 += kRowBlock) {
    const int rows = std::min(kRowBlock, c.rows - r0);
    kernels::qgemm_block_i16(rows, c.cols, k, a + r0 * lda, lda, b, ldb,
                             acc->data(), c.cols);
    kernels::requantize_block(c.block(r0, 0, rows, c.cols), acc->data(),
                              c.cols, a_scales + r0, b_scales, opts.alpha,
                              opts.beta);
  }
  return {};
}

/// The wide tier: `a` is the tier's A operand (kernels::QWideProblem::a);
/// the kernels requantize straight into C.
void qgemm_wide(kernels::QWideIsa isa, const std::uint8_t* a, long lda,
                const float* a_scales, const QPackedB& qb, int k,
                common::MatrixView c, const QGemmOptions& opts) {
  kernels::QWideProblem p;
  p.m = c.rows;
  p.n = c.cols;
  p.k = k;
  p.a = a;
  p.lda = lda;
  p.b_image = qb.wide_image();
  p.b_offset_sums = qb.wide_offset_sums();
  p.a_scales = a_scales;
  p.b_scales = qb.scales();
  p.alpha = opts.alpha;
  p.beta = opts.beta;
  p.c = c;
  kernels::qwide_gemm(isa, p);
}

/// Reference driver over the canonical int8 blocks (force_portable /
/// crosscheck — bit-identical results, integer accumulation is exact).
Status qgemm_packed_i8(const std::int8_t* a, long lda, const float* a_scales,
                       const std::int8_t* b, long ldb, const float* b_scales,
                       int k, common::MatrixView c, const QGemmOptions& opts) {
  auto acc = make_acc(c.rows, c.cols);
  if (!acc.ok()) return acc.status();
  for (int r0 = 0; r0 < c.rows; r0 += kRowBlock) {
    const int rows = std::min(kRowBlock, c.rows - r0);
    kernels::qgemm_block_portable(rows, c.cols, k, a + r0 * lda, lda, b, ldb,
                                  acc->data(), c.cols);
    kernels::requantize_block(c.block(r0, 0, rows, c.cols), acc->data(),
                              c.cols, a_scales + r0, b_scales, opts.alpha,
                              opts.beta);
  }
  return {};
}

}  // namespace

Status qgemm(common::ConstMatrixView a, common::ConstMatrixView b,
             common::MatrixView c, const QGemmOptions& opts) {
  if (Status s = validate_triple(a.rows, b.cols, a.cols, a.data, a.ld, a.cols,
                                 b.data, b.ld, b.cols, c);
      !s.ok())
    return s;
  if (a.cols != b.rows)
    return InvalidArgumentError("qgemm: inner dimensions disagree");
  auto qb = QPackedB::create(b, opts.granularity);
  if (!qb.ok()) return qb.status();
  return qgemm(a, *qb, c, opts);
}

Status qgemm(common::ConstMatrixView a, const QPackedB& qb,
             common::MatrixView c, const QGemmOptions& opts) {
  if (qb.empty()) return InvalidArgumentError("qgemm: empty QPackedB");
  if (Status s = validate_triple(a.rows, qb.cols(), a.cols, a.data, a.ld,
                                 a.cols, qb.col(0), qb.col_ld(), qb.rows(), c);
      !s.ok())
    return s;
  if (a.cols != qb.rows())
    return InvalidArgumentError("qgemm: A cols != packed B rows");
  // Activations quantize per call; only A's rows are packed, so the scratch
  // is M x padded-K — small next to the cached weight pack. The fast path
  // quantizes straight into the widened image (one pass over fp32 A).
  const long lda = kernels::qpacked_ld(a.cols);
  const std::size_t count =
      static_cast<std::size_t>(a.rows) * static_cast<std::size_t>(lda);
  std::vector<float> a_scales;
  try {
    a_scales = opts.granularity == Granularity::kPerChannel
                   ? per_row_scales(a)
                   : std::vector<float>(static_cast<std::size_t>(a.rows),
                                        per_tensor_scale(a));
    if (opts.force_portable) {
      std::vector<std::int8_t> qa(count);
      kernels::qpack_rows(a, a_scales.data(), qa.data(), lda);
      return qgemm_packed_i8(qa.data(), lda, a_scales.data(), qb.col(0),
                             qb.col_ld(), qb.scales(), a.cols, c, opts);
    }
    if (const kernels::QWideIsa isa = kernels::detect_qwide_isa();
        isa != kernels::QWideIsa::kNone) {
      std::vector<std::uint8_t> qa(count);
      kernels::qwide_quantize_a(isa, a, a_scales.data(), qa.data(), lda);
      qgemm_wide(isa, qa.data(), lda, a_scales.data(), qb, a.cols, c, opts);
      return {};
    }
    std::vector<std::int16_t> qa(count);
    kernels::qpack_rows_i16(a, a_scales.data(), qa.data(), lda);
    return qgemm_packed_i16(qa.data(), lda, a_scales.data(), qb.col16(0),
                            qb.col_ld(), qb.scales(), a.cols, c, opts);
  } catch (const std::bad_alloc&) {
    return ResourceExhaustedError("qgemm: activation pack allocation failed");
  }
}

Status qgemm(const QPackedA& qa, const QPackedB& qb, common::MatrixView c,
             const QGemmOptions& opts) {
  if (qa.empty() || qb.empty())
    return InvalidArgumentError("qgemm: empty packed operand");
  if (Status s = validate_triple(qa.rows(), qb.cols(), qa.cols(), qa.row(0),
                                 qa.row_ld(), qa.cols(), qb.col(0),
                                 qb.col_ld(), qb.rows(), c);
      !s.ok())
    return s;
  if (qa.cols() != qb.rows())
    return InvalidArgumentError("qgemm: packed inner dimensions disagree");
  if (opts.force_portable)
    return qgemm_packed_i8(qa.row(0), qa.row_ld(), qa.scales(), qb.col(0),
                           qb.col_ld(), qb.scales(), qa.cols(), c, opts);
  if (const kernels::QWideIsa isa = kernels::detect_qwide_isa();
      isa != kernels::QWideIsa::kNone) {
    // The tier's A operand is the canonical pack plus its offset.
    const std::size_t count = static_cast<std::size_t>(qa.rows()) *
                              static_cast<std::size_t>(qa.row_ld());
    const int offset = kernels::qwide_a_offset(isa);
    std::vector<std::uint8_t> a;
    try {
      a.resize(count);
    } catch (const std::bad_alloc&) {
      return ResourceExhaustedError("qgemm: A operand allocation failed");
    }
    const std::int8_t* src = qa.row(0);
    for (std::size_t i = 0; i < count; ++i)
      a[i] = static_cast<std::uint8_t>(src[i] + offset);
    qgemm_wide(isa, a.data(), qa.row_ld(), qa.scales(), qb, qa.cols(), c,
               opts);
    return {};
  }
  return qgemm_packed_i16(qa.row16(0), qa.row_ld(), qa.scales(), qb.col16(0),
                          qb.col_ld(), qb.scales(), qa.cols(), c, opts);
}

}  // namespace autogemm::quant
