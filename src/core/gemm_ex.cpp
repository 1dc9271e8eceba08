#include "core/gemm_ex.hpp"

#include <stdexcept>
#include <string>

#include "core/context.hpp"
#include "core/gemm.hpp"

namespace autogemm {

using common::ConstMatrixView;
using common::MatrixView;

Status gemm_ex(ConstMatrixView a, ConstMatrixView b, MatrixView c,
               const GemmExParams& params) {
  return default_context().run(a, b, c, params);
}

namespace {

Trans parse_trans(char t) {
  switch (t) {
    case 'n': case 'N': return Trans::kNo;
    case 't': case 'T': return Trans::kYes;
    default:
      throw std::invalid_argument(std::string("sgemm: bad trans flag '") + t +
                                  "' (expected n/N/t/T)");
  }
}

}  // namespace

Status sgemm(char transa, char transb, int m, int n, int k, float alpha,
             const float* a, int lda, const float* b, int ldb, float beta,
             float* c, int ldc) {
  GemmExParams params;
  params.trans_a = parse_trans(transa);
  params.trans_b = parse_trans(transb);
  params.alpha = alpha;
  params.beta = beta;
  const int a_rows = params.trans_a == Trans::kNo ? m : k;
  const int a_cols = params.trans_a == Trans::kNo ? k : m;
  const int b_rows = params.trans_b == Trans::kNo ? k : n;
  const int b_cols = params.trans_b == Trans::kNo ? n : k;
  if (lda < a_cols || ldb < b_cols || ldc < n)
    throw std::invalid_argument("sgemm: leading dimension below row width");
  const ConstMatrixView av{a, a_rows, a_cols, lda};
  const ConstMatrixView bv{b, b_rows, b_cols, ldb};
  const MatrixView cv{c, m, n, ldc};
  return default_context().run(av, bv, cv, params);
}

namespace detail {

void scale_c(MatrixView c, float beta) {
  for (int r = 0; r < c.rows; ++r) {
    float* row = c.data + static_cast<long>(r) * c.ld;
    if (beta == 0.0f) {
      for (int j = 0; j < c.cols; ++j) row[j] = 0.0f;
    } else {
      for (int j = 0; j < c.cols; ++j) row[j] *= beta;
    }
  }
}

}  // namespace detail

}  // namespace autogemm

