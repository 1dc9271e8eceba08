#include "core/gemm_ex.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/aligned_buffer.hpp"
#include "core/context.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/packing.hpp"

namespace autogemm {
namespace {

using common::ConstMatrixView;
using common::MatrixView;

int ceil_div(int a, int b) { return (a + b - 1) / b; }

// Packs the logical op(A) block rows [i0, i0+bm) x depth [p0, p0+bk).
void pack_a(ConstMatrixView a, Trans trans, float alpha, int i0, int p0,
            int bm, int bk, float* dst) {
  if (trans == Trans::kNo) {
    kernels::pack_block_scaled(a.block(i0, p0, bm, bk), dst, bk, alpha);
  } else {
    // Logical A(i, p) = stored a(p, i).
    kernels::pack_block_transposed(a.block(p0, i0, bk, bm), dst, bk, alpha);
  }
}

// Packs the logical op(B) block depth [p0, p0+bk) x cols [j0, j0+bn).
void pack_b(ConstMatrixView b, Trans trans, int p0, int j0, int bk, int bn,
            float* dst) {
  if (trans == Trans::kNo) {
    kernels::pack_block(b.block(p0, j0, bk, bn), dst, bn);
  } else {
    kernels::pack_block_transposed(b.block(j0, p0, bn, bk), dst, bn, 1.0f);
  }
}

void run_block(const tiling::TilingResult& tiles, const float* a, long lda,
               const float* b, long ldb, float* c, long ldc, int bk) {
  for (const auto& t : tiles.tiles) {
    kernels::run_tile(t.rows_used, t.cols_used,
                      a + static_cast<long>(t.row) * lda, lda, b + t.col, ldb,
                      c + static_cast<long>(t.row) * ldc + t.col, ldc, bk);
  }
}

// One C block's full K loop (the per-worker unit; this non-canonical path
// always schedules C blocks — the canonical path in core/gemm.cpp is the
// one that can split K).
void c_block_pass(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                  const GemmExParams& params, const Plan& plan, int bi,
                  int bj, float* a_scratch, float* b_scratch) {
  const GemmConfig& cfg = plan.config();
  const int i0 = bi * cfg.mc, j0 = bj * cfg.nc;
  const int bm = std::min(cfg.mc, plan.m() - i0);
  const int bn = std::min(cfg.nc, plan.n() - j0);
  for (int p0 = 0; p0 < plan.k(); p0 += cfg.kc) {
    const int bk = std::min(cfg.kc, plan.k() - p0);
    pack_a(a, params.trans_a, params.alpha, i0, p0, bm, bk, a_scratch);
    pack_b(b, params.trans_b, p0, j0, bk, bn, b_scratch);
    run_block(plan.block_tiling(bm, bn, bk), a_scratch, bk, b_scratch, bn,
              c.data + static_cast<long>(i0) * c.ld + j0, c.ld, bk);
  }
}

}  // namespace

void gemm_ex(ConstMatrixView a, ConstMatrixView b, MatrixView c,
             const GemmExParams& params, const Plan& plan,
             common::ThreadPool* pool) {
  const int a_rows = params.trans_a == Trans::kNo ? a.rows : a.cols;
  const int a_cols = params.trans_a == Trans::kNo ? a.cols : a.rows;
  const int b_rows = params.trans_b == Trans::kNo ? b.rows : b.cols;
  const int b_cols = params.trans_b == Trans::kNo ? b.cols : b.rows;
  if (a_rows != plan.m() || a_cols != plan.k() || b_rows != plan.k() ||
      b_cols != plan.n() || c.rows != plan.m() || c.cols != plan.n())
    throw std::invalid_argument(
        "gemm_ex: operand shapes do not match the plan");

  const GemmConfig& cfg = plan.config();
  const int mi = ceil_div(plan.m(), cfg.mc);
  const int nj = ceil_div(plan.n(), cfg.nc);
  const std::size_t a_size = static_cast<std::size_t>(cfg.mc) * cfg.kc;
  const std::size_t b_size = static_cast<std::size_t>(cfg.kc) * cfg.nc;

  // beta is applied to all of C before any accumulation (doing it inside
  // the workers would race: several column-block workers share C rows).
  if (params.beta != 1.0f) detail::scale_c(c, params.beta);

  if (pool != nullptr && pool->size() > 1) {
    pool->parallel_for(mi * nj, [&](int block) {
      const int bi = block / nj;
      const int bj = block % nj;
      common::AlignedBuffer a_buf(a_size), b_buf(b_size);
      c_block_pass(a, b, c, params, plan, bi, bj, a_buf.data(), b_buf.data());
    });
  } else {
    common::AlignedBuffer a_buf(a_size), b_buf(b_size);
    for (int bi = 0; bi < mi; ++bi)
      for (int bj = 0; bj < nj; ++bj)
        c_block_pass(a, b, c, params, plan, bi, bj, a_buf.data(),
                     b_buf.data());
  }
}

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

