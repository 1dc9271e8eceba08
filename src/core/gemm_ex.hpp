// Extended BLAS-style entry point: C = alpha * op(A) * op(B) + beta * C
// with op in {identity, transpose}.
//
// Transposed operands are handled the way every packed GEMM does it: the
// packing stage reads the operand transposed, so the micro-kernels always
// see the canonical row-major layout. alpha is folded into the packed A
// block; beta is applied to C before accumulation. There is no separate
// loop nest: these calls run core/gemm.hpp's detail::execute with online
// packing, so they get the plan's loop order and parallel strategy.
#pragma once

#include "common/matrix.hpp"
#include "common/status.hpp"
#include "common/threadpool.hpp"
#include "core/plan.hpp"

namespace autogemm {

enum class Trans : std::uint8_t { kNo, kYes };

struct GemmExParams {
  Trans trans_a = Trans::kNo;
  Trans trans_b = Trans::kNo;
  float alpha = 1.0f;
  float beta = 1.0f;
};

/// C = alpha * op(A) * op(B) + beta * C.
///
/// Logical shapes: op(A) is M x K, op(B) is K x N, C is M x N — i.e. with
/// trans_a == kYes the `a` view passed in is K x M. The plan describes the
/// logical (M, N, K) problem. Transposition and alpha force online
/// packing regardless of the plan's sigma_packing; `pool` schedules it as
/// choose_parallel_strategy picks (blocks-only or k-split).
void gemm_ex(common::ConstMatrixView a, common::ConstMatrixView b,
             common::MatrixView c, const GemmExParams& params,
             const Plan& plan, common::ThreadPool* pool = nullptr);

/// Convenience overload through the process-default Context (cached
/// per-shape plan; see core/context.hpp); returns its run() Status.
[[nodiscard]] Status gemm_ex(common::ConstMatrixView a,
                             common::ConstMatrixView b, common::MatrixView c,
                             const GemmExParams& params = {});

/// Row-major BLAS-compatible shim over gemm_ex — the canonical signature
/// baseline comparisons and external callers bind against:
///
///   C = alpha * op(A) * op(B) + beta * C
///
/// `transa`/`transb` accept 'n'/'N' (identity) or 't'/'T' (transpose);
/// anything else throws std::invalid_argument. op(A) is m x k, op(B) is
/// k x n, C is m x n; lda/ldb/ldc are row-major leading dimensions of the
/// *stored* operands (so with transa == 'T', a is k x m with lda >= m).
/// Routed through the process-default Context, so repeated shapes reuse
/// their cached Plan; returns its run() Status.
[[nodiscard]] Status sgemm(char transa, char transb, int m, int n, int k,
                           float alpha, const float* a, int lda,
                           const float* b, int ldb, float beta, float* c,
                           int ldc);

namespace detail {
/// Applies beta to C (beta = 0 stores zeros without reading C — the
/// overwrite semantics documented in core/gemm.hpp). Shared by gemm_ex and
/// Context so the accumulate-vs-overwrite behavior is defined in one place.
void scale_c(common::MatrixView c, float beta);
}  // namespace detail

}  // namespace autogemm
