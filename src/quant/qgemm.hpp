// Quantized GEMM entry points.
//
//     C = alpha * deq(q(A) * q(B)) + beta * C
//
// where q() is symmetric int8 quantization (quantize.hpp), the product
// accumulates exactly in int32 (kernels/qkernel.hpp — no intermediate
// rounding for K up to ~130,000), and deq() applies the per-channel scale
// product sa[r] * sb[c] in the fp32 requantization epilogue. beta == 0
// never reads C, matching gemm_ex semantics.
//
// ## Accuracy contract
//
// All rounding happens at the two quantization points, so the absolute
// error of one output element is bounded by the quantization noise of K
// products: with per-channel scales sa, sb it concentrates around
// sqrt(K/3) * (sa * max|B_col| + sb * max|A_row|) / 2. Output elements
// whose exact value lands near zero therefore carry arbitrarily large
// *elementwise* relative errors — the contract is stated in the norm
// metric quantized kernels are judged by: for well-conditioned operands
// (e.g. uniform [-1, 1) — no catastrophic cancellation), int8 per-channel
// GEMM stays within **1e-2 relative Frobenius error**
// (common::rel_frobenius_error) **of an fp64 reference** across the
// paper's irregular-shape set, independent of K (both signal and noise
// norms grow as sqrt(K)). The test suite and the crosscheck CLI gate pin
// exactly that bound.
// Per-tensor granularity keeps correctness but loosens per-channel's
// error whenever channel magnitudes differ.
//
// ## How a call runs
//
// One driver serves every tier: tasks of (up to 64 rows) x (whole
// 16-column panels of B), each exact int32 dot products over the full K,
// run on `pool` when it has workers (Context passes its own) and on the
// caller otherwise. With no k-split, C is the same bits either way. An
// exception thrown on a worker propagates out of qgemm (ThreadPool's
// parallel_for re-throws it) with C unspecified; Context turns it into
// kInternal and retires its pool.
//
// ## When int8 wins
//
// At compute-bound shapes vpdpbusd retires 4 MACs per int32 lane against
// one per fp32 FMA lane, and int8 moves 4x fewer operand bytes; the bench
// gate (bench_quant) requires >= 1.3x over the fp32 tier the same CPU
// runs. Memory-bound skinny shapes (decode, M = 1) win on bytes moved:
// the weight streams at one byte per element. int8 loses when operands
// are ill-conditioned (heavy cancellation) or K is tiny (quantize cost
// dominates) — serve keeps fp32 and int8 requests in separate buckets
// precisely so callers choose per request.
#pragma once

#include "common/matrix.hpp"
#include "common/status.hpp"
#include "common/threadpool.hpp"
#include "quant/qpacked.hpp"

namespace autogemm::quant {

struct QGemmOptions {
  float alpha = 1.0f;
  float beta = 1.0f;
  Granularity granularity = Granularity::kPerChannel;
  /// Forces the portable scalar kernel (crosscheck; results are identical
  /// bit-for-bit because integer accumulation is exact either way).
  bool force_portable = false;
};

/// Both operands quantized on the fly. A is (M x K) fp32, B (K x N) fp32,
/// C (M x N) fp32.
Status qgemm(common::ConstMatrixView a, common::ConstMatrixView b,
             common::MatrixView c, const QGemmOptions& opts = {},
             common::ThreadPool* pool = nullptr);

/// Constant-B path: B already quantized+packed (the LLM-serving case — the
/// weight matrix is packed once, activations quantize per call).
Status qgemm(common::ConstMatrixView a, const QPackedB& qb,
             common::MatrixView c, const QGemmOptions& opts = {},
             common::ThreadPool* pool = nullptr);

}  // namespace autogemm::quant
