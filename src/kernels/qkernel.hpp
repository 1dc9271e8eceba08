// Widening-accumulate int8 micro-kernels and quantize-as-you-pack routines.
//
// The int8 tier uses the dot-product formulation: packed A rows and packed
// B *columns* are both k-contiguous, so one int8x int8 inner product per
// C element accumulates exactly in int32 (no intermediate rounding), and a
// single fp32 requantization epilogue applies alpha/beta and the per-channel
// scales. This is the same widening outer/inner-product structure ARM's
// integer matrix extensions expose (smmla/sdot on NEON, the SME integer
// fmopa family). On baseline x86-64 the widening pair is int8 -> int16
// sign-extension (done at pack time) + pmaddwd, 8 multiply-accumulates
// per SSE2 instruction, with a portable scalar path as the reference
// semantics; a CPU with AVX2 or better runs the register-tiled wide tier
// of kernels/qwide.hpp instead.
//
// Packed-layout contract (dtype-generic mirror of packing.hpp): a packed
// buffer holds `count * ld` *elements* of the packed element type — int8_t
// here. Leading dimensions are padded to kQKStep and the tail zeroed, so
// kernels stream whole vectors with no scalar remainder loop (zeros add
// nothing to a dot product).
//
// Overflow contract: |a|,|b| <= 127, so each int32 accumulator gains at
// most 127*127 = 16129 per k step; the accumulation is exact for
// k < 2^31 / 16129 ~= 133,000 — far beyond any GEMM K this library serves
// (the tests pin K = 16384). The pmaddwd path accumulates pairs
// (2 * 16129 per lane-step), giving the same bound.
#pragma once

#include <cstdint>

#include "common/matrix.hpp"

namespace autogemm::kernels {

/// k-dimension padding quantum for packed int8 buffers. Leading dimensions
/// rounded up to this keep the SIMD kernels remainder-free.
inline constexpr int kQKStep = 16;

/// Rounds a k extent up to the packed leading dimension.
inline long qpacked_ld(int k) {
  return (static_cast<long>(k) + kQKStep - 1) / kQKStep * kQKStep;
}

/// Quantizes one fp32 value against `scale` into a saturated int8 in
/// [-127, 127] (symmetric — -128 is never produced, so negation is safe).
std::int8_t quantize_value(float x, float scale);

/// Quantize-and-pack rows of src: dst row r holds src(r, :) quantized with
/// row_scales[r], k-contiguous. dst must hold src.rows * dst_ld int8
/// elements (dst_ld >= qpacked_ld(src.cols)); the [cols, dst_ld) tail of
/// every row is zeroed.
void qpack_rows(common::ConstMatrixView src, const float* row_scales,
                std::int8_t* dst, long dst_ld);

/// Quantize-and-pack columns of src transposed: dst row c holds src(:, c)
/// quantized with col_scales[c], k-contiguous. dst must hold
/// src.cols * dst_ld int8 elements (dst_ld >= qpacked_ld(src.rows)); tails
/// zeroed as in qpack_rows.
void qpack_cols(common::ConstMatrixView src, const float* col_scales,
                std::int8_t* dst, long dst_ld);

/// Portable reference kernel: acc(r, c) = sum_k a[r*lda + k] * b[c*ldb + k]
/// over k in [0, kc), widening every product to int32. Overwrites acc
/// (rows x cols, leading dimension ldacc). Both operands are packed
/// k-contiguous (b rows are logical B columns).
void qgemm_block_portable(int rows, int cols, int kc, const std::int8_t* a,
                          long lda, const std::int8_t* b, long ldb,
                          std::int32_t* acc, long ldacc);

/// Quantize-and-pack rows directly into the *widened* int16 kernel image:
/// same values as qpack_rows (int8 range), stored sign-extended so the
/// multiply kernel skips the in-loop widening step entirely. Same
/// rows/cols/dst_ld element contract, zeroed tails.
void qpack_rows_i16(common::ConstMatrixView src, const float* row_scales,
                    std::int16_t* dst, long dst_ld);

/// Sign-extends an existing int8 pack (count rows of ld elements) into its
/// int16 kernel image (same ld). Used to derive the image from canonical
/// int8 blocks packed earlier.
void qwiden_pack(const std::int8_t* src, std::int16_t* dst, long count,
                 long ld);

/// The SSE2 tier's kernel: both operands already widened to int16 (values
/// still in int8 range, so pmaddwd pair-sums cannot overflow), so every
/// iteration is load + pmaddwd + paddd with no widening tax. Bit-identical
/// to qgemm_block_portable — integer accumulation is exact. Requires
/// lda/ldb >= qpacked_ld(kc) with zeroed tails (the packers guarantee
/// this). Portable fallback casts per element.
void qgemm_block_i16(int rows, int cols, int kc, const std::int16_t* a,
                     long lda, const std::int16_t* b, long ldb,
                     std::int32_t* acc, long ldacc);

/// True when qgemm_block_i16 runs a vectorized widening path on this host.
bool qgemm_has_simd();

/// Requantization epilogue:
///   c(r, c) = alpha * a_scales[r] * b_scales[c] * acc(r, c) + beta * c(r, c)
/// beta == 0 never reads C (NaN/uninitialized storage is fine, matching
/// gemm_ex semantics).
void requantize_block(common::MatrixView c, const std::int32_t* acc,
                      long ldacc, const float* a_scales, const float* b_scales,
                      float alpha, float beta);

}  // namespace autogemm::kernels
