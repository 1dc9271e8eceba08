// Wide int8 tier: register-tiled widening-accumulate kernels on AVX-512
// VNNI (16 int32 lanes, 32 zmm), AVX-VNNI (8 lanes, 16 ymm) and plain AVX2
// (8 lanes, 16 ymm), chosen once per process at run time.
//
// Where the SSE2 tier (kernels/qkernel.hpp) computes one k-contiguous dot
// product per C element, these kernels use the outer-product register tile
// of the fp32 kernels (Listing 1): an mr x nv block of int32 accumulators,
// nv B vectors and one broadcast A register. One 32-bit lane of a B vector
// holds four consecutive k values of one column, so each vpdpbusd retires
// 4 multiply-accumulates per lane (64 per zmm instruction) — the x86
// counterpart of sdot's 4-way widening dot product.
//
// vpdpbusd multiplies an unsigned byte by a signed byte. The VNNI tiers
// therefore take A shifted into unsigned range (q + 128) and subtract
// 128 * sum_k b(k, c), precomputed per column at pack time; the wrapping
// int32 arithmetic makes that exact. The AVX2 tier, which has no VNNI,
// keeps A signed and multiplies |b| by a * sign(b) with vpmaddubsw (pair
// sums stay within 2 * 127 * 127 < 2^15, so nothing saturates) and
// vpmaddwd. All three are exact integer accumulations, so their results
// are bit-identical to qgemm_block_portable's.
//
// The kernels are one template (kernels/qwide_kernel.hpp) instantiated in
// one translation unit per ISA, each built with its own flags; they export
// a single data table, and this header is baseline-safe.
#pragma once

#include <cstdint>

#include "common/matrix.hpp"

namespace autogemm::kernels {

enum class QWideIsa { kNone, kAvx2, kAvxVnni, kAvx512Vnni };

/// "none", "avx2", "avx_vnni" or "avx512_vnni".
const char* qwide_isa_name(QWideIsa isa);

/// The widest int8 tier this CPU executes, kNone without AVX2 (or on a
/// build without the wide units). Checked once per process.
QWideIsa detect_qwide_isa();

/// Whether this CPU can run `isa`'s kernels. False for kNone.
bool qwide_isa_supported(QWideIsa isa);

/// B's panel image groups kQWidePanel columns; one 64-byte row of a panel
/// holds kQWideGroup consecutive k values of each of its columns.
inline constexpr int kQWidePanel = 16;
inline constexpr int kQWideGroup = 4;

/// Bytes of the panel image of a k x n B: whole panels of whole groups,
/// padded with zeros. B(k, c) sits at byte (c / 16) * qwide_panel_bytes(k)
/// + (k / 4) * 64 + (c % 16) * 4 + k % 4.
long qwide_b_image_bytes(int k, int n);

/// Bytes of one panel of a depth-k image: the step from panel to panel.
long qwide_panel_bytes(int k);

/// Builds B's panel image from its canonical int8 column pack (qpack_cols:
/// column c at cols + c * ld, k-contiguous) and writes
/// offset_sums[c] = 128 * sum_k b(k, c) for the VNNI tiers' correction.
/// The image is every int8 tier's stored B: qgemm_block_portable reads it
/// too.
void qwide_pack_b(const std::int8_t* cols, long ld, int k, int n,
                  std::int8_t* image, std::int32_t* offset_sums);

/// What `isa` adds to each quantized A value: 128 on the VNNI tiers (their
/// unsigned operand), 0 otherwise.
int qwide_a_offset(QWideIsa isa);

/// One quantized product, C = alpha * a_scales[r] * b_scales[c] * (A . B)
/// + beta * C; beta == 0 never reads C. `a` holds the m rows of A
/// quantized with a_scales plus qwide_a_offset(isa), k-contiguous, lda a
/// multiple of kQKStep (anything may fill the padding: B's is zero).
struct QWideProblem {
  int m = 0, n = 0, k = 0;
  const std::uint8_t* a = nullptr;
  long lda = 0;
  const std::int8_t* b_image = nullptr;
  const std::int32_t* b_offset_sums = nullptr;
  const float* a_scales = nullptr;
  const float* b_scales = nullptr;
  float alpha = 1.0f, beta = 0.0f;
  common::MatrixView c;
};

/// Quantizes rows of src into `isa`'s A operand (see QWideProblem::a):
/// quantize_value(x, row_scales[r]) + qwide_a_offset(isa), the [cols, ld)
/// tail set to the offset. `isa` must be supported.
void qwide_quantize_a(QWideIsa isa, common::ConstMatrixView src,
                      const float* row_scales, std::uint8_t* dst, long ld);

/// max |x[i]| over n floats, NaNs ignored, on `isa`'s vectors. Max is
/// exact, so it equals the scalar pass bit for bit. `isa` must be
/// supported.
float qwide_max_abs(QWideIsa isa, const float* x, int n);

/// Runs the whole product on `isa`'s kernels. `isa` must be supported.
/// `b_image` may start at any panel of a larger image (with the matching
/// offset_sums / b_scales / c columns), which is how qgemm splits one
/// product into column tasks.
void qwide_gemm(QWideIsa isa, const QWideProblem& p);

namespace detail {

/// One tier's entry points; qwide.cpp adds the baseline-safe checks.
struct QWideTable {
  void (*gemm)(const QWideProblem& p);
  void (*quantize_a)(common::ConstMatrixView src, const float* row_scales,
                     std::uint8_t* dst, long ld);
  float (*max_abs)(const float* x, int n);
};

extern const QWideTable kQAvx512VnniTable;
extern const QWideTable kQAvxVnniTable;
extern const QWideTable kQAvx2Table;

}  // namespace detail
}  // namespace autogemm::kernels
