// Vector math for the transformer glue: tanh-GELU, row softmax and
// layernorm on AVX-512F (16 fp32 lanes) or AVX2 (two 8-lane halves), with
// a portable scalar twin, chosen once per process from the CPU alone.
//
// Every tier runs one algorithm template (kernels/vmath_kernel.hpp) over
// a 16-lane block type, with the same operations in the same order and no
// fused multiply-add: a reduction keeps 16 partial sums (lane j takes
// elements i with i % 16 == j) and folds them in one fixed tree. So every
// tier computes the same bits as the portable one (a NaN result is NaN on
// every tier; its payload may differ).
//
// tanh is Eigen's clamped rational approximation
// (generic_fast_tanh_float, its non-FMA clamp, where the quotient rounds
// to exactly +-1), so gelu(+inf) = +inf and gelu(-inf) = NaN, like
// std::tanh's. exp is Cephes' expf: range reduction by n = floor(x log2 e
// + 1/2), a degree-5 polynomial, and 2^n added to the exponent. Its input
// is clamped to [-88.38, 88.38]; below about -87.7 it returns exactly 0,
// so exp(-inf) = 0. Softmax feeds it only x - max(x) <= 0.
//
// The header is baseline-safe: the wide units export only their tables.
#pragma once

namespace autogemm::kernels::vmath {

enum class Isa { kPortable, kAvx2, kAvx512 };

/// "portable", "avx2" or "avx512".
const char* isa_name(Isa isa);

/// The widest tier this CPU executes (kPortable without AVX2, or on a
/// build without the wide units). Checked once per process.
Isa detect_isa();

/// Whether this CPU can run `isa`. Always true for kPortable.
bool isa_supported(Isa isa);

/// x[i] = 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))), in place. Within
/// 2e-6 max(1, |x|) of the exact function.
void gelu(float* x, long n, Isa isa = detect_isa());

/// x = exp(x - max x) / sum, in place: a row that sums to 1. A row of -inf
/// has no mass and becomes 0; a NaN or +inf anywhere makes the row NaN.
void softmax(float* x, long n, Isa isa = detect_isa());

/// out = (x - mean) / sqrt(var + eps) over one row of n values (population
/// variance, two passes). out may equal x.
void layernorm(const float* x, float* out, long n, float eps,
               Isa isa = detect_isa());

namespace detail {

/// One tier's row primitives; vmath.cpp composes them.
struct Table {
  void (*gelu)(float* x, long n);
  /// max over the row (x86 max: a NaN may or may not win).
  float (*max)(const float* x, long n);
  /// x[i] = exp(x[i] - shift); returns the sum of the new row.
  float (*exp_sum)(float* x, long n, float shift);
  float (*sum)(const float* x, long n);
  /// sum of (x[i] - mean)^2.
  float (*sq_dev_sum)(const float* x, long n, float mean);
  /// out[i] = (x[i] - shift) * scale; out may equal x.
  void (*center_scale)(const float* x, float* out, long n, float shift,
                       float scale);
};

extern const Table kAvx512Table;
extern const Table kAvx2Table;

}  // namespace detail
}  // namespace autogemm::kernels::vmath
