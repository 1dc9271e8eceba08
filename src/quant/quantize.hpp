// Symmetric int8 quantization primitives.
//
// Scheme: symmetric, zero-point-free. A scale s maps fp32 x to
// q = clamp(round(x / s), -127, 127); dequantization is x~ = s * q. The
// scale for a channel (or tensor) is max|x| / 127, so the representable
// range exactly covers the data and the round-trip error obeys
//
//     |x - s * q(x)| <= s / 2        (round-to-nearest, no saturation)
//
// per element, with the scale of x's own channel. Per-channel
// granularity (one scale per row of A / per column of B) keeps that bound
// tied to each channel's own magnitude, which is why per-channel error is
// never worse than per-tensor on the same data (the property the tests
// pin). Symmetry matters downstream: GEMM against symmetric quantization
// needs no zero-point correction terms, so the int32 accumulator is a
// plain widening dot product (kernels/qkernel.hpp).
#pragma once

#include <vector>

#include "common/matrix.hpp"

namespace autogemm::quant {

/// Quantized range bound: symmetric int8 uses [-127, 127], never -128.
inline constexpr float kQMax = 127.0f;

/// Scale for a channel whose max absolute value is max_abs. An all-zero
/// channel gets a minimal positive scale so division is always defined
/// (every value then quantizes to 0, which is exact).
float compute_scale(float max_abs);

/// max |x[i]| over n floats, NaNs ignored; on the wide int8 tier's
/// vectors when the CPU has them (max is exact, so every path agrees).
float row_max_abs(const float* x, int n);

/// Per-row scales of a (one per row — the A-operand granularity).
std::vector<float> per_row_scales(common::ConstMatrixView a);

/// Per-column scales of b (one per column — the B-operand granularity).
std::vector<float> per_col_scales(common::ConstMatrixView b);

/// Single per-tensor scale over the whole view.
float per_tensor_scale(common::ConstMatrixView m);

}  // namespace autogemm::quant
