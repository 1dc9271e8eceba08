#include "quant/quantize.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/qkernel.hpp"

namespace autogemm::quant {

float compute_scale(float max_abs) {
  // The floor keeps an all-zero (or denormal-only) channel's scale positive
  // and finite; every element then rounds to 0 exactly.
  constexpr float kMinScale = 1e-30f;
  const float s = max_abs / kQMax;
  return s > kMinScale ? s : kMinScale;
}

namespace {

/// max |x[i]| over n floats, NaNs ignored. Eight running maxima instead of
/// one serial chain, so the compiler can vectorize it; max picks one of
/// its inputs exactly, so the order does not change the result.
float row_max_abs(const float* x, int n) {
  constexpr int kWays = 8;
  float m[kWays] = {};
  int c = 0;
  for (; c + kWays <= n; c += kWays)
    for (int j = 0; j < kWays; ++j) m[j] = std::max(m[j], std::fabs(x[c + j]));
  float max_abs = 0.0f;
  for (; c < n; ++c) max_abs = std::max(max_abs, std::fabs(x[c]));
  for (float v : m) max_abs = std::max(max_abs, v);
  return max_abs;
}

}  // namespace

std::vector<float> per_row_scales(common::ConstMatrixView a) {
  std::vector<float> scales(static_cast<std::size_t>(a.rows));
  for (int r = 0; r < a.rows; ++r)
    scales[static_cast<std::size_t>(r)] = compute_scale(
        row_max_abs(a.data + static_cast<long>(r) * a.ld, a.cols));
  return scales;
}

std::vector<float> per_col_scales(common::ConstMatrixView b) {
  std::vector<float> max_abs(static_cast<std::size_t>(b.cols), 0.0f);
  for (int r = 0; r < b.rows; ++r)
    for (int c = 0; c < b.cols; ++c)
      max_abs[static_cast<std::size_t>(c)] =
          std::max(max_abs[static_cast<std::size_t>(c)], std::fabs(b.at(r, c)));
  std::vector<float> scales(static_cast<std::size_t>(b.cols));
  for (int c = 0; c < b.cols; ++c)
    scales[static_cast<std::size_t>(c)] =
        compute_scale(max_abs[static_cast<std::size_t>(c)]);
  return scales;
}

float per_tensor_scale(common::ConstMatrixView m) {
  float max_abs = 0.0f;
  for (int r = 0; r < m.rows; ++r)
    max_abs = std::max(
        max_abs, row_max_abs(m.data + static_cast<long>(r) * m.ld, m.cols));
  return compute_scale(max_abs);
}

void quantize_rows(common::ConstMatrixView src, const float* scales,
                   std::int8_t* dst, long dst_ld) {
  for (int r = 0; r < src.rows; ++r) {
    std::int8_t* drow = dst + static_cast<long>(r) * dst_ld;
    for (int c = 0; c < src.cols; ++c)
      drow[c] = kernels::quantize_value(src.at(r, c), scales[r]);
  }
}

void dequantize_rows(const std::int8_t* src, long src_ld, const float* scales,
                     common::MatrixView dst) {
  for (int r = 0; r < dst.rows; ++r) {
    const std::int8_t* srow = src + static_cast<long>(r) * src_ld;
    for (int c = 0; c < dst.cols; ++c)
      dst.at(r, c) = scales[r] * static_cast<float>(srow[c]);
  }
}

float round_trip_bound(const float* scales, std::size_t count) {
  float max_scale = 0.0f;
  for (std::size_t i = 0; i < count; ++i)
    max_scale = std::max(max_scale, scales[i]);
  return 0.5f * max_scale;
}

}  // namespace autogemm::quant
