#include "quant/quantize.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/qwide.hpp"

namespace autogemm::quant {

float compute_scale(float max_abs) {
  // The floor keeps an all-zero (or denormal-only) channel's scale positive
  // and finite; every element then rounds to 0 exactly.
  constexpr float kMinScale = 1e-30f;
  const float s = max_abs / kQMax;
  return s > kMinScale ? s : kMinScale;
}

float row_max_abs(const float* x, int n) {
  if (const kernels::QWideIsa isa = kernels::detect_qwide_isa();
      isa != kernels::QWideIsa::kNone)
    return kernels::qwide_max_abs(isa, x, n);
  // Eight running maxima instead of one serial chain, so the compiler can
  // vectorize it; max picks one of its inputs exactly, so the order does
  // not change the result.
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

std::vector<float> per_row_scales(common::ConstMatrixView a) {
  std::vector<float> scales(static_cast<std::size_t>(a.rows));
  for (int r = 0; r < a.rows; ++r)
    scales[static_cast<std::size_t>(r)] = compute_scale(
        row_max_abs(a.data + static_cast<long>(r) * a.ld, a.cols));
  return scales;
}

std::vector<float> per_col_scales(common::ConstMatrixView b) {
  std::vector<float> scales(static_cast<std::size_t>(b.cols), 0.0f);
  for (int r = 0; r < b.rows; ++r)
    for (int c = 0; c < b.cols; ++c)
      scales[static_cast<std::size_t>(c)] =
          std::max(scales[static_cast<std::size_t>(c)], std::fabs(b.at(r, c)));
  for (float& s : scales) s = compute_scale(s);  // each column's max |b|
  return scales;
}

float per_tensor_scale(common::ConstMatrixView m) {
  float max_abs = 0.0f;
  for (int r = 0; r < m.rows; ++r)
    max_abs = std::max(
        max_abs, row_max_abs(m.data + static_cast<long>(r) * m.ld, m.cols));
  return compute_scale(max_abs);
}

}  // namespace autogemm::quant
