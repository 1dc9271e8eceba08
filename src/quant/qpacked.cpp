#include "quant/qpacked.hpp"

#include <new>

#include "kernels/qkernel.hpp"
#include "kernels/qwide.hpp"
#include "quant/quantize.hpp"

namespace autogemm::quant {

namespace {

Status validate_view(common::ConstMatrixView v, const char* name) {
  if (v.data == nullptr)
    return InvalidArgumentError(std::string(name) + ": null data");
  if (v.rows <= 0 || v.cols <= 0)
    return InvalidArgumentError(std::string(name) + ": non-positive extent");
  if (v.ld < v.cols)
    return InvalidArgumentError(std::string(name) + ": ld < cols");
  return {};
}

}  // namespace

StatusOr<QPackedA> QPackedA::create(common::ConstMatrixView a, Granularity g) {
  if (Status s = validate_view(a, "QPackedA"); !s.ok()) return s;
  const bool sse2 = kernels::detect_qwide_isa() == kernels::QWideIsa::kNone;
  QPackedA out;
  out.rows_ = a.rows;
  out.cols_ = a.cols;
  out.ld_ = kernels::qpacked_ld(a.cols);
  try {
    const std::size_t count = static_cast<std::size_t>(a.rows) *
                              static_cast<std::size_t>(out.ld_);
    out.data_.resize(count);
    if (sse2) out.data16_.resize(count);
    out.scales_ = g == Granularity::kPerChannel
                      ? per_row_scales(a)
                      : std::vector<float>(static_cast<std::size_t>(a.rows),
                                           per_tensor_scale(a));
  } catch (const std::bad_alloc&) {
    return ResourceExhaustedError("QPackedA: allocation failed");
  }
  kernels::qpack_rows(a, out.scales_.data(), out.data_.data(), out.ld_);
  if (sse2)
    kernels::qwiden_pack(out.data_.data(), out.data16_.data(), a.rows,
                         out.ld_);
  return out;
}

StatusOr<QPackedB> QPackedB::create(common::ConstMatrixView b, Granularity g) {
  if (Status s = validate_view(b, "QPackedB"); !s.ok()) return s;
  const bool wide = kernels::detect_qwide_isa() != kernels::QWideIsa::kNone;
  QPackedB out;
  out.rows_ = b.rows;
  out.cols_ = b.cols;
  out.ld_ = kernels::qpacked_ld(b.rows);
  try {
    const std::size_t count = static_cast<std::size_t>(b.cols) *
                              static_cast<std::size_t>(out.ld_);
    out.data_.resize(count);
    if (wide) {
      out.image_.resize(
          static_cast<std::size_t>(
              kernels::qwide_b_image_bytes(b.rows, b.cols)));
      out.offset_sums_.resize(static_cast<std::size_t>(b.cols));
    } else {
      out.data16_.resize(count);
    }
    out.scales_ = g == Granularity::kPerChannel
                      ? per_col_scales(b)
                      : std::vector<float>(static_cast<std::size_t>(b.cols),
                                           per_tensor_scale(b));
  } catch (const std::bad_alloc&) {
    return ResourceExhaustedError("QPackedB: allocation failed");
  }
  kernels::qpack_cols(b, out.scales_.data(), out.data_.data(), out.ld_);
  if (wide)
    kernels::qwide_pack_b(out.data_.data(), out.ld_, b.rows, b.cols,
                          out.image_.data(), out.offset_sums_.data());
  else
    kernels::qwiden_pack(out.data_.data(), out.data16_.data(), b.cols,
                         out.ld_);
  return out;
}

}  // namespace autogemm::quant
