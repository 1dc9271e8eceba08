// Quantized packed operand formats.
//
// QPackedA / QPackedB are the int8 mirrors of core's PackedA / PackedB:
// built once per constant operand, cached by the Context's packed-operand
// LRU under the same pointer-identity + invalidate(ptr) contract, and
// reused across calls. Each carries the quantized int8 blocks *and* the
// per-channel fp32 scales the requantization epilogue needs — quantization
// happens at pack time, so a cached weight matrix is quantized exactly
// once no matter how many requests hit it.
//
// Layout is the dot-product formulation of kernels/qkernel.hpp: QPackedA
// rows and QPackedB columns are k-contiguous, leading dimension padded to
// kernels::kQKStep with zeroed tails (dtype-generic packing contract —
// buffers hold count * ld int8 *elements*). Alongside the canonical int8
// blocks each pack carries the *kernel image* of the int8 tier this CPU
// runs. On the wide tier (kernels/qwide.hpp: AVX2, AVX-VNNI, AVX-512 VNNI)
// QPackedB holds B's 16-column panel image and its per-column offset sums,
// and QPackedA needs none (its operand is rebuilt per call). On the SSE2
// tier both hold the sign-extended int16 image pmaddwd consumes (it has no
// in-register widening the way sdot does, so widening at pack time removes
// it from the inner loop; 1 + 2 bytes per element still undercuts fp32's
// 4).
#pragma once

#include <cstdint>
#include <vector>

#include "common/matrix.hpp"
#include "common/status.hpp"

namespace autogemm::quant {

/// Per-channel (per row of A / per column of B) or one scale for the whole
/// tensor. Per-channel is the default everywhere; per-tensor exists for the
/// error-ordering comparison and for weights quantized off-line by systems
/// that only ship one scale.
enum class Granularity { kPerChannel, kPerTensor };

/// A (M x K) quantized symmetric int8 with per-row scales, rows packed
/// k-contiguous.
class QPackedA {
 public:
  QPackedA() = default;

  /// Validated construction mirroring PackedA::create: rejects null data,
  /// non-positive extents or ld < cols as kInvalidArgument; allocation
  /// failure is kResourceExhausted.
  static StatusOr<QPackedA> create(common::ConstMatrixView a,
                                   Granularity g = Granularity::kPerChannel);

  const std::int8_t* row(int r) const { return data_.data() + r * ld_; }
  /// Widened int16 kernel image of row r (same values, same ld); only on
  /// the SSE2 tier (kernels::detect_qwide_isa() == kNone).
  const std::int16_t* row16(int r) const { return data16_.data() + r * ld_; }
  long row_ld() const { return ld_; }
  /// Per-row scales, rows() entries (per-tensor replicates one value).
  const float* scales() const { return scales_.data(); }
  int rows() const { return rows_; }
  int cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

 private:
  std::vector<std::int8_t> data_;
  std::vector<std::int16_t> data16_;
  std::vector<float> scales_;
  int rows_ = 0, cols_ = 0;
  long ld_ = 0;
};

/// B (K x N) quantized symmetric int8 with per-column scales, columns
/// packed k-contiguous (stored transposed).
class QPackedB {
 public:
  QPackedB() = default;

  /// Validated construction; see QPackedA::create.
  static StatusOr<QPackedB> create(common::ConstMatrixView b,
                                   Granularity g = Granularity::kPerChannel);

  const std::int8_t* col(int c) const { return data_.data() + c * ld_; }
  /// Widened int16 kernel image of column c (same values, same ld); only on
  /// the SSE2 tier (kernels::detect_qwide_isa() == kNone).
  const std::int16_t* col16(int c) const { return data16_.data() + c * ld_; }
  /// The wide tier's panel image (kernels::qwide_pack_b) and its
  /// per-column offset sums; empty on the SSE2 tier.
  const std::int8_t* wide_image() const { return image_.data(); }
  const std::int32_t* wide_offset_sums() const { return offset_sums_.data(); }
  long col_ld() const { return ld_; }
  /// Per-column scales, cols() entries.
  const float* scales() const { return scales_.data(); }
  int rows() const { return rows_; }
  int cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

 private:
  std::vector<std::int8_t> data_;
  std::vector<std::int16_t> data16_;
  std::vector<std::int8_t> image_;
  std::vector<std::int32_t> offset_sums_;
  std::vector<float> scales_;
  int rows_ = 0, cols_ = 0;
  long ld_ = 0;
};

}  // namespace autogemm::quant
