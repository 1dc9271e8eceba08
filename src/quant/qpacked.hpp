// Quantized packed operand formats.
//
// QPackedB is the int8 mirror of core's PackedB: built once per constant
// operand, cached by the Context's packed-operand LRU under the same
// pointer-identity + invalidate(ptr) contract, and reused across calls. It
// carries the quantized int8 blocks *and* the per-channel fp32 scales the
// requantization epilogue needs — quantization happens at pack time, so a
// cached weight matrix is quantized exactly once no matter how many
// requests hit it. quant::qgemm quantizes A per call, straight into the
// running tier's format.
//
// QPackedB stores one image of B: the 16-column panel image of
// kernels/qwide.hpp with its per-column offset sums, which the wide tier
// (AVX2, AVX-VNNI, AVX-512 VNNI) and the portable reference kernel both
// read, so a weight is resident at one byte per element. The SSE2 tier,
// which has no in-register widening the way sdot does, reads a
// sign-extended int16 image of B instead (widening at pack time removes it
// from pmaddwd's inner loop).
//
// QPackedA quantizes a whole A up front: rows k-contiguous, leading
// dimension padded to kernels::kQKStep with zeroed tails (dtype-generic
// packing contract — buffers hold count * ld int8 *elements*). No
// execution path reads it; it times A's quantization on its own.
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
  long row_ld() const { return ld_; }
  /// Per-row scales, rows() entries (per-tensor replicates one value).
  const float* scales() const { return scales_.data(); }
  int rows() const { return rows_; }
  int cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

 private:
  std::vector<std::int8_t> data_;
  std::vector<float> scales_;
  int rows_ = 0, cols_ = 0;
  long ld_ = 0;
};

/// B (K x N) quantized symmetric int8 with per-column scales, stored as
/// its panel image.
class QPackedB {
 public:
  QPackedB() = default;

  /// Validated construction; see QPackedA::create.
  static StatusOr<QPackedB> create(common::ConstMatrixView b,
                                   Granularity g = Granularity::kPerChannel);

  /// Widened int16 kernel image of column c (k-contiguous, col_ld()
  /// elements per column); only on the SSE2 tier
  /// (kernels::detect_qwide_isa() == kNone).
  const std::int16_t* col16(int c) const { return data16_.data() + c * ld_; }
  /// The panel image (kernels::qwide_pack_b) and its per-column offset
  /// sums, on every tier.
  const std::int8_t* panel_image() const { return image_.data(); }
  const std::int32_t* offset_sums() const { return offset_sums_.data(); }
  long col_ld() const { return ld_; }
  /// Per-column scales, cols() entries.
  const float* scales() const { return scales_.data(); }
  int rows() const { return rows_; }
  int cols() const { return cols_; }
  bool empty() const { return image_.empty(); }

 private:
  std::vector<std::int16_t> data16_;
  std::vector<std::int8_t> image_;
  std::vector<std::int32_t> offset_sums_;
  std::vector<float> scales_;
  int rows_ = 0, cols_ = 0;
  long ld_ = 0;
};

}  // namespace autogemm::quant
