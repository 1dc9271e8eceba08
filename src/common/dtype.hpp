// Element-type axis shared by kernels, tuning records, the Context and the
// serving layer.
//
// The library started out fp32-only; the quantized tier (src/quant) adds
// int8 weights/activations with per-channel fp32 scales. bf16 is a parsed
// value with no compute path: serve admission and dnn::TransformerConfig
// reject it. DType is the discriminator that
// flows through packed-operand caching (core::Context), tuning records
// (tune::RecordKey), serve shape buckets and the obs label twins — one axis,
// declared once, so every layer agrees on the encoding.
//
// Encodings are stable on-disk values (tuning-records field 12): kF32=0,
// kI8=1, kBf16=2. Legacy record lines without the field load as kF32.
#pragma once

#include <cstdint>
#include <string>

namespace autogemm::common {

enum class DType : std::uint8_t {
  kF32 = 0,   ///< 32-bit IEEE float operands, fp32 accumulate (the default).
  kI8 = 1,    ///< int8 operands with per-channel fp32 scales, int32 accumulate.
  kBf16 = 2,  ///< bfloat16: parsed and recorded; no entry point executes it.
};

/// Short, stable label used in obs series and trace files ("f32"/"i8"/"bf16").
inline const char* dtype_name(DType d) {
  switch (d) {
    case DType::kF32: return "f32";
    case DType::kI8: return "i8";
    case DType::kBf16: return "bf16";
  }
  return "f32";
}

/// Parses the spellings accepted on CLI flags and trace lines. Returns true
/// on success. Accepts the canonical names plus common aliases
/// ("fp32"/"float32", "int8", "bfloat16").
inline bool parse_dtype(const std::string& s, DType* out) {
  if (s == "f32" || s == "fp32" || s == "float32" || s == "float") {
    *out = DType::kF32;
    return true;
  }
  if (s == "i8" || s == "int8") {
    *out = DType::kI8;
    return true;
  }
  if (s == "bf16" || s == "bfloat16") {
    *out = DType::kBf16;
    return true;
  }
  return false;
}

/// True when the on-disk integer encoding is a known DType (records loader
/// tolerance mirrors the backend-field rule: unknown values poison the line).
inline bool dtype_valid(int v) {
  return v >= 0 && v <= static_cast<int>(DType::kBf16);
}

}  // namespace autogemm::common
