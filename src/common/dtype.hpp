// Element-type axis shared by kernels, the Context and the serving layer.
//
// The library started out fp32-only; the quantized tier (src/quant) adds
// int8 weights/activations with per-channel fp32 scales. DType is the
// discriminator that flows through packed-operand caching (core::Context),
// serve shape buckets and the obs label twins — one axis, declared once, so
// every layer agrees on the encoding. Every entry point that takes a DType
// from outside (serve admission, batch members, dnn::TransformerConfig)
// rejects a value outside this enum.
//
// Tuning records carry no dtype: they are fp32 configs, because int8 calls
// never resolve a plan (tune/records.hpp has the legacy-field rule).
#pragma once

#include <cstdint>
#include <string>

namespace autogemm::common {

enum class DType : std::uint8_t {
  kF32 = 0,  ///< 32-bit IEEE float operands, fp32 accumulate (the default).
  kI8 = 1,   ///< int8 operands with per-channel fp32 scales, int32 accumulate.
};

/// Short, stable label used in obs series and trace files ("f32"/"i8");
/// "unknown" for a value outside the enum (in rejection messages).
inline const char* dtype_name(DType d) {
  switch (d) {
    case DType::kF32: return "f32";
    case DType::kI8: return "i8";
  }
  return "unknown";
}

/// Parses the spellings accepted on CLI flags and trace lines. Returns true
/// on success. Accepts the canonical names plus common aliases
/// ("fp32"/"float32", "int8").
inline bool parse_dtype(const std::string& s, DType* out) {
  if (s == "f32" || s == "fp32" || s == "float32" || s == "float") {
    *out = DType::kF32;
    return true;
  }
  if (s == "i8" || s == "int8") {
    *out = DType::kI8;
    return true;
  }
  return false;
}

}  // namespace autogemm::common
