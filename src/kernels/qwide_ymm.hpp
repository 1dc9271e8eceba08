// The 256-bit epilogue and quantizer shared by the wide int8 tier's two
// ymm units (qwide_avxvnni.cpp, qwide_avx2.cpp): 8 int32 lanes,
// maskload/maskstore edges. Include it only from those units — its traits
// live in their anonymous namespaces, as kernels/qwide_kernel.hpp asks.
#pragma once

#include <immintrin.h>

#include "kernels/qwide_kernel.hpp"

namespace autogemm::kernels {
namespace {

struct YmmInt8 {
  static constexpr int kLanes = 8;
  using Reg = __m256i;
  using FReg = __m256;
  using Mask = __m256i;

  static Reg broadcast_a(const std::uint8_t* p) {
    std::int32_t x;
    std::memcpy(&x, p, sizeof x);
    return _mm256_set1_epi32(x);
  }
  static Reg zero() { return _mm256_setzero_si256(); }
  static Reg sub(Reg a, Reg b) { return _mm256_sub_epi32(a, b); }
  static FReg to_float(Reg x) { return _mm256_cvtepi32_ps(x); }
  static FReg mul(FReg a, FReg b) { return _mm256_mul_ps(a, b); }
  static FReg add(FReg a, FReg b) { return _mm256_add_ps(a, b); }
  static FReg broadcast_f(float x) { return _mm256_set1_ps(x); }
  static FReg abs_f(FReg x) {
    return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), x);
  }
  static FReg max_f(FReg a, FReg b) { return _mm256_max_ps(a, b); }
  static FReg load_f(const float* p) { return _mm256_loadu_ps(p); }
  static void store_f(float* p, FReg v) { _mm256_storeu_ps(p, v); }
  static Reg load_i(const std::int32_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  /// All-ones in the low n lanes, 1 <= n <= 8.
  static Mask tail_mask(int n) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(n),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static FReg load_f_tail(const float* p, Mask m) {
    return _mm256_maskload_ps(p, m);
  }
  static void store_f_tail(float* p, Mask m, FReg v) {
    _mm256_maskstore_ps(p, m, v);
  }
  static Reg load_i_tail(const std::int32_t* p, Mask m) {
    return _mm256_maskload_epi32(reinterpret_cast<const int*>(p), m);
  }
  /// round(x), clamped to [-127, 127], plus `offset`, as 8 bytes: the low
  /// byte of each lane, gathered into the low 64 bits.
  static void quantize(FReg x, int offset, std::uint8_t* dst) {
    Reg q = _mm256_cvtps_epi32(x);
    q = _mm256_min_epi32(_mm256_max_epi32(q, _mm256_set1_epi32(-127)),
                         _mm256_set1_epi32(127));
    q = _mm256_add_epi32(q, _mm256_set1_epi32(offset));
    const Reg low_bytes = _mm256_setr_epi8(
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,  //
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
    q = _mm256_shuffle_epi8(q, low_bytes);
    q = _mm256_permutevar8x32_epi32(q, _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst),
                     _mm256_castsi256_si128(q));
  }
};

}  // namespace
}  // namespace autogemm::kernels
