// Wide int8 tier on AVX-512 VNNI: 16 int32 lanes, 32 zmm registers,
// vpdpbusd, opmask edges. Compiled with -mavx512f -mavx512vnni
// (src/kernels/CMakeLists.txt); exports only its table (see
// kernels/qwide_kernel.hpp for why).
#include <immintrin.h>

#include "kernels/qwide_kernel.hpp"

namespace autogemm::kernels {
namespace {

struct Avx512Vnni {
  static constexpr int kLanes = 16;
  static constexpr int kOffset = 128;
  // 24 accumulators + 4 B vectors + 1 A broadcast of the 32 registers.
  static constexpr int kMR = 6;
  static constexpr int kNV = 4;
  using Reg = __m512i;
  using FReg = __m512;
  using Mask = __mmask16;
  using BReg = __m512i;

  static BReg load_b(const std::int8_t* p) { return _mm512_loadu_si512(p); }
  static void pin_b(BReg& b) { asm("" : "+v"(b)); }
  static Reg broadcast_a(const std::uint8_t* p) {
    std::int32_t x;
    std::memcpy(&x, p, sizeof x);
    return _mm512_set1_epi32(x);
  }
  /// acc += the 4-way u8 x s8 dot product of each 32-bit lane.
  static Reg dot(Reg acc, Reg a, BReg b) {
    return _mm512_dpbusd_epi32(acc, a, b);
  }
  static Reg zero() { return _mm512_setzero_si512(); }
  static Reg sub(Reg a, Reg b) { return _mm512_sub_epi32(a, b); }
  static FReg to_float(Reg x) { return _mm512_cvtepi32_ps(x); }
  static FReg mul(FReg a, FReg b) { return _mm512_mul_ps(a, b); }
  static FReg add(FReg a, FReg b) { return _mm512_add_ps(a, b); }
  static FReg broadcast_f(float x) { return _mm512_set1_ps(x); }
  static FReg abs_f(FReg x) { return _mm512_abs_ps(x); }
  static FReg max_f(FReg a, FReg b) { return _mm512_max_ps(a, b); }
  static FReg load_f(const float* p) { return _mm512_loadu_ps(p); }
  static void store_f(float* p, FReg v) { _mm512_storeu_ps(p, v); }
  static Reg load_i(const std::int32_t* p) { return _mm512_loadu_si512(p); }
  /// The low n lanes, 1 <= n <= 16.
  static Mask tail_mask(int n) { return static_cast<Mask>((1u << n) - 1u); }
  static FReg load_f_tail(const float* p, Mask m) {
    return _mm512_maskz_loadu_ps(m, p);
  }
  static void store_f_tail(float* p, Mask m, FReg v) {
    _mm512_mask_storeu_ps(p, m, v);
  }
  static Reg load_i_tail(const std::int32_t* p, Mask m) {
    return _mm512_maskz_loadu_epi32(m, p);
  }
  /// round(x), clamped to [-127, 127], plus kOffset, as 16 bytes.
  static void quantize(FReg x, std::uint8_t* dst) {
    Reg q = _mm512_cvtps_epi32(x);
    q = _mm512_min_epi32(_mm512_max_epi32(q, _mm512_set1_epi32(-127)),
                         _mm512_set1_epi32(127));
    q = _mm512_add_epi32(q, _mm512_set1_epi32(kOffset));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), _mm512_cvtepi32_epi8(q));
  }
};

}  // namespace

namespace detail {

constinit const QWideTable kQAvx512VnniTable =
    qwide_detail::table<Avx512Vnni>();

}  // namespace detail
}  // namespace autogemm::kernels
