// Vector-math tier on AVX-512F: one zmm per 16-lane block, opmask tails.
// Compiled with -mavx512f -ffp-contract=off (src/kernels/CMakeLists.txt);
// exports only its table (see kernels/vmath_kernel.hpp for why).
#include <immintrin.h>

#include "kernels/vmath_kernel.hpp"

namespace autogemm::kernels::vmath {
namespace {

struct Avx512 {
  using V = __m512;
  using M = __mmask16;

  static __mmask16 first(int r) { return static_cast<__mmask16>((1u << r) - 1u); }

  static V set1(float x) { return _mm512_set1_ps(x); }
  static V load(const float* p) { return _mm512_loadu_ps(p); }
  static void store(float* p, V v) { _mm512_storeu_ps(p, v); }
  static V load_tail(const float* p, int r, float fill) {
    return _mm512_mask_loadu_ps(_mm512_set1_ps(fill), first(r), p);
  }
  static void store_tail(float* p, int r, V v) {
    _mm512_mask_storeu_ps(p, first(r), v);
  }
  static V add(V a, V b) { return _mm512_add_ps(a, b); }
  static V sub(V a, V b) { return _mm512_sub_ps(a, b); }
  static V mul(V a, V b) { return _mm512_mul_ps(a, b); }
  static V div(V a, V b) { return _mm512_div_ps(a, b); }
  static V min(V a, V b) { return _mm512_min_ps(a, b); }
  static V max(V a, V b) { return _mm512_max_ps(a, b); }
  static V abs(V a) { return _mm512_abs_ps(a); }
  static V floor(V a) {
    return _mm512_roundscale_ps(a, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  }
  static M lt(V a, V b) { return _mm512_cmp_ps_mask(a, b, _CMP_LT_OQ); }
  static V select(M m, V a, V b) { return _mm512_mask_blend_ps(m, b, a); }
  static V pow2i(V n) {
    const __m512i e =
        _mm512_add_epi32(_mm512_cvttps_epi32(n), _mm512_set1_epi32(127));
    return _mm512_castsi512_ps(_mm512_slli_epi32(e, 23));
  }
  static __m256 high8(V v) {
    return _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(v), 1));
  }
  static float hsum(V v) {
    const __m256 s8 = _mm256_add_ps(_mm512_castps512_ps256(v), high8(v));
    const __m128 s4 = _mm_add_ps(_mm256_castps256_ps128(s8),
                                 _mm256_extractf128_ps(s8, 1));
    const __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
    return _mm_cvtss_f32(_mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 1)));
  }
  static float hmax(V v) {
    const __m256 s8 = _mm256_max_ps(_mm512_castps512_ps256(v), high8(v));
    const __m128 s4 = _mm_max_ps(_mm256_castps256_ps128(s8),
                                 _mm256_extractf128_ps(s8, 1));
    const __m128 s2 = _mm_max_ps(s4, _mm_movehl_ps(s4, s4));
    return _mm_cvtss_f32(_mm_max_ss(s2, _mm_shuffle_ps(s2, s2, 1)));
  }
};

}  // namespace

namespace detail {

constinit const Table kAvx512Table = kernel::table<Avx512>();

}  // namespace detail
}  // namespace autogemm::kernels::vmath
