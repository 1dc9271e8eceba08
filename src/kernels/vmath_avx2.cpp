// Vector-math tier on AVX2: a 16-lane block is two ymm halves (lanes 0-7
// and 8-15), maskload/maskstore tails. Compiled with -mavx2
// -ffp-contract=off (src/kernels/CMakeLists.txt); exports only its table
// (see kernels/vmath_kernel.hpp for why).
#include <immintrin.h>

#include "kernels/vmath_kernel.hpp"

namespace autogemm::kernels::vmath {
namespace {

struct Avx2 {
  struct V {
    __m256 lo, hi;
  };
  using M = V;  // all-ones lanes where true

  /// All-ones in the low r lanes of 8 (none for r <= 0, all for r >= 8).
  static __m256i first8(int r) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(r),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static __m256 load8(const float* p, int r, float fill) {
    const __m256i m = first8(r);
    return _mm256_blendv_ps(_mm256_set1_ps(fill), _mm256_maskload_ps(p, m),
                            _mm256_castsi256_ps(m));
  }

  static V set1(float x) { return {_mm256_set1_ps(x), _mm256_set1_ps(x)}; }
  static V load(const float* p) {
    return {_mm256_loadu_ps(p), _mm256_loadu_ps(p + 8)};
  }
  static void store(float* p, V v) {
    _mm256_storeu_ps(p, v.lo);
    _mm256_storeu_ps(p + 8, v.hi);
  }
  static V load_tail(const float* p, int r, float fill) {
    return {load8(p, r, fill),
            r > 8 ? load8(p + 8, r - 8, fill) : _mm256_set1_ps(fill)};
  }
  static void store_tail(float* p, int r, V v) {
    _mm256_maskstore_ps(p, first8(r), v.lo);
    if (r > 8) _mm256_maskstore_ps(p + 8, first8(r - 8), v.hi);
  }
  static V add(V a, V b) {
    return {_mm256_add_ps(a.lo, b.lo), _mm256_add_ps(a.hi, b.hi)};
  }
  static V sub(V a, V b) {
    return {_mm256_sub_ps(a.lo, b.lo), _mm256_sub_ps(a.hi, b.hi)};
  }
  static V mul(V a, V b) {
    return {_mm256_mul_ps(a.lo, b.lo), _mm256_mul_ps(a.hi, b.hi)};
  }
  static V div(V a, V b) {
    return {_mm256_div_ps(a.lo, b.lo), _mm256_div_ps(a.hi, b.hi)};
  }
  static V min(V a, V b) {
    return {_mm256_min_ps(a.lo, b.lo), _mm256_min_ps(a.hi, b.hi)};
  }
  static V max(V a, V b) {
    return {_mm256_max_ps(a.lo, b.lo), _mm256_max_ps(a.hi, b.hi)};
  }
  static V abs(V a) {
    const __m256 sign = _mm256_set1_ps(-0.0f);
    return {_mm256_andnot_ps(sign, a.lo), _mm256_andnot_ps(sign, a.hi)};
  }
  static V floor(V a) { return {_mm256_floor_ps(a.lo), _mm256_floor_ps(a.hi)}; }
  static M lt(V a, V b) {
    return {_mm256_cmp_ps(a.lo, b.lo, _CMP_LT_OQ),
            _mm256_cmp_ps(a.hi, b.hi, _CMP_LT_OQ)};
  }
  static V select(M m, V a, V b) {
    return {_mm256_blendv_ps(b.lo, a.lo, m.lo),
            _mm256_blendv_ps(b.hi, a.hi, m.hi)};
  }
  static __m256 pow2i8(__m256 n) {
    const __m256i e =
        _mm256_add_epi32(_mm256_cvttps_epi32(n), _mm256_set1_epi32(127));
    return _mm256_castsi256_ps(_mm256_slli_epi32(e, 23));
  }
  static V pow2i(V n) { return {pow2i8(n.lo), pow2i8(n.hi)}; }
  static float hsum(V v) {
    const __m256 s8 = _mm256_add_ps(v.lo, v.hi);
    const __m128 s4 = _mm_add_ps(_mm256_castps256_ps128(s8),
                                 _mm256_extractf128_ps(s8, 1));
    const __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
    return _mm_cvtss_f32(_mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 1)));
  }
  static float hmax(V v) {
    const __m256 s8 = _mm256_max_ps(v.lo, v.hi);
    const __m128 s4 = _mm_max_ps(_mm256_castps256_ps128(s8),
                                 _mm256_extractf128_ps(s8, 1));
    const __m128 s2 = _mm_max_ps(s4, _mm_movehl_ps(s4, s4));
    return _mm_cvtss_f32(_mm_max_ss(s2, _mm_shuffle_ps(s2, s2, 1)));
  }
};

}  // namespace

namespace detail {

constinit const Table kAvx2Table = kernel::table<Avx2>();

}  // namespace detail
}  // namespace autogemm::kernels::vmath
