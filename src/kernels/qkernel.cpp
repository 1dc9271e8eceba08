#include "kernels/qkernel.hpp"

#include <cassert>
#include <cmath>
#include <cstring>

#include "simd/vec.hpp"  // for the AUTOGEMM_SIMD_* platform guards

namespace autogemm::kernels {

namespace {

/// The quantizer body over a precomputed reciprocal — packing multiplies
/// instead of dividing (a division per element would dominate the per-call
/// activation-quantization cost). lrintf uses the current rounding mode
/// (round-to-nearest-even, never changed by this library).
inline std::int8_t quantize_inv(float x, float inv_scale) {
  const long q = lrintf(x * inv_scale);
  const long clamped = q < -127 ? -127 : (q > 127 ? 127 : q);
  return static_cast<std::int8_t>(clamped);
}

}  // namespace

std::int8_t quantize_value(float x, float scale) {
  if (scale <= 0.0f) return 0;
  return quantize_inv(x, 1.0f / scale);
}

void qpack_rows(common::ConstMatrixView src, const float* row_scales,
                std::int8_t* dst, long dst_ld) {
  assert(dst_ld >= qpacked_ld(src.cols));
  for (int r = 0; r < src.rows; ++r) {
    std::int8_t* drow = dst + static_cast<long>(r) * dst_ld;
    const float inv = row_scales[r] > 0.0f ? 1.0f / row_scales[r] : 0.0f;
    const float* srow = src.data + static_cast<long>(r) * src.ld;
    for (int k = 0; k < src.cols; ++k) drow[k] = quantize_inv(srow[k], inv);
    std::memset(drow + src.cols, 0,
                static_cast<std::size_t>(dst_ld - src.cols));
  }
}

void qpack_cols(common::ConstMatrixView src, const float* col_scales,
                std::int8_t* dst, long dst_ld) {
  assert(dst_ld >= qpacked_ld(src.rows));
  for (int c = 0; c < src.cols; ++c) {
    std::int8_t* drow = dst + static_cast<long>(c) * dst_ld;
    const float inv = col_scales[c] > 0.0f ? 1.0f / col_scales[c] : 0.0f;
    for (int k = 0; k < src.rows; ++k)
      drow[k] = quantize_inv(src.at(k, c), inv);
    std::memset(drow + src.rows, 0,
                static_cast<std::size_t>(dst_ld - src.rows));
  }
}

void qpack_rows_i16(common::ConstMatrixView src, const float* row_scales,
                    std::int16_t* dst, long dst_ld) {
  assert(dst_ld >= qpacked_ld(src.cols));
  for (int r = 0; r < src.rows; ++r) {
    std::int16_t* drow = dst + static_cast<long>(r) * dst_ld;
    const float inv = row_scales[r] > 0.0f ? 1.0f / row_scales[r] : 0.0f;
    const float* srow = src.data + static_cast<long>(r) * src.ld;
    for (int k = 0; k < src.cols; ++k) drow[k] = quantize_inv(srow[k], inv);
    for (long k = src.cols; k < dst_ld; ++k) drow[k] = 0;
  }
}

void qwiden_pack(const std::int8_t* src, std::int16_t* dst, long count,
                 long ld) {
  for (long i = 0; i < count * ld; ++i) dst[i] = src[i];
}

void qgemm_block_portable(int rows, int cols, int kc, const std::int8_t* a,
                          long lda, const std::int8_t* b, long ldb,
                          std::int32_t* acc, long ldacc) {
  for (int r = 0; r < rows; ++r) {
    const std::int8_t* arow = a + static_cast<long>(r) * lda;
    std::int32_t* accrow = acc + static_cast<long>(r) * ldacc;
    for (int c = 0; c < cols; ++c) {
      const std::int8_t* bcol = b + static_cast<long>(c) * ldb;
      std::int32_t sum = 0;
      for (int k = 0; k < kc; ++k)
        sum += static_cast<std::int32_t>(arow[k]) *
               static_cast<std::int32_t>(bcol[k]);
      accrow[c] = sum;
    }
  }
}

#if defined(AUTOGEMM_SIMD_SSE)

namespace {

inline std::int32_t hsum_epi32(__m128i v) {
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(v);
}

}  // namespace

bool qgemm_has_simd() { return true; }

void qgemm_block_i16(int rows, int cols, int kc, const std::int16_t* a,
                     long lda, const std::int16_t* b, long ldb,
                     std::int32_t* acc, long ldacc) {
  // Chunks of 8 int16 lanes; the packed ld (multiple of kQKStep = 16) and
  // zeroed tails keep whole-chunk streaming exact.
  const int kchunks = static_cast<int>((kc + 7) / 8);
  assert(lda >= static_cast<long>(kchunks) * 8);
  assert(ldb >= static_cast<long>(kchunks) * 8);
  int r = 0;
  for (; r + 2 <= rows; r += 2) {
    const std::int16_t* a0 = a + static_cast<long>(r) * lda;
    const std::int16_t* a1 = a0 + lda;
    std::int32_t* acc0row = acc + static_cast<long>(r) * ldacc;
    std::int32_t* acc1row = acc0row + ldacc;
    int c = 0;
    for (; c + 4 <= cols; c += 4) {
      const std::int16_t* bp[4] = {b + static_cast<long>(c) * ldb,
                                   b + static_cast<long>(c + 1) * ldb,
                                   b + static_cast<long>(c + 2) * ldb,
                                   b + static_cast<long>(c + 3) * ldb};
      __m128i s0[4] = {_mm_setzero_si128(), _mm_setzero_si128(),
                       _mm_setzero_si128(), _mm_setzero_si128()};
      __m128i s1[4] = {_mm_setzero_si128(), _mm_setzero_si128(),
                       _mm_setzero_si128(), _mm_setzero_si128()};
      for (int ch = 0; ch < kchunks; ++ch) {
        const long off = static_cast<long>(ch) * 8;
        const __m128i av0 =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(a0 + off));
        const __m128i av1 =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(a1 + off));
        for (int j = 0; j < 4; ++j) {
          const __m128i bv =
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(bp[j] + off));
          s0[j] = _mm_add_epi32(s0[j], _mm_madd_epi16(av0, bv));
          s1[j] = _mm_add_epi32(s1[j], _mm_madd_epi16(av1, bv));
        }
      }
      for (int j = 0; j < 4; ++j) {
        acc0row[c + j] = hsum_epi32(s0[j]);
        acc1row[c + j] = hsum_epi32(s1[j]);
      }
    }
    for (; c < cols; ++c) {
      const std::int16_t* bcol = b + static_cast<long>(c) * ldb;
      __m128i sv0 = _mm_setzero_si128(), sv1 = _mm_setzero_si128();
      for (int ch = 0; ch < kchunks; ++ch) {
        const long off = static_cast<long>(ch) * 8;
        const __m128i bv =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(bcol + off));
        sv0 = _mm_add_epi32(
            sv0, _mm_madd_epi16(_mm_loadu_si128(
                                    reinterpret_cast<const __m128i*>(a0 + off)),
                                bv));
        sv1 = _mm_add_epi32(
            sv1, _mm_madd_epi16(_mm_loadu_si128(
                                    reinterpret_cast<const __m128i*>(a1 + off)),
                                bv));
      }
      acc0row[c] = hsum_epi32(sv0);
      acc1row[c] = hsum_epi32(sv1);
    }
  }
  for (; r < rows; ++r) {
    const std::int16_t* arow = a + static_cast<long>(r) * lda;
    std::int32_t* accrow = acc + static_cast<long>(r) * ldacc;
    int c = 0;
    for (; c + 4 <= cols; c += 4) {
      const std::int16_t* bp[4] = {b + static_cast<long>(c) * ldb,
                                   b + static_cast<long>(c + 1) * ldb,
                                   b + static_cast<long>(c + 2) * ldb,
                                   b + static_cast<long>(c + 3) * ldb};
      __m128i sv[4] = {_mm_setzero_si128(), _mm_setzero_si128(),
                       _mm_setzero_si128(), _mm_setzero_si128()};
      for (int ch = 0; ch < kchunks; ++ch) {
        const long off = static_cast<long>(ch) * 8;
        const __m128i av =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(arow + off));
        for (int j = 0; j < 4; ++j) {
          const __m128i bv =
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(bp[j] + off));
          sv[j] = _mm_add_epi32(sv[j], _mm_madd_epi16(av, bv));
        }
      }
      for (int j = 0; j < 4; ++j) accrow[c + j] = hsum_epi32(sv[j]);
    }
    for (; c < cols; ++c) {
      const std::int16_t* bcol = b + static_cast<long>(c) * ldb;
      __m128i accv = _mm_setzero_si128();
      for (int ch = 0; ch < kchunks; ++ch) {
        const long off = static_cast<long>(ch) * 8;
        accv = _mm_add_epi32(
            accv,
            _mm_madd_epi16(
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(arow + off)),
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(bcol + off))));
      }
      accrow[c] = hsum_epi32(accv);
    }
  }
}

#else  // !AUTOGEMM_SIMD_SSE

bool qgemm_has_simd() { return false; }

void qgemm_block_i16(int rows, int cols, int kc, const std::int16_t* a,
                     long lda, const std::int16_t* b, long ldb,
                     std::int32_t* acc, long ldacc) {
  for (int r = 0; r < rows; ++r) {
    const std::int16_t* arow = a + static_cast<long>(r) * lda;
    std::int32_t* accrow = acc + static_cast<long>(r) * ldacc;
    for (int c = 0; c < cols; ++c) {
      const std::int16_t* bcol = b + static_cast<long>(c) * ldb;
      std::int32_t sum = 0;
      for (int k = 0; k < kc; ++k)
        sum += static_cast<std::int32_t>(arow[k]) *
               static_cast<std::int32_t>(bcol[k]);
      accrow[c] = sum;
    }
  }
}

#endif

void requantize_block(common::MatrixView c, const std::int32_t* acc,
                      long ldacc, const float* a_scales, const float* b_scales,
                      float alpha, float beta) {
  for (int r = 0; r < c.rows; ++r) {
    const std::int32_t* accrow = acc + static_cast<long>(r) * ldacc;
    const float sa = alpha * a_scales[r];
    if (beta == 0.0f) {
      for (int j = 0; j < c.cols; ++j)
        c.at(r, j) = sa * b_scales[j] * static_cast<float>(accrow[j]);
    } else {
      for (int j = 0; j < c.cols; ++j)
        c.at(r, j) = sa * b_scales[j] * static_cast<float>(accrow[j]) +
                     beta * c.at(r, j);
    }
  }
}

}  // namespace autogemm::kernels
