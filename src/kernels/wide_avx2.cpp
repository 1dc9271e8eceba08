// x86_wide AVX2 tier: 8 fp32 lanes, 16 ymm registers, maskload/maskstore
// edges. Compiled with -mavx2 -mfma (src/kernels/CMakeLists.txt); exports
// only the kernel table (see kernels/wide_kernel.hpp for why).
#include <immintrin.h>

#include "kernels/wide_kernel.hpp"

namespace autogemm::kernels {
namespace {

struct Avx2 {
  static constexpr int kLanes = 8;
  static constexpr int kRegisters = 16;
  using Reg = __m256;
  using Mask = __m256i;
  static Reg load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, Reg v) { _mm256_storeu_ps(p, v); }
  static Reg broadcast(float x) { return _mm256_set1_ps(x); }
  static Reg fmadd(Reg a, Reg b, Reg c) { return _mm256_fmadd_ps(a, b, c); }
  /// All-ones in the low n lanes, 1 <= n <= 8.
  static Mask tail_mask(int n) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(n),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static Reg load_tail(const float* p, Mask m) {
    return _mm256_maskload_ps(p, m);
  }
  static void store_tail(float* p, Mask m, Reg v) {
    _mm256_maskstore_ps(p, m, v);
  }
};

constexpr auto kEntries = wide_detail::table_entries<Avx2>();

}  // namespace

namespace detail {

constinit const WideTable kAvx2Table{
    wide_detail::kMaxDim<Avx2>, wide_detail::kMaxDim<Avx2>, kEntries.e};

}  // namespace detail
}  // namespace autogemm::kernels
