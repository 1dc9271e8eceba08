// x86_wide AVX-512F tier: 16 fp32 lanes, 32 zmm registers, opmask edges.
// Compiled with -mavx512f -mfma (src/kernels/CMakeLists.txt); exports only
// the kernel table (see kernels/wide_kernel.hpp for why).
#include <immintrin.h>

#include "kernels/wide_kernel.hpp"

namespace autogemm::kernels {
namespace {

struct Avx512 {
  static constexpr int kLanes = 16;
  static constexpr int kRegisters = 32;
  using Reg = __m512;
  using Mask = __mmask16;
  static Reg load(const float* p) { return _mm512_loadu_ps(p); }
  static void store(float* p, Reg v) { _mm512_storeu_ps(p, v); }
  static Reg broadcast(float x) { return _mm512_set1_ps(x); }
  static Reg fmadd(Reg a, Reg b, Reg c) { return _mm512_fmadd_ps(a, b, c); }
  /// The low n lanes, 1 <= n <= 16.
  static Mask tail_mask(int n) {
    return static_cast<Mask>((1u << n) - 1u);
  }
  static Reg load_tail(const float* p, Mask m) {
    return _mm512_maskz_loadu_ps(m, p);
  }
  static void store_tail(float* p, Mask m, Reg v) {
    _mm512_mask_storeu_ps(p, m, v);
  }
};

constexpr auto kEntries = wide_detail::table_entries<Avx512>();

}  // namespace

namespace detail {

constinit const WideTable kAvx512Table{
    wide_detail::kMaxDim<Avx512>, wide_detail::kMaxDim<Avx512>, kEntries.e};

}  // namespace detail
}  // namespace autogemm::kernels
