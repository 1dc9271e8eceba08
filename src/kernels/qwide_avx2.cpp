// Wide int8 tier on plain AVX2 (no VNNI): 8 int32 lanes on 16 ymm
// registers. Each 4-way dot product is vpmaddubsw of |b| by a * sign(b)
// (pair sums within 2 * 127 * 127, so nothing saturates) and vpmaddwd by
// ones, with A kept signed. Compiled with -mavx2
// (src/kernels/CMakeLists.txt); exports only its table (see
// kernels/qwide_kernel.hpp for why).
#include "kernels/qwide_ymm.hpp"

namespace autogemm::kernels {
namespace {

struct Avx2 : YmmInt8 {
  static constexpr int kOffset = 0;
  // 8 accumulators + 2 x 2 B registers (raw and |b|) + the A broadcast,
  // its sign-adjusted copy, the pair sums and the ones of the 16.
  static constexpr int kMR = 3;
  static constexpr int kNV = 2;
  struct BReg {
    __m256i raw, abs;
  };

  static BReg load_b(const std::int8_t* p) {
    const __m256i raw =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    return {raw, _mm256_abs_epi8(raw)};
  }
  static void pin_b(BReg& b) { asm("" : "+v"(b.raw), "+v"(b.abs)); }
  /// acc += sum over each lane's 4 bytes of a * b, exactly.
  static Reg dot(Reg acc, Reg a, const BReg& b) {
    const __m256i pairs =
        _mm256_maddubs_epi16(b.abs, _mm256_sign_epi8(a, b.raw));
    return _mm256_add_epi32(acc,
                            _mm256_madd_epi16(pairs, _mm256_set1_epi16(1)));
  }
  static void quantize(FReg x, std::uint8_t* dst) {
    YmmInt8::quantize(x, kOffset, dst);
  }
};

}  // namespace

namespace detail {

constinit const QWideTable kQAvx2Table = qwide_detail::table<Avx2>();

}  // namespace detail
}  // namespace autogemm::kernels
