// Wide int8 tier on AVX-VNNI: the VEX-encoded 256-bit vpdpbusd, 8 int32
// lanes on 16 ymm registers. Compiled with -mavx2 -mavxvnni
// (src/kernels/CMakeLists.txt); exports only its table (see
// kernels/qwide_kernel.hpp for why).
#include "kernels/qwide_ymm.hpp"

namespace autogemm::kernels {
namespace {

struct AvxVnni : YmmInt8 {
  static constexpr int kOffset = 128;
  // 12 accumulators + 2 B vectors (one 16-column panel) + 1 A broadcast
  // of the 16 registers.
  static constexpr int kMR = 6;
  static constexpr int kNV = 2;
  using BReg = __m256i;

  static BReg load_b(const std::int8_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void pin_b(BReg& b) { asm("" : "+v"(b)); }
  /// acc += the 4-way u8 x s8 dot product of each 32-bit lane.
  static Reg dot(Reg acc, Reg a, BReg b) {
    return _mm256_dpbusd_avx_epi32(acc, a, b);
  }
  static void quantize(FReg x, std::uint8_t* dst) {
    YmmInt8::quantize(x, kOffset, dst);
  }
};

}  // namespace

namespace detail {

constinit const QWideTable kQAvxVnniTable = qwide_detail::table<AvxVnni>();

}  // namespace detail
}  // namespace autogemm::kernels
