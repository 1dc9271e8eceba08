// Run-time selection and row composition for the vector-math tier, plus
// its portable twin: the same template over a 16-float array. Built with
// the baseline flags and -ffp-contract=off: nothing here executes a wide
// instruction, and every expression rounds like the wide units' intrinsics.
#include "kernels/vmath.hpp"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "kernels/vmath_kernel.hpp"

namespace autogemm::kernels::vmath {
namespace {

constexpr int kB = kernel::kBlock;

/// Lane j of each op is the scalar expression the wide units' intrinsic
/// computes: x86 min/max return the second operand unless the first
/// compares strictly less/greater, and cvttps2dq gives 0x80000000 for NaN
/// and anything out of int32 range.
struct Portable {
  struct V {
    float v[kB];
  };
  struct M {
    bool m[kB];
  };

  template <class F>
  static V map(F f) {
    V out;
    for (int j = 0; j < kB; ++j) out.v[j] = f(j);
    return out;
  }

  static V set1(float x) {
    return map([x](int) { return x; });
  }
  static V load(const float* p) {
    return map([p](int j) { return p[j]; });
  }
  static void store(float* p, V v) { std::memcpy(p, v.v, sizeof v.v); }
  static V load_tail(const float* p, int r, float fill) {
    return map([=](int j) { return j < r ? p[j] : fill; });
  }
  static void store_tail(float* p, int r, V v) {
    std::memcpy(p, v.v, sizeof(float) * static_cast<unsigned>(r));
  }
  static V add(V a, V b) {
    return map([&](int j) { return a.v[j] + b.v[j]; });
  }
  static V sub(V a, V b) {
    return map([&](int j) { return a.v[j] - b.v[j]; });
  }
  static V mul(V a, V b) {
    return map([&](int j) { return a.v[j] * b.v[j]; });
  }
  static V div(V a, V b) {
    return map([&](int j) { return a.v[j] / b.v[j]; });
  }
  static float min1(float a, float b) { return a < b ? a : b; }
  static float max1(float a, float b) { return a > b ? a : b; }
  static V min(V a, V b) {
    return map([&](int j) { return min1(a.v[j], b.v[j]); });
  }
  static V max(V a, V b) {
    return map([&](int j) { return max1(a.v[j], b.v[j]); });
  }
  static V abs(V a) {
    return map([&](int j) { return std::fabs(a.v[j]); });
  }
  static V floor(V a) {
    return map([&](int j) { return std::floor(a.v[j]); });
  }
  static M lt(V a, V b) {
    M out;
    for (int j = 0; j < kB; ++j) out.m[j] = a.v[j] < b.v[j];
    return out;
  }
  static V select(M m, V a, V b) {
    return map([&](int j) { return m.m[j] ? a.v[j] : b.v[j]; });
  }
  static V pow2i(V n) {
    return map([&](int j) {
      const float f = n.v[j];
      const std::uint32_t i =
          f >= -2147483648.0f && f < 2147483648.0f
              ? static_cast<std::uint32_t>(static_cast<std::int32_t>(f))
              : 0x80000000u;
      const std::uint32_t bits = (i + 127u) << 23;
      float out;
      std::memcpy(&out, &bits, sizeof out);
      return out;
    });
  }
  template <class Op>
  static float fold(V v, Op op) {
    for (int w = kB / 2; w >= 1; w /= 2)
      for (int j = 0; j < w; ++j) v.v[j] = op(v.v[j], v.v[j + w]);
    return v.v[0];
  }
  static float hsum(V v) {
    return fold(v, [](float a, float b) { return a + b; });
  }
  static float hmax(V v) { return fold(v, max1); }
};

constexpr detail::Table kPortableTable = kernel::table<Portable>();

struct Cpu {
  bool avx2 = false;
  bool avx512 = false;
};

const Cpu& cpu() {
  static const Cpu c = [] {
    Cpu x;
#if defined(AUTOGEMM_X86_WIDE)
    __builtin_cpu_init();
    x.avx2 = __builtin_cpu_supports("avx2");
    x.avx512 = __builtin_cpu_supports("avx512f");
#endif
    return x;
  }();
  return c;
}

const detail::Table& table(Isa isa) {
  assert(isa_supported(isa));
#if defined(AUTOGEMM_X86_WIDE)
  if (isa == Isa::kAvx512) return detail::kAvx512Table;
  if (isa == Isa::kAvx2) return detail::kAvx2Table;
#endif
  return kPortableTable;
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kPortable: return "portable";
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512: return "avx512";
  }
  return "?";
}

Isa detect_isa() {
  if (cpu().avx512) return Isa::kAvx512;
  if (cpu().avx2) return Isa::kAvx2;
  return Isa::kPortable;
}

bool isa_supported(Isa isa) {
  switch (isa) {
    case Isa::kPortable: return true;
    case Isa::kAvx2: return cpu().avx2;
    case Isa::kAvx512: return cpu().avx512;
  }
  return false;
}

void gelu(float* x, long n, Isa isa) { table(isa).gelu(x, n); }

void softmax(float* x, long n, Isa isa) {
  if (n <= 0) return;
  const detail::Table& t = table(isa);
  const float mx = t.max(x, n);
  // An all -inf row has no finite maximum to shift by; exp(-inf) is 0.
  const float sum = t.exp_sum(x, n, mx == kernel::kNegInf ? 0.0f : mx);
  t.center_scale(x, x, n, 0.0f, sum == 0.0f ? 0.0f : 1.0f / sum);
}

void layernorm(const float* x, float* out, long n, float eps, Isa isa) {
  if (n <= 0) return;
  const detail::Table& t = table(isa);
  const float count = static_cast<float>(n);
  const float mean = t.sum(x, n) / count;
  const float var = t.sq_dev_sum(x, n, mean) / count;
  t.center_scale(x, out, n, mean, 1.0f / std::sqrt(var + eps));
}

}  // namespace autogemm::kernels::vmath
