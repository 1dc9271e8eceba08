// The vector-math tier (kernels/vmath.hpp): every wide tier the CPU has
// against the portable twin, bit for bit, over block tails and special
// values; and the twin against fp64 — GELU within 2e-6 max(1, |x|) with
// std::tanh's special-value results, softmax rows that sum to 1 with exact
// zeros for -inf, and layernorm's moments.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "kernels/vmath.hpp"

namespace autogemm {
namespace {

namespace vmath = kernels::vmath;
using vmath::Isa;

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr long kLengths[] = {0, 1, 15, 16, 17, 3072};

/// Equal bits, or both NaN (the payload of a NaN result is not pinned).
bool same(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  std::uint32_t x, y;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

/// splitmix64 draws in [lo, hi).
struct Draw {
  std::uint64_t s;
  float operator()(float lo, float hi) {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    return lo + (hi - lo) * static_cast<float>((z >> 40) * 0x1p-24);
  }
};

/// n values in [-12, 12], every seventh a value from the edge list:
/// NaN, +-inf, +-0, denormals, |x| > 10 and the clamps' neighbourhoods.
std::vector<float> inputs(long n, std::uint64_t seed, bool specials) {
  static const float kEdges[] = {kNaN,    kInf,     -kInf,   0.0f,   -0.0f,
                                 1e-40f,  -1e-40f,  1e-45f,  10.5f,  -10.5f,
                                 -88.5f,  -87.5f,   -200.0f, 7.9f,   -7.9f,
                                 3e38f,   -3e38f,   1e6f,    -1e6f,  3e-4f};
  const int first = specials ? 0 : 3;  // finite rows skip NaN and +-inf
  const int edges = static_cast<int>(std::size(kEdges)) - first;
  Draw draw{seed};
  std::vector<float> x(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i)
    x[i] = i % 7 == 3 ? kEdges[first + (i / 7) % edges] : draw(-12.0f, 12.0f);
  return x;
}

std::vector<float> uniform(long n, std::uint64_t seed) {
  Draw draw{seed};
  std::vector<float> x(static_cast<std::size_t>(n));
  for (float& v : x) v = draw(-12.0f, 12.0f);
  return x;
}

std::vector<Isa> wide_tiers() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kAvx2, Isa::kAvx512})
    if (vmath::isa_supported(isa)) out.push_back(isa);
  return out;
}

void expect_same(const std::vector<float>& got, const std::vector<float>& want,
                 const char* what, Isa isa, long n) {
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_TRUE(same(got[i], want[i]))
        << what << " on " << vmath::isa_name(isa) << ", n=" << n << ", i="
        << i << ": " << got[i] << " vs portable " << want[i];
}

TEST(VMath, TiersMatchPortableBitForBit) {
  const std::vector<Isa> tiers = wide_tiers();
  if (tiers.empty()) GTEST_SKIP() << "no AVX2 or AVX-512 on this CPU";
  EXPECT_EQ(vmath::detect_isa(), tiers.back());
  for (const long n : kLengths) {
    for (const bool specials : {false, true}) {
      const std::vector<float> x = inputs(n, 17 + n, specials);
      std::vector<float> g0 = x, s0 = x, l0(x.size());
      vmath::gelu(g0.data(), n, Isa::kPortable);
      vmath::softmax(s0.data(), n, Isa::kPortable);
      vmath::layernorm(x.data(), l0.data(), n, 1e-5f, Isa::kPortable);
      for (const Isa isa : tiers) {
        std::vector<float> g = x, s = x, l(x.size());
        vmath::gelu(g.data(), n, isa);
        vmath::softmax(s.data(), n, isa);
        vmath::layernorm(x.data(), l.data(), n, 1e-5f, isa);
        expect_same(g, g0, "gelu", isa, n);
        expect_same(s, s0, "softmax", isa, n);
        expect_same(l, l0, "layernorm", isa, n);
      }
    }
  }
}

double gelu_ref(double x) {
  return 0.5 * x *
         (1.0 + std::tanh(0.7978845608028654 * (x + 0.044715 * x * x * x)));
}

/// The scalar std::tanh loop the tier replaced.
float gelu_std(float v) {
  const float t = std::tanh(0.7978845608028654f * (v + 0.044715f * v * v * v));
  return 0.5f * v * (1.0f + t);
}

std::vector<Isa> all_tiers() {
  std::vector<Isa> out = wide_tiers();
  out.insert(out.begin(), Isa::kPortable);
  return out;
}

TEST(VMath, WithinFp64Bound) {
  // GELU over a 1e-4-step sweep of [-12, 12].
  std::vector<float> sweep;
  for (long i = -120000; i <= 120000; ++i)
    sweep.push_back(static_cast<float>(i * 1e-4));
  for (const Isa isa : all_tiers()) {
    std::vector<float> g = sweep;
    vmath::gelu(g.data(), static_cast<long>(g.size()), isa);
    double worst = 0;
    for (std::size_t i = 0; i < g.size(); ++i) {
      const double x = sweep[i];
      const double err = std::abs(g[i] - gelu_ref(x));
      worst = std::max(worst, err / std::max(1.0, std::abs(x)));
    }
    EXPECT_LE(worst, 2e-6) << vmath::isa_name(isa);

    // Special values as the std::tanh loop gives them.
    std::vector<float> sp = {kNaN, kInf, -kInf};
    vmath::gelu(sp.data(), 3, isa);
    EXPECT_TRUE(std::isnan(sp[0]) && std::isnan(gelu_std(kNaN)));
    EXPECT_TRUE(sp[1] == kInf && gelu_std(kInf) == kInf);
    EXPECT_TRUE(std::isnan(sp[2]) && std::isnan(gelu_std(-kInf)));
  }

  // Softmax: rows of every tail length sum to 1, track fp64, and give -inf
  // entries exactly 0; a row of -inf becomes 0.
  for (const Isa isa : all_tiers()) {
    for (const long n : {1L, 15L, 16L, 17L, 51L, 3072L}) {
      std::vector<float> x = uniform(n, 5 + n);
      for (long i = 0; i < n; i += 5) x[i] = -kInf;  // a masked entry
      if (n > 1) x[n - 1] = 2.5f;                    // one finite entry
      std::vector<float> p = x;
      vmath::softmax(p.data(), n, isa);
      double mx = -HUGE_VAL, denom = 0, sum = 0, worst = 0;
      for (const float v : x) mx = std::max(mx, static_cast<double>(v));
      for (const float v : x) denom += std::exp(v - mx);
      for (long i = 0; i < n; ++i) {
        sum += p[i];
        if (x[i] == -kInf) {
          EXPECT_TRUE(same(p[i], 0.0f)) << "n=" << n << " i=" << i;
          continue;
        }
        const double want = std::exp(x[i] - mx) / denom;
        worst = std::max(worst, std::abs(p[i] - want) / want);
      }
      if (n == 1) {  // the only entry is -inf: no mass
        EXPECT_EQ(p[0], 0.0f);
        continue;
      }
      EXPECT_NEAR(sum, 1.0, 1e-6) << vmath::isa_name(isa) << " n=" << n;
      EXPECT_LE(worst, 1e-5) << vmath::isa_name(isa) << " n=" << n;
    }
    std::vector<float> masked(20, -kInf);
    vmath::softmax(masked.data(), 20, isa);
    for (const float v : masked) EXPECT_TRUE(same(v, 0.0f));
  }

  // Layernorm: zero mean, unit variance (eps aside) against fp64.
  for (const Isa isa : all_tiers()) {
    const long n = 768;
    const std::vector<float> x = uniform(n, 3);
    std::vector<float> out(n);
    vmath::layernorm(x.data(), out.data(), n, 1e-5f, isa);
    double mean = 0, var = 0;
    for (const float v : x) mean += v;
    mean /= n;
    for (const float v : x) var += (v - mean) * (v - mean);
    var /= n;
    const double inv = 1.0 / std::sqrt(var + 1e-5);
    double worst = 0;
    for (long i = 0; i < n; ++i)
      worst = std::max(worst, std::abs(out[i] - (x[i] - mean) * inv));
    EXPECT_LE(worst, 1e-5) << vmath::isa_name(isa);
  }
}

}  // namespace
}  // namespace autogemm
