// x86_wide: the AVX-512 and AVX2 kernel tables against the register-
// feasibility rule and against an fp64 reference (every exact tile, every
// masked column width), the run-time fallback to neon when the CPU lacks
// the tier, and the first-use probe running the kernels the executor runs.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "backend/builtin.hpp"
#include "codegen/tile_sizes.hpp"
#include "common/matrix.hpp"
#include "common/reference_gemm.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"
#include "core/gemm.hpp"
#include "core/plan.hpp"
#include "kernels/wide.hpp"
#include "test_util.hpp"

namespace autogemm {
namespace {

using backend::BackendId;
using kernels::WideIsa;

constexpr WideIsa kIsas[] = {WideIsa::kAvx2, WideIsa::kAvx512};

/// Deterministic values in [-1, 1).
std::vector<float> filled(std::size_t n, unsigned seed) {
  std::vector<float> v(n);
  unsigned s = seed * 2654435761u + 7u;
  for (float& x : v) {
    s = s * 1664525u + 1013904223u;
    x = static_cast<float>((s >> 8) & 0xFFFF) / 32768.0f - 1.0f;
  }
  return v;
}

/// Runs `kernel` on a rows x cols tile at depth kc with padded strides and
/// checks every live C element against the fp64 C0 + A*B within the fp32
/// dot-product bound 2(K + 2)u * sum|a||b| (u = 2^-24; the C0 term counts
/// as one more product), and that C outside the tile is untouched.
void check_tile(int rows, int cols, int kc,
                const std::function<void(const float*, long, const float*,
                                         long, float*, long)>& kernel,
                const std::string& what) {
  const long lda = kc + 3, ldb = cols + 5, ldc = cols + 7;
  const std::vector<float> a = filled(static_cast<std::size_t>(rows) * lda, 1);
  const std::vector<float> b = filled(static_cast<std::size_t>(kc) * ldb, 2);
  std::vector<float> c = filled(static_cast<std::size_t>(rows) * ldc, 3);
  const std::vector<float> c0 = c;
  kernel(a.data(), lda, b.data(), ldb, c.data(), ldc);
  constexpr double kU = 0x1p-24;
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < ldc; ++j) {
      const float got = c[i * ldc + j];
      if (j >= cols) {
        ASSERT_EQ(got, c0[i * ldc + j]) << what << " wrote column " << j;
        continue;
      }
      double ref = c0[i * ldc + j], mag = std::fabs(ref);
      for (int p = 0; p < kc; ++p) {
        const double prod =
            static_cast<double>(a[i * lda + p]) * b[p * ldb + j];
        ref += prod;
        mag += std::fabs(prod);
      }
      const double bound = 2.0 * (kc + 2) * kU * mag;
      ASSERT_LE(std::fabs(got - ref), bound)
          << what << " C(" << i << "," << j << ")";
    }
  }
}

TEST(WideKernels, TablesAreTheRegisterFeasibleTiles) {
  // The rule each table is generated from, pinned per tier: AVX2 holds
  // registers_needed(mr, nr, 8) <= 16, AVX-512 registers_needed(mr, nr,
  // 16) <= 32 (A64FX's budget, so Table II's 58 shapes at 16 lanes).
  EXPECT_EQ(kernels::wide_lanes(WideIsa::kAvx2), 8);
  EXPECT_EQ(kernels::wide_registers(WideIsa::kAvx2), 16);
  EXPECT_EQ(kernels::wide_lanes(WideIsa::kAvx512), 16);
  EXPECT_EQ(kernels::wide_registers(WideIsa::kAvx512), 32);
  EXPECT_EQ(kernels::wide_kernel(WideIsa::kNone, 1, 16), nullptr);
  EXPECT_EQ(kernels::wide_masked_kernel(WideIsa::kNone, 1, 3), nullptr);
  bool any = false;
  for (const WideIsa isa : kIsas) {
    if (!kernels::wide_isa_supported(isa)) continue;  // lookups answer null
    any = true;
    const int lanes = kernels::wide_lanes(isa);
    const int regs = kernels::wide_registers(isa);
    int entries = 0;
    for (int mr = 1; mr <= 32; ++mr) {
      for (int nr = 1; nr <= 32 * lanes; ++nr) {
        const bool feasible = nr % lanes == 0 &&
                              codegen::registers_needed(mr, nr, lanes) <= regs;
        ASSERT_EQ(feasible, codegen::tile_feasible(mr, nr, lanes, regs));
        EXPECT_EQ(kernels::wide_kernel(isa, mr, nr) != nullptr, feasible)
            << kernels::wide_isa_name(isa) << " " << mr << "x" << nr;
        // The masked form covers any column count up to a feasible tile.
        const int rounded = (nr + lanes - 1) / lanes * lanes;
        EXPECT_EQ(kernels::wide_masked_kernel(isa, mr, nr) != nullptr,
                  codegen::tile_feasible(mr, rounded, lanes, regs))
            << kernels::wide_isa_name(isa) << " masked " << mr << "x" << nr;
        entries += feasible;
      }
    }
    EXPECT_EQ(static_cast<std::size_t>(entries),
              codegen::enumerate_feasible_tiles(lanes, regs).size());
    if (isa == WideIsa::kAvx512) {
      EXPECT_EQ(entries, 58);
    }
  }
  if (!any) GTEST_SKIP() << "CPU has neither AVX2+FMA nor AVX-512F";
}

TEST(WideKernels, EveryTableEntryMatchesReference) {
  bool any = false;
  for (const WideIsa isa : kIsas) {
    if (!kernels::wide_isa_supported(isa)) continue;
    any = true;
    const int lanes = kernels::wide_lanes(isa);
    for (const codegen::TileSize& t : codegen::enumerate_feasible_tiles(
             lanes, kernels::wide_registers(isa))) {
      const kernels::MicroKernelFn fn = kernels::wide_kernel(isa, t.mr, t.nr);
      ASSERT_NE(fn, nullptr);
      check_tile(t.mr, t.nr, 37,
                 [&](const float* a, long lda, const float* b, long ldb,
                     float* c, long ldc) { fn(a, lda, b, ldb, c, ldc, 37); },
                 std::string(kernels::wide_isa_name(isa)) + " " +
                     std::to_string(t.mr) + "x" + std::to_string(t.nr));
    }
  }
  if (!any) GTEST_SKIP() << "CPU has neither AVX2+FMA nor AVX-512F";
}

TEST(WideKernels, EveryMaskedWidthMatchesReference) {
  // Every table tile's masked form with a last vector of 1 .. lanes-1 live
  // columns: only those columns of B and C are touched.
  bool any = false;
  for (const WideIsa isa : kIsas) {
    if (!kernels::wide_isa_supported(isa)) continue;
    any = true;
    const int lanes = kernels::wide_lanes(isa);
    for (const codegen::TileSize& t : codegen::enumerate_feasible_tiles(
             lanes, kernels::wide_registers(isa))) {
      for (int tail = 1; tail < lanes; ++tail) {
        const int cols = t.nr - lanes + tail;
        const kernels::MaskedKernelFn fn =
            kernels::wide_masked_kernel(isa, t.mr, cols);
        ASSERT_NE(fn, nullptr);
        check_tile(t.mr, cols, 19,
                   [&](const float* a, long lda, const float* b, long ldb,
                       float* c, long ldc) {
                     fn(a, lda, b, ldb, c, ldc, 19, cols);
                   },
                   std::string(kernels::wide_isa_name(isa)) + " masked " +
                       std::to_string(t.mr) + "x" + std::to_string(cols));
      }
    }
  }
  if (!any) GTEST_SKIP() << "CPU has neither AVX2+FMA nor AVX-512F";
}

/// Unsets an environment variable for the test's duration.
class UnsetEnv {
 public:
  explicit UnsetEnv(const char* name) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::unsetenv(name);
  }
  ~UnsetEnv() {
    if (!old_.empty()) ::setenv(name_, old_.c_str(), 1);
  }

 private:
  const char* name_;
  std::string old_;
};

/// Swaps the process registry's x86_wide entry for the test's duration.
class ScopedX86Wide {
 public:
  explicit ScopedX86Wide(std::unique_ptr<backend::KernelBackend> b) {
    backend::registry().register_backend(std::move(b));
  }
  ~ScopedX86Wide() {
    backend::registry().register_backend(
        backend::make_x86_wide_backend(kernels::detect_wide_isa()));
  }
};

TEST(X86WideBackend, PreferredTilesFollowTheRegisterBudget) {
  // AVX-512's 32 registers of 16 lanes are A64FX's: Table II's first
  // choices at 16 lanes. AVX2's 16 registers of 8 lanes: per vector count,
  // the tallest tile enumerate_feasible_tiles(8, 16) admits, while it has
  // more than one row.
  const auto shapes = [](const backend::KernelBackend& be) {
    std::vector<std::array<int, 2>> out;
    for (const codegen::TileSize& t : be.preferred_tiles())
      out.push_back({t.mr, t.nr});
    return out;
  };
  EXPECT_EQ(shapes(*backend::make_x86_wide_backend(WideIsa::kAvx512)),
            (std::vector<std::array<int, 2>>{
                {8, 32}, {6, 48}, {5, 64}, {4, 80}}));
  EXPECT_EQ(shapes(*backend::make_x86_wide_backend(WideIsa::kAvx2)),
            (std::vector<std::array<int, 2>>{
                {7, 8}, {4, 16}, {3, 24}, {2, 32}}));
}

TEST(X86WideBackend, UnsupportedCpuFallsBackToNeonBitIdentical) {
  // A CPU without AVX2+FMA or AVX-512F: x86_wide stays registered but is
  // not host-executable, kAuto resolves to neon, and an explicit x86_wide
  // context runs on neon's kernels — bit for bit what neon computes.
  const UnsetEnv no_override("AUTOGEMM_BACKEND");
  backend::BackendRegistry fresh;
  fresh.register_backend(backend::make_x86_wide_backend(WideIsa::kNone));
  fresh.register_backend(backend::make_neon_backend());
  fresh.register_backend(backend::make_sve_sim_backend());
  EXPECT_FALSE(fresh.get(BackendId::kX86Wide).caps().host_executable);
  EXPECT_EQ(fresh.get(BackendId::kX86Wide).find_microkernel(1, 16), nullptr);
  EXPECT_EQ(fresh.resolve(BackendId::kAuto), BackendId::kNeon);

  const int m = 45, n = 70, k = 300;
  common::Matrix a(m, k), b(k, n), c_neon(m, n), c_auto(m, n), c_wide(m, n);
  common::fill_random(a.view(), 21);
  common::fill_random(b.view(), 22);
  ContextOptions neon_opts;
  neon_opts.threads = 4;
  neon_opts.backend = BackendId::kNeon;
  Context neon(neon_opts);
  ASSERT_TRUE(neon.run(a.view(), b.view(), c_neon.view()).ok());

  ScopedX86Wide unsupported(backend::make_x86_wide_backend(WideIsa::kNone));
  ContextOptions auto_opts;
  auto_opts.threads = 4;
  Context by_auto(auto_opts);
  EXPECT_EQ(by_auto.backend_id(), BackendId::kNeon);
  ASSERT_TRUE(by_auto.run(a.view(), b.view(), c_auto.view()).ok());
  ContextOptions wide_opts = auto_opts;
  wide_opts.backend = BackendId::kX86Wide;
  Context by_id(wide_opts);
  ASSERT_TRUE(by_id.run(a.view(), b.view(), c_wide.view()).ok());

  const std::size_t bytes = sizeof(float) * static_cast<std::size_t>(m) * n;
  EXPECT_EQ(std::memcmp(c_auto.data(), c_neon.data(), bytes), 0);
  EXPECT_EQ(std::memcmp(c_wide.data(), c_neon.data(), bytes), 0);
}

/// A host-executable backend whose every compiled kernel is wrong (it
/// doubles C's prior value into the product), standing in for a miscompiled
/// or mis-dispatched kernel.
class WrongKernelBackend final : public backend::KernelBackend {
 public:
  WrongKernelBackend() {
    caps_ = backend::get_backend(BackendId::kNeon).caps();
    caps_.id = BackendId::kX86Wide;
  }
  const backend::BackendCaps& caps() const override { return caps_; }
  bool tile_feasible(int mr, int nr) const override {
    return neon().tile_feasible(mr, nr);
  }
  std::vector<codegen::TileSize> preferred_tiles() const override {
    return neon().preferred_tiles();
  }
  kernels::MicroKernelFn find_microkernel(int, int) const override {
    return nullptr;
  }
  kernels::MaskedKernelFn find_masked_microkernel(int, int) const override {
    return &wrong;
  }
  codegen::MicroKernel generate(
      int mr, int nr, int kc,
      const codegen::GeneratorOptions& opts) const override {
    return neon().generate(mr, nr, kc, opts);
  }
  hw::HardwareModel pricing_model() const override {
    return neon().pricing_model();
  }

 private:
  static const backend::KernelBackend& neon() {
    return backend::get_backend(BackendId::kNeon);
  }
  static void wrong(const float* a, long lda, const float* b, long ldb,
                    float* c, long ldc, int kc, int cols) {
    kernels::generic_microkernel(1, cols, a, lda, b, ldb, c, ldc, kc);
    for (int j = 0; j < cols; ++j) c[j] *= 2.0f;
  }
  backend::BackendCaps caps_;
};

TEST(FirstUseProbe, WrongHostKernelIsQuarantined) {
  // The probe runs the kernels the plan resolved for its tiles — the ones
  // the executor calls — so a backend serving a wrong host kernel has its
  // config quarantined on first use, and the call is still served
  // correctly (here by the reference path, the only rung left).
  ScopedX86Wide wrong(std::make_unique<WrongKernelBackend>());
  ContextOptions opts;
  opts.threads = 1;
  opts.backend = BackendId::kX86Wide;
  Context ctx(opts);
  const int m = 12, n = 20, k = 16;
  common::Matrix a(m, k), b(k, n), c(m, n), c_ref(m, n);
  common::fill_random(a.view(), 31);
  common::fill_random(b.view(), 32);
  common::reference_gemm(a.view(), b.view(), c_ref.view());
  ASSERT_TRUE(ctx.run(a.view(), b.view(), c.view()).ok());
  const HealthReport health = ctx.health();
  EXPECT_GE(health.probe_failures, 1u);
  EXPECT_GE(health.quarantined_configs, 1u);
  EXPECT_EQ(health.reference_shapes, 1u);
  EXPECT_LT(common::max_rel_error(c.view(), c_ref.view()), 1e-5);
}

TEST(X86WideBackend, EachTierServesContextsWithinTheBound) {
  // Both tiers end to end — DMT at 8 lanes on 16 registers and at 16 on
  // 32, masked edges, packing, the pool and k-split — on irregular
  // shapes, whichever tier this CPU would pick by itself.
  const UnsetEnv no_override("AUTOGEMM_BACKEND");
  bool any = false;
  for (const WideIsa isa : kIsas) {
    if (!kernels::wide_isa_supported(isa)) continue;
    any = true;
    ScopedX86Wide tier(backend::make_x86_wide_backend(isa));
    for (const auto [m, n, k, threads] :
         {std::array{1, 1, 1, 1}, std::array{7, 13, 29, 1},
          std::array{37, 101, 300, 4}, std::array{16, 24, 2000, 4},
          std::array{130, 77, 65, 2}}) {
      ContextOptions opts;
      opts.threads = threads;
      Context ctx(opts);
      ASSERT_EQ(ctx.backend_id(), BackendId::kX86Wide);
      common::Matrix a(m, k), b(k, n), c(m, n), c_ref(m, n);
      common::fill_random(a.view(), 41);
      common::fill_random(b.view(), 42);
      common::reference_gemm(a.view(), b.view(), c_ref.view());
      ASSERT_TRUE(ctx.run(a.view(), b.view(), c.view()).ok());
      EXPECT_LT(common::max_rel_error(c.view(), c_ref.view()),
                testutil::gemm_tolerance(k))
          << kernels::wide_isa_name(isa) << " " << m << "x" << n << "x" << k;
      EXPECT_EQ(ctx.health().probe_failures, 0u);
    }
  }
  if (!any) GTEST_SKIP() << "CPU has neither AVX2+FMA nor AVX-512F";
}

TEST(X86WideBackend, PlanResolvesEveryTileToTheTiersKernels) {
  // On a CPU that runs the tier, every tile of an irregular x86_wide plan
  // resolves to a compiled kernel — exact, or masked on a clipped right
  // edge — never to the generic loop.
  if (kernels::detect_wide_isa() == WideIsa::kNone)
    GTEST_SKIP() << "CPU has neither AVX2+FMA nor AVX-512F";
  const Plan plan(53, 301, 77,
                  default_config(53, 301, 77, BackendId::kX86Wide));
  EXPECT_EQ(plan.config().hw.lanes,
            kernels::wide_lanes(kernels::detect_wide_isa()));
  int masked = 0;
  for (const auto& [shape, block] : plan.blocks()) {
    ASSERT_EQ(block.kernels.size(), block.tiling.tiles.size());
    for (const kernels::TileKernel& tk : block.kernels) {
      EXPECT_TRUE(tk.exact != nullptr || tk.masked != nullptr);
      masked += tk.masked != nullptr;
    }
  }
  EXPECT_GT(masked, 0);  // 301 is no lane multiple
}

}  // namespace
}  // namespace autogemm
