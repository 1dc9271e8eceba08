// Backend registry: built-in tiers, kAuto resolution, the host-executable
// vs simulator-only contract, NEON behavior identity with the pre-registry
// code, the SVE two-VL interpreter crosscheck, the tune:: backend axis, and
// the backend-labeled obs counters.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "codegen/generator.hpp"
#include "codegen/tile_sizes.hpp"
#include "common/matrix.hpp"
#include "common/reference_gemm.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"
#include "isa/asm_printer.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/wide.hpp"
#include "obs/metrics.hpp"
#include "sim/interpreter.hpp"
#include "tune/search_space.hpp"
#include "tune/tuner.hpp"

namespace autogemm {
namespace {

using backend::BackendId;

/// Scoped save/set/restore of one environment variable.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, /*overwrite=*/1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

TEST(BackendRegistry, BuiltinsRegisteredInPriorityOrder) {
  auto& reg = backend::registry();
  ASSERT_NE(reg.find(BackendId::kNeon), nullptr);
  ASSERT_NE(reg.find(BackendId::kSveSim), nullptr);
  EXPECT_EQ(reg.find(BackendId::kAuto), nullptr);
  EXPECT_THROW(reg.get(BackendId::kAuto), std::out_of_range);

  ASSERT_NE(reg.find(BackendId::kX86Wide), nullptr);

  const auto all = reg.all();
  ASSERT_GE(all.size(), 3u);
  // Deterministic ordering: priority descending. x86_wide outranks neon
  // (the 128-bit host tier), which outranks the simulator-only SVE tier.
  for (std::size_t i = 1; i < all.size(); ++i)
    EXPECT_GE(all[i - 1]->caps().priority, all[i]->caps().priority);
  EXPECT_EQ(all[0]->caps().id, BackendId::kX86Wide);
  EXPECT_EQ(all[1]->caps().id, BackendId::kNeon);
  EXPECT_EQ(all[2]->caps().id, BackendId::kSveSim);
  // x86_wide is host-executable exactly when this CPU runs a wide tier.
  EXPECT_EQ(all[0]->caps().host_executable,
            kernels::detect_wide_isa() != kernels::WideIsa::kNone);
}

TEST(BackendRegistry, NamesRoundTrip) {
  EXPECT_EQ(backend::backend_name(BackendId::kNeon), "neon");
  EXPECT_EQ(backend::backend_name(BackendId::kSveSim), "sve_sim");
  EXPECT_EQ(backend::backend_name(BackendId::kAuto), "auto");
  EXPECT_EQ(backend::parse_backend("neon"), BackendId::kNeon);
  EXPECT_EQ(backend::parse_backend("sve_sim"), BackendId::kSveSim);
  EXPECT_EQ(backend::parse_backend("auto"), BackendId::kAuto);
  EXPECT_EQ(backend::parse_backend("not-a-backend"), BackendId::kAuto);
}

TEST(BackendRegistry, ExplicitIdsPassThroughResolve) {
  EXPECT_EQ(backend::resolve_backend(BackendId::kNeon), BackendId::kNeon);
  EXPECT_EQ(backend::resolve_backend(BackendId::kSveSim), BackendId::kSveSim);
}

TEST(BackendRegistry, AutoResolutionHonorsEnvThenHostPriority) {
  // Without an override kAuto is neon exactly when x86_wide is unsupported.
  const BackendId host =
      kernels::detect_wide_isa() != kernels::WideIsa::kNone
          ? BackendId::kX86Wide
          : BackendId::kNeon;
  {
    ScopedEnv env("AUTOGEMM_BACKEND", "sve_sim");
    EXPECT_EQ(backend::resolve_backend(BackendId::kAuto), BackendId::kSveSim);
  }
  {
    ScopedEnv env("AUTOGEMM_BACKEND", "neon");
    EXPECT_EQ(backend::resolve_backend(BackendId::kAuto), BackendId::kNeon);
  }
  {
    ScopedEnv env("AUTOGEMM_BACKEND", "x86_wide");
    EXPECT_EQ(backend::resolve_backend(BackendId::kAuto), BackendId::kX86Wide);
  }
  {
    // An unrecognized spelling is ignored, not honored: kAuto falls back to
    // the highest-priority host-executable backend.
    ScopedEnv env("AUTOGEMM_BACKEND", "vax_sim");
    EXPECT_EQ(backend::resolve_backend(BackendId::kAuto), host);
  }
  {
    ScopedEnv env("AUTOGEMM_BACKEND", nullptr);
    EXPECT_EQ(backend::resolve_backend(BackendId::kAuto), host);
  }
}

// The dispatch.hpp contract, asserted rather than just documented: a
// host-executable backend may serve compiled kernels; a simulator-only
// backend returns nullptr for *every* tile, including its own preferred
// ones (its programs run on sim::Interpreter, never on this host).
TEST(BackendRegistry, HostExecutabilityReportedConsistently) {
  for (const backend::KernelBackend* be : backend::registry().all()) {
    const backend::BackendCaps& caps = be->caps();
    const auto tiles = be->preferred_tiles();
    ASSERT_FALSE(tiles.empty()) << backend::backend_name(caps.id);
    for (const auto& t : tiles) {
      EXPECT_TRUE(be->tile_feasible(t.mr, t.nr))
          << backend::backend_name(caps.id) << " preferred tile " << t.mr
          << "x" << t.nr << " not feasible";
      if (!caps.host_executable) {
        EXPECT_EQ(be->find_microkernel(t.mr, t.nr), nullptr)
            << backend::backend_name(caps.id)
            << " is simulator-only but served a host kernel";
      }
    }
    // Sweep beyond the preferred set too: a non-null host kernel from a
    // simulator-only backend would silently execute the wrong ISA tier.
    for (int mr = 1; mr <= caps.max_mr; ++mr)
      for (int nr = 1; nr <= caps.max_nr; ++nr)
        if (be->find_microkernel(mr, nr) != nullptr) {
          EXPECT_TRUE(caps.host_executable);
        }
  }
}

TEST(NeonBackend, MatchesLegacyKernelTableAndDeprecatedShim) {
  const backend::KernelBackend& neon = backend::get_backend(BackendId::kNeon);
  EXPECT_TRUE(neon.caps().host_executable);
  EXPECT_FALSE(neon.caps().vl_agnostic);
  EXPECT_EQ(neon.caps().vl_min, 4);
  for (int mr = 1; mr <= 10; ++mr)
    for (int nr = 1; nr <= 80; ++nr)
      EXPECT_EQ(neon.find_microkernel(mr, nr),
                kernels::detail::neon_table_lookup(mr, nr));
}

TEST(NeonBackend, GeneratesIdenticalProgramToLegacyGenerator) {
  const backend::KernelBackend& neon = backend::get_backend(BackendId::kNeon);
  codegen::GeneratorOptions opts;
  opts.rotate_registers = true;
  const codegen::MicroKernel via_backend = neon.generate(6, 8, 16, opts);
  const codegen::MicroKernel legacy =
      codegen::generate_microkernel(6, 8, 16, /*lanes=*/4, opts);
  EXPECT_EQ(isa::emit_asm(via_backend.program), isa::emit_asm(legacy.program));
  EXPECT_EQ(via_backend.rotated, legacy.rotated);
}

TEST(NeonBackend, ContextProducesBitwiseIdenticalResultToDefaultPath) {
  // Acceptance gate: routing the pinned NEON tier through the registry
  // must not perturb a single bit of C relative to the pre-registry path
  // (a plan run directly on the vec4 kernel table), whether NEON is asked
  // for by id or through the AUTOGEMM_BACKEND override of kAuto.
  const int m = 37, n = 29, k = 23;
  common::Matrix a(m, k), b(k, n), c_direct(m, n), c_env(m, n), c_neon(m, n);
  common::fill_random(a.view(), 11);
  common::fill_random(b.view(), 12);

  gemm(a.view(), b.view(), c_direct.view(),
       Plan(m, n, k, default_config(m, n, k, BackendId::kNeon)));

  ContextOptions env_opts;
  env_opts.threads = 1;
  ScopedEnv env("AUTOGEMM_BACKEND", "neon");  // kAuto -> NEON
  Context by_env(env_opts);
  ASSERT_TRUE(by_env.run(a.view(), b.view(), c_env.view()).ok());
  EXPECT_EQ(by_env.backend_id(), BackendId::kNeon);

  ContextOptions neon_opts;
  neon_opts.threads = 1;
  neon_opts.backend = BackendId::kNeon;
  Context by_id(neon_opts);
  ASSERT_TRUE(by_id.run(a.view(), b.view(), c_neon.view()).ok());

  const std::size_t bytes = sizeof(float) * static_cast<std::size_t>(m) * n;
  EXPECT_EQ(std::memcmp(c_direct.data(), c_neon.data(), bytes), 0);
  EXPECT_EQ(std::memcmp(c_env.data(), c_neon.data(), bytes), 0);
}

TEST(SveBackend, CapsDescribeSimulatorOnlyVlaTier) {
  const backend::KernelBackend& sve = backend::get_backend(BackendId::kSveSim);
  EXPECT_FALSE(sve.caps().host_executable);
  EXPECT_TRUE(sve.caps().vl_agnostic);
  EXPECT_EQ(sve.caps().vl_min, 4);
  EXPECT_EQ(sve.caps().vl_default, 16);  // SVE-512 (A64FX) in fp32 lanes
  // Predication means nr need not be a lane multiple.
  EXPECT_TRUE(sve.tile_feasible(5, 10));
  EXPECT_TRUE(sve.tile_feasible(3, 7));
}

// The ISSUE's end-to-end acceptance criterion: one generated predicated
// kernel for an irregular tile whose edge is not a VL multiple, executed
// at two different vector lengths, both matching the reference GEMM.
TEST(SveBackend, TwoVlInterpreterCrosscheckOnIrregularTile) {
  const int mr = 5, nr = 10, kc = 7;  // nr % 4 == 2: predicated edge group
  const backend::KernelBackend& sve = backend::get_backend(BackendId::kSveSim);
  const codegen::MicroKernel mk = sve.generate(mr, nr, kc, {});
  ASSERT_TRUE(mk.program.vl_agnostic());

  // No over-read contract for the predicated tier: exact-size buffers, so
  // the crosscheck would also catch an out-of-bounds lane slipping through
  // an edge predicate.
  common::Matrix a(mr, kc), b(kc, nr), c_ref(mr, nr);
  common::fill_random(a.view(), 21);
  common::fill_random(b.view(), 22);
  common::reference_gemm(a.view(), b.view(), c_ref.view());

  const int gen_vl = mk.program.lanes();
  const int wide_vl = 16;
  ASSERT_LT(gen_vl, wide_vl);
  common::Matrix c_narrow(mr, nr), c_wide(mr, nr);
  for (auto [vl, c] : {std::pair{gen_vl, &c_narrow}, {wide_vl, &c_wide}}) {
    sim::Interpreter interp(4'000'000);
    interp.set_vector_length(vl);
    sim::KernelArgs args;
    args.a = a.data();
    args.b = b.data();
    args.c = c->data();
    args.lda = kc;
    args.ldb = nr;
    args.ldc = nr;
    ASSERT_TRUE(interp.try_run(mk.program, args).ok()) << "VL=" << vl;
    EXPECT_LT(common::max_rel_error(c->view(), c_ref.view()), 1e-5)
        << "VL=" << vl;
  }
  // VL-agnosticism, bit for bit: the same instruction stream at two VLs
  // retires the same FMA order, so the results are identical, not merely
  // close.
  EXPECT_EQ(std::memcmp(c_narrow.data(), c_wide.data(),
                        sizeof(float) * static_cast<std::size_t>(mr) * nr),
            0);
}

TEST(SveBackend, ContextRunsCorrectlyViaPortableFallback) {
  // Host execution under the simulator-only tier: find_microkernel is
  // always nullptr, so run() serves through the portable tile path while
  // probes verify the generated SVE stream on the interpreter.
  ContextOptions opts;
  opts.threads = 1;
  opts.backend = BackendId::kSveSim;
  Context ctx(opts);
  EXPECT_EQ(ctx.backend_id(), BackendId::kSveSim);

  const int m = 13, n = 11, k = 9;
  common::Matrix a(m, k), b(k, n), c(m, n), c_ref(m, n);
  common::fill_random(a.view(), 31);
  common::fill_random(b.view(), 32);
  common::reference_gemm(a.view(), b.view(), c_ref.view());
  ASSERT_TRUE(ctx.run(a.view(), b.view(), c.view()).ok());
  EXPECT_LT(common::max_rel_error(c.view(), c_ref.view()), 1e-5);

  const HealthReport health = ctx.health();
  EXPECT_GT(health.probes, 0u);
  EXPECT_EQ(health.probe_failures, 0u);
  EXPECT_EQ(health.quarantined_configs, 0u);
}

// Satellite 6: the backend-labeled dispatch and strategy counters move by
// exactly one per run. Labels come from the context's resolved backend, so
// this passes under either AUTOGEMM_BACKEND matrix leg.
TEST(BackendObs, DispatchAndStrategyCountersLabeledByBackend) {
  ContextOptions opts;
  opts.threads = 1;
  Context ctx(opts);
  const std::string backend =
      "backend=\"" + std::string(backend::backend_name(ctx.backend_id())) +
      "\"";
  const obs::Registry& reg = obs::default_registry();
  const auto dispatch = [&] {
    return reg.counter_total("autogemm_backend_dispatch_total", backend);
  };
  const auto serial = [&] {
    return reg.counter_total("autogemm_strategy_total",
                             "strategy=\"serial\"," + backend);
  };

  common::Matrix a(8, 8), b(8, 8), c(8, 8);
  common::fill_random(a.view(), 41);
  common::fill_random(b.view(), 42);

  const std::uint64_t dispatch_before = dispatch();
  const std::uint64_t serial_before = serial();
  ASSERT_TRUE(ctx.run(a.view(), b.view(), c.view()).ok());
  EXPECT_EQ(dispatch(), dispatch_before + 1);
  EXPECT_EQ(serial(), serial_before + 1);
}

TEST(TuneBackendAxis, DefaultSpaceStaysNeonOnly) {
  for (const auto& c : tune::enumerate_space(12, 8, 4))
    EXPECT_EQ(c.backend, BackendId::kNeon);
}

TEST(TuneBackendAxis, EnumerationAppliesPerBackendFeasibility) {
  const auto space = tune::enumerate_space(12, 8, 4, /*divisors_only=*/true,
                                           /*include_parallel_strategies=*/false,
                                           /*include_backends=*/true);
  EXPECT_EQ(space.size(), tune::space_size(12, 8, 4, true, false, true));

  bool any_neon = false, any_sve = false;
  bool neon_ragged_nc = false, sve_ragged_nc = false;
  for (const auto& c : space) {
    if (c.backend == BackendId::kNeon) {
      any_neon = true;
      // Fixed-width NEON needs a lane-multiple column block (nc in {4, 8}
      // of n=8's divisors); nc=2 cannot field a vector micro-kernel.
      if (c.nc == 2) neon_ragged_nc = true;
    }
    if (c.backend == BackendId::kSveSim) {
      any_sve = true;
      // The predicated tier masks any edge, so ragged nc survives.
      if (c.nc == 2) sve_ragged_nc = true;
    }
  }
  EXPECT_TRUE(any_neon);
  EXPECT_TRUE(any_sve);
  EXPECT_FALSE(neon_ragged_nc);
  EXPECT_TRUE(sve_ragged_nc);
}

TEST(TuneBackendAxis, FeaturesExposeBackendDimension) {
  tune::Candidate c;
  c.mc = 16;
  c.nc = 8;
  c.kc = 4;
  c.backend = BackendId::kSveSim;
  const auto f = tune::features(c);
  ASSERT_EQ(f.size(), 9u);
  EXPECT_EQ(f[6], static_cast<double>(BackendId::kSveSim));
  EXPECT_EQ(f[7], static_cast<double>(common::DType::kF32));
}

TEST(TuneBackendAxis, ModelCostSecondsPricesPerBackendChip) {
  tune::Candidate c;
  c.mc = 64;
  c.nc = 64;
  c.kc = 64;
  tune::Candidate c_sve = c;
  c_sve.backend = BackendId::kSveSim;
  const double neon_s = tune::model_cost_seconds(c, 256, 256, 256);
  const double sve_s = tune::model_cost_seconds(c_sve, 256, 256, 256);
  EXPECT_GT(neon_s, 0.0);
  EXPECT_GT(sve_s, 0.0);
  // Same blocking, different chips: the SVE tier is priced on the A64FX
  // model (16 fp32 lanes) and the NEON tier on Graviton2 (4 lanes), so on
  // a compute-bound cube the wide tier is strictly cheaper in seconds.
  EXPECT_LT(sve_s, neon_s);
}

TEST(TuneBackendAxis, ExhaustiveTunerPicksCrossBackendWinner) {
  const long m = 64, n = 64, k = 64;
  const auto space = tune::enumerate_space(
      static_cast<int>(m), static_cast<int>(n), static_cast<int>(k),
      /*divisors_only=*/true, /*include_parallel_strategies=*/false,
      /*include_backends=*/true);
  ASSERT_FALSE(space.empty());
  const auto cost = [&](const tune::Candidate& c) {
    return tune::model_cost_seconds(c, m, n, k);
  };
  const tune::TuneResult result = tune::tune_exhaustive(space, cost);

  std::map<BackendId, double> best;
  for (const auto& c : space) {
    const double v = cost(c);
    auto [it, inserted] = best.try_emplace(c.backend, v);
    if (!inserted) it->second = std::min(it->second, v);
  }
  ASSERT_EQ(best.count(BackendId::kNeon), 1u);
  ASSERT_EQ(best.count(BackendId::kSveSim), 1u);
  double best_any = std::numeric_limits<double>::infinity();
  for (const auto& [id, v] : best) best_any = std::min(best_any, v);
  // The axis's job: one search arbitrates every registered tier and
  // returns the cheapest. With the current chip database the winner on
  // this compute-bound cube is fixed by x86_wide's width: at 16 lanes on
  // 32 registers (an AVX-512 CPU, and the caps a CPU without the ISA
  // registers) the host-priced tier beats the A64FX-priced SVE tier; at
  // AVX2's 8 lanes on 16 the SVE tier wins. Graviton2-priced NEON's 4
  // lanes lose to both.
  const BackendId expected =
      backend::get_backend(BackendId::kX86Wide).caps().vl_default == 16
          ? BackendId::kX86Wide
          : BackendId::kSveSim;
  EXPECT_DOUBLE_EQ(result.best_cost, best_any);
  EXPECT_DOUBLE_EQ(result.best_cost, best.at(result.best.backend));
  EXPECT_EQ(result.best.backend, expected);
  EXPECT_LT(best.at(BackendId::kSveSim), best.at(BackendId::kNeon));
}

}  // namespace
}  // namespace autogemm
