// Hardened-runtime behavior: Status validation of every operand error,
// well-defined degenerate shapes, first-use kernel verification with
// quarantine and graceful fallback, and the sim watchdog budgets. The
// invariant under test throughout: a fault produces a non-OK Status or a
// *correct* degraded result — never a crash, a hang, or wrong numerics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <vector>

#include "backend/backend.hpp"
#include "codegen/generator.hpp"
#include "common/failpoint.hpp"
#include "common/matrix.hpp"
#include "common/reference_gemm.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"
#include "core/plan.hpp"
#include "hw/chip_database.hpp"
#include "sim/interpreter.hpp"
#include "sim/pipeline.hpp"
#include "test_util.hpp"
#include "tune/records.hpp"

namespace autogemm {
namespace {

using common::ConstMatrixView;
using common::Matrix;
using common::MatrixView;

GemmExParams overwrite() {
  GemmExParams p;
  p.beta = 0.0f;
  return p;
}

ContextOptions serial_opts() {
  ContextOptions opts;
  opts.threads = 1;
  return opts;
}

/// Every test disarms whatever it armed, even on assertion failure.
class Robustness : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::disarm_all(); }
};

/// The retained single-call entry points, so each validation and
/// degenerate-shape test covers all of them. run_const_b_i8 takes only
/// alpha and beta; its operands are always canonical.
struct EntryPoint {
  const char* name;
  Status (*call)(Context&, ConstMatrixView, ConstMatrixView, MatrixView,
                 const GemmExParams&);
};

const EntryPoint kEntryPoints[] = {
    {"run",
     [](Context& ctx, ConstMatrixView a, ConstMatrixView b, MatrixView c,
        const GemmExParams& p) { return ctx.run(a, b, c, p); }},
    {"run_const_a",
     [](Context& ctx, ConstMatrixView a, ConstMatrixView b, MatrixView c,
        const GemmExParams& p) { return ctx.run_const_a(a, b, c, p); }},
    {"run_const_b",
     [](Context& ctx, ConstMatrixView a, ConstMatrixView b, MatrixView c,
        const GemmExParams& p) { return ctx.run_const_b(a, b, c, p); }},
    {"run_const_b_i8",
     [](Context& ctx, ConstMatrixView a, ConstMatrixView b, MatrixView c,
        const GemmExParams& p) {
       return ctx.run_const_b_i8(a, b, c, p.alpha, p.beta);
     }},
};

// ---------------------------------------------------------------- validation

TEST_F(Robustness, NonFiniteScalarsRejectedBeforeAnyWrite) {
  for (const EntryPoint& ep : kEntryPoints) {
    SCOPED_TRACE(ep.name);
    Context ctx(serial_opts());
    Matrix a(4, 4), b(4, 4), c(4, 4);
    common::fill_random(a.view(), 1);
    common::fill_random(b.view(), 2);
    for (int i = 0; i < 4; ++i)
      for (int j = 0; j < 4; ++j) c.at(i, j) = 7.0f;

    GemmExParams p;
    p.alpha = std::numeric_limits<float>::quiet_NaN();
    EXPECT_EQ(ep.call(ctx, a.view(), b.view(), c.view(), p).code(),
              StatusCode::kInvalidArgument);
    p.alpha = 1.0f;
    p.beta = std::numeric_limits<float>::infinity();
    EXPECT_EQ(ep.call(ctx, a.view(), b.view(), c.view(), p).code(),
              StatusCode::kInvalidArgument);
    // C must be untouched on a validation failure.
    for (int i = 0; i < 4; ++i)
      for (int j = 0; j < 4; ++j) EXPECT_EQ(c.at(i, j), 7.0f);
  }
}

TEST_F(Robustness, StructurallyBrokenViewsRejected) {
  for (const EntryPoint& ep : kEntryPoints) {
    SCOPED_TRACE(ep.name);
    Context ctx(serial_opts());
    Matrix a(4, 4), b(4, 4), c(4, 4);
    common::fill_random(a.view(), 1);
    common::fill_random(b.view(), 2);

    // Negative dimension.
    EXPECT_EQ(
        ep.call(ctx, ConstMatrixView{a.data(), -1, 4, 4}, b.view(), c.view(),
                {})
            .code(),
        StatusCode::kInvalidArgument);
    // Null data with nonzero extent.
    EXPECT_EQ(ep.call(ctx, ConstMatrixView{nullptr, 4, 4, 4}, b.view(),
                      c.view(), {})
                  .code(),
              StatusCode::kInvalidArgument);
    // Leading dimension below the row width.
    EXPECT_EQ(ep.call(ctx, ConstMatrixView{a.data(), 4, 4, 2}, b.view(),
                      c.view(), {})
                  .code(),
              StatusCode::kInvalidArgument);
  }
}

TEST_F(Robustness, ShapeDisagreementsRejected) {
  for (const EntryPoint& ep : kEntryPoints) {
    SCOPED_TRACE(ep.name);
    Context ctx(serial_opts());
    Matrix a(4, 3), b(4, 4), c(4, 4);  // inner dims 3 vs 4
    EXPECT_EQ(ep.call(ctx, a.view(), b.view(), c.view(), {}).code(),
              StatusCode::kInvalidArgument);
    Matrix a2(4, 4), c_bad(3, 4);  // op(A)*op(B) is 4x4, C is 3x4
    EXPECT_EQ(ep.call(ctx, a2.view(), b.view(), c_bad.view(), {}).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST_F(Robustness, AliasedOutputRejected) {
  for (const EntryPoint& ep : kEntryPoints) {
    SCOPED_TRACE(ep.name);
    Context ctx(serial_opts());
    Matrix a(4, 4), b(4, 4);
    // C sharing A's storage is in-place GEMM; the executor would read
    // partially overwritten operand data.
    MatrixView c_alias{a.data(), 4, 4, 4};
    EXPECT_EQ(ep.call(ctx, a.view(), b.view(), c_alias, {}).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST_F(Robustness, PartiallyOverlappingOutputRejected) {
  // C as a row-shifted block of A's buffer: the pointers differ, but C's
  // first row is A's second row, so the executor would overwrite operand
  // data it has yet to read. Every entry point applies views_overlap's
  // range rule and leaves C untouched.
  const EntryPoint* eps[] = {&kEntryPoints[0], &kEntryPoints[1],
                             &kEntryPoints[2]};
  for (const EntryPoint* ep : eps) {
    SCOPED_TRACE(ep->name);
    Context ctx(serial_opts());
    Matrix buf(9, 8), b(8, 8);
    common::fill_random(buf.view(), 1);
    common::fill_random(b.view(), 2);
    const ConstMatrixView a{buf.data(), 8, 8, 8};
    MatrixView c{buf.data() + 8, 8, 8, 8};
    const std::vector<float> before(buf.data(), buf.data() + 9 * 8);
    const Status s = ep->call(ctx, a, b.view(), c, {});
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.to_string();
    EXPECT_TRUE(std::equal(before.begin(), before.end(), buf.data()));
  }
}

TEST_F(Robustness, FreeFunctionsReturnStatus) {
  // The free functions forward default_context().run()'s Status: a
  // rejected call reports why instead of failing silently.
  Matrix a(4, 4), b(4, 4);
  MatrixView c_alias{a.data(), 4, 4, 4};
  const Status s = gemm(a.view(), b.view(), c_alias);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(s.message().empty());
  EXPECT_EQ(gemm_overwrite(a.view(), b.view(), c_alias).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(gemm_ex(a.view(), b.view(), c_alias).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sgemm('N', 'N', 4, 4, 4, 1.0f, a.data(), 4, b.data(), 4, 1.0f,
                  a.data(), 4)
                .code(),
            StatusCode::kInvalidArgument);
}

// --------------------------------------------------------- degenerate shapes

TEST_F(Robustness, EmptyOutputIsAnOkNoop) {
  for (const EntryPoint& ep : kEntryPoints) {
    SCOPED_TRACE(ep.name);
    Context ctx(serial_opts());
    Matrix b(5, 7);
    common::fill_random(b.view(), 3);
    // M == 0: op(A) is 0x5, C is 0x7 — nothing to compute, nothing to
    // write.
    EXPECT_TRUE(ep.call(ctx, ConstMatrixView{nullptr, 0, 5, 5}, b.view(),
                        MatrixView{nullptr, 0, 7, 7}, {})
                    .ok());
    // N == 0.
    Matrix a(4, 5);
    EXPECT_TRUE(ep.call(ctx, a.view(), ConstMatrixView{nullptr, 5, 0, 0},
                        MatrixView{nullptr, 4, 0, 0}, {})
                    .ok());
    EXPECT_TRUE(ctx.health().last_error.ok());
  }
}

TEST_F(Robustness, KZeroIsBetaScaleOfC) {
  for (const EntryPoint& ep : kEntryPoints) {
    SCOPED_TRACE(ep.name);
    Context ctx(serial_opts());
    Matrix c(3, 4);
    for (int i = 0; i < 3; ++i)
      for (int j = 0; j < 4; ++j) c.at(i, j) = 2.0f;
    const ConstMatrixView a{nullptr, 3, 0, 0};
    const ConstMatrixView b{nullptr, 0, 4, 4};

    GemmExParams p;
    p.beta = 0.5f;
    EXPECT_TRUE(ep.call(ctx, a, b, c.view(), p).ok());
    for (int i = 0; i < 3; ++i)
      for (int j = 0; j < 4; ++j) EXPECT_EQ(c.at(i, j), 1.0f);

    // Default beta = 1: C untouched.
    EXPECT_TRUE(ep.call(ctx, a, b, c.view(), {}).ok());
    for (int i = 0; i < 3; ++i)
      for (int j = 0; j < 4; ++j) EXPECT_EQ(c.at(i, j), 1.0f);

    // beta = 0 stores zeros (without reading C).
    EXPECT_TRUE(ep.call(ctx, a, b, c.view(), overwrite()).ok());
    for (int i = 0; i < 3; ++i)
      for (int j = 0; j < 4; ++j) EXPECT_EQ(c.at(i, j), 0.0f);
  }
}

TEST_F(Robustness, SgemmShimHandlesKZero) {
  // The BLAS-compatible shim routes through Context::run, so a K = 0 call
  // beta-scales C instead of falling into plan construction.
  std::vector<float> c(4, 2.0f);
  EXPECT_TRUE(sgemm('N', 'N', 2, 2, /*k=*/0, 1.0f, nullptr, 0, nullptr, 2,
                    0.5f, c.data(), 2)
                  .ok());
  for (float v : c) EXPECT_EQ(v, 1.0f);
}

// ------------------------------------------- verification/quarantine ladder

TEST_F(Robustness, ProbeFailureQuarantinesTunedConfigAndReroutes) {
  // A tuned record whose config will fail its first-use probe (injected):
  // the ladder must quarantine it and serve the call with the heuristic
  // config — correct numerics, visible in health().
  tune::TuningRecords recs;
  tune::Candidate tuned{16, 32, 16, LoopOrder::kKNM, kernels::Packing::kOnline};
  // Tag the record with the backend a kAuto context resolves, so the
  // tuned-probe ladder is exercised under every CI backend-matrix leg.
  tuned.backend = backend::resolve_backend(backend::BackendId::kAuto);
  recs.add({64, 64, 64}, tuned, 100.0);
  Context ctx(std::move(recs), serial_opts());

  Matrix a(64, 64), b(64, 64), c(64, 64), c_ref(64, 64);
  common::fill_random(a.view(), 1);
  common::fill_random(b.view(), 2);
  common::reference_gemm(a.view(), b.view(), c_ref.view());

  failpoint::arm("verify.portable", /*budget=*/1);  // poison one probe
  const Status s = ctx.run(a.view(), b.view(), c.view(), overwrite());
  EXPECT_TRUE(s.ok()) << s.to_string();
  EXPECT_LT(common::max_rel_error(c.view(), c_ref.view()),
            testutil::gemm_tolerance(64));

  const HealthReport h = ctx.health();
  EXPECT_TRUE(h.degraded);
  EXPECT_EQ(h.quarantined_configs, 1u);
  EXPECT_EQ(h.probe_failures, 1u);
  EXPECT_EQ(h.probes, 2u);  // the failed tuned probe + the passing heuristic
  ASSERT_FALSE(h.events.empty());
  EXPECT_EQ(h.events.front().kind, HealthEvent::Kind::kQuarantine);

  const ContextStats st = ctx.stats();
  EXPECT_EQ(st.resolved_exact, 0u);  // the tuned config never served
  EXPECT_EQ(st.resolved_heuristic, 1u);
  EXPECT_FALSE(failpoint::armed("verify.portable"));  // budget consumed
}

TEST_F(Robustness, AllCandidatesQuarantinedPinsShapeToReference) {
  Context ctx(serial_opts());
  Matrix a(32, 32), b(32, 32), c(32, 32), c_ref(32, 32);
  common::fill_random(a.view(), 5);
  common::fill_random(b.view(), 6);
  common::reference_gemm(a.view(), b.view(), c_ref.view());

  failpoint::arm("verify.portable");  // unlimited: every candidate fails
  const Status s = ctx.run(a.view(), b.view(), c.view(), overwrite());
  EXPECT_TRUE(s.ok()) << s.to_string();
  // The bottom tier of the ladder is the double-accumulating reference:
  // slower, never wrong.
  EXPECT_LT(common::max_rel_error(c.view(), c_ref.view()), 1e-6);

  HealthReport h = ctx.health();
  EXPECT_TRUE(h.degraded);
  EXPECT_EQ(h.reference_shapes, 1u);
  EXPECT_GE(h.quarantined_configs, 1u);

  // The pin is cached with the plan entry: a second call on the same shape
  // hits the cache and still serves correctly, without new probes.
  failpoint::disarm_all();
  Matrix c2(32, 32);
  EXPECT_TRUE(ctx.run(a.view(), b.view(), c2.view(), overwrite()).ok());
  EXPECT_LT(common::max_rel_error(c2.view(), c_ref.view()), 1e-6);
  EXPECT_EQ(ctx.stats().plan_hits, 1u);
  EXPECT_EQ(ctx.health().probes, h.probes);
}

TEST_F(Robustness, QuarantineSurvivesCacheClear) {
  tune::TuningRecords recs;
  tune::Candidate tuned{16, 16, 16, LoopOrder::kKNM, kernels::Packing::kOnline};
  tuned.backend = backend::resolve_backend(backend::BackendId::kAuto);
  recs.add({48, 48, 48}, tuned, 100.0);
  Context ctx(std::move(recs), serial_opts());
  Matrix a(48, 48), b(48, 48), c(48, 48);
  common::fill_random(a.view(), 1);
  common::fill_random(b.view(), 2);

  failpoint::arm("verify.portable", 1);
  ASSERT_TRUE(ctx.run(a.view(), b.view(), c.view(), overwrite()).ok());
  const HealthReport before = ctx.health();
  ASSERT_EQ(before.quarantined_configs, 1u);

  ctx.clear();  // drops plans and packings — not the quarantine
  EXPECT_EQ(ctx.health().quarantined_configs, 1u);

  // Re-resolving the shape skips the quarantined config without re-probing
  // it, and the surviving config's earlier verification is remembered.
  ASSERT_TRUE(ctx.run(a.view(), b.view(), c.view(), overwrite()).ok());
  EXPECT_EQ(ctx.health().probes, before.probes);
  EXPECT_EQ(ctx.stats().resolved_heuristic, 2u);
}

TEST_F(Robustness, VerificationCanBeDisabled) {
  ContextOptions opts = serial_opts();
  opts.verify_kernels = false;
  Context ctx(opts);
  Matrix a(24, 24), b(24, 24), c(24, 24);
  common::fill_random(a.view(), 1);
  common::fill_random(b.view(), 2);
  EXPECT_TRUE(ctx.run(a.view(), b.view(), c.view(), overwrite()).ok());
  const HealthReport h = ctx.health();
  EXPECT_EQ(h.probes, 0u);
  EXPECT_FALSE(h.degraded);
}

// -------------------------------------------------- Status-native factories

TEST_F(Robustness, PlanCreateReportsInvalidInputs) {
  EXPECT_EQ(Plan::create(-1, 8, 8, default_config(8, 8, 8)).status().code(),
            StatusCode::kInvalidArgument);
  GemmConfig bad = default_config(8, 8, 8);
  bad.mc = 0;
  EXPECT_EQ(Plan::create(8, 8, 8, bad).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(Plan::create(8, 8, 8, default_config(8, 8, 8)).ok());
}

TEST_F(Robustness, PackedCreateReportsMismatchedView) {
  const StatusOr<Plan> plan = Plan::create(16, 16, 16, default_config(16, 16, 16));
  ASSERT_TRUE(plan.ok());
  Matrix wrong(8, 8);
  EXPECT_EQ(PackedA::create(wrong.view(), *plan).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(PackedB::create(wrong.view(), *plan).status().code(),
            StatusCode::kInvalidArgument);
  Matrix a(16, 16), b(16, 16);
  EXPECT_TRUE(PackedA::create(a.view(), *plan).ok());
  EXPECT_TRUE(PackedB::create(b.view(), *plan).ok());
}

// ------------------------------------------------------------ sim watchdogs

TEST_F(Robustness, InterpreterStepBudgetStopsRunawayKernels) {
  const auto mk = codegen::generate_microkernel(4, 8, 32, 4, {});
  const int ka = codegen::padded_k_a(32, 4);
  const int kb = codegen::padded_k_b(32, 4);
  std::vector<float> a(4 * ka, 0.0f), b(kb * 8, 0.0f), c(4 * 8, 0.0f);
  sim::KernelArgs args{a.data(), b.data(), c.data(), ka, 8, 8};

  sim::Interpreter tight(/*max_steps=*/16);
  EXPECT_EQ(tight.try_run(mk.program, args).code(),
            StatusCode::kDeadlineExceeded);
  // The legacy API surfaces the same budget as an exception, not a hang.
  EXPECT_THROW(tight.run(mk.program, args), std::runtime_error);

  sim::Interpreter roomy;
  EXPECT_TRUE(roomy.try_run(mk.program, args).ok());
}

TEST_F(Robustness, PipelineCycleAndInstructionBudgets) {
  const auto mk = codegen::generate_microkernel(4, 8, 32, 4, {});
  const hw::HardwareModel hw = hw::host_model(4, 16);
  sim::SimOptions opts;
  opts.lda = codegen::padded_k_a(32, 4);
  opts.ldb = 8;
  opts.ldc = 8;
  sim::SimStats stats;

  sim::SimOptions cycles = opts;
  cycles.max_cycles = 1.0;  // below even the launch overhead
  EXPECT_EQ(sim::simulate_checked(mk.program, hw, cycles, stats).code(),
            StatusCode::kDeadlineExceeded);

  sim::SimOptions insns = opts;
  insns.max_dynamic_instructions = 4;
  EXPECT_EQ(sim::simulate_checked(mk.program, hw, insns, stats).code(),
            StatusCode::kDeadlineExceeded);

  // Same budgets through the legacy wrapper: an exception, never a hang.
  EXPECT_THROW(sim::simulate(mk.program, hw, cycles), std::runtime_error);

  EXPECT_TRUE(sim::simulate_checked(mk.program, hw, opts, stats).ok());
  EXPECT_GT(stats.cycles, 0.0);
}

// --------------------------------------------------- damaged records intake

TEST_F(Robustness, ContextLoadsDamagedRecordsFileDegraded) {
  // A records file with one good and one corrupt line: the context must
  // come up serving (with the good record) and report the damage.
  const std::string path = "/tmp/autogemm_robustness_records.txt";
  {
    tune::TuningRecords recs;
    recs.add({64, 64, 64},
             {16, 32, 16, LoopOrder::kKNM, kernels::Packing::kOnline}, 100.0);
    ASSERT_TRUE(recs.save_file(path).ok());
    std::ofstream os(path, std::ios::app);
    os << "32 32 garbage line\n";
  }
  ContextOptions opts = serial_opts();
  opts.records_path = path;
  Context ctx(opts);
  EXPECT_EQ(ctx.records().size(), 1u);
  const HealthReport h = ctx.health();
  EXPECT_TRUE(h.degraded);
  EXPECT_EQ(h.records_skipped, 1u);
  ASSERT_FALSE(h.events.empty());
  EXPECT_EQ(h.events.front().kind, HealthEvent::Kind::kRecordsDamaged);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace autogemm
