// Fault-injection coverage: every named failpoint in the site registry
// (common/failpoint.hpp) is driven end-to-end here, proving each failure
// path ends in a non-OK Status or a correct degraded result — zero
// crashes, zero hangs, zero wrong numerics. The CI fault-injection pass
// additionally runs the FailpointEnv suite with AUTOGEMM_FAILPOINTS set.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <sstream>
#include <vector>

#include "backend/backend.hpp"
#include "codegen/generator.hpp"
#include "common/failpoint.hpp"
#include "common/matrix.hpp"
#include "common/reference_gemm.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "core/context.hpp"
#include "hw/chip_database.hpp"
#include "serve/engine.hpp"
#include "sim/interpreter.hpp"
#include "sim/pipeline.hpp"
#include "test_util.hpp"
#include "tune/records.hpp"

namespace autogemm {
namespace {

using common::Matrix;

GemmExParams overwrite() {
  GemmExParams p;
  p.beta = 0.0f;
  return p;
}

class Failpoints : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::disarm_all(); }
};

// ----------------------------------------------------- framework mechanics

TEST_F(Failpoints, ArmBudgetHitsAndDisarm) {
  EXPECT_FALSE(failpoint::armed("test.x"));
  EXPECT_FALSE(failpoint::should_fail("test.x"));

  failpoint::arm("test.x", /*budget=*/2);
  EXPECT_TRUE(failpoint::armed("test.x"));
  EXPECT_TRUE(failpoint::should_fail("test.x"));
  EXPECT_TRUE(failpoint::should_fail("test.x"));
  EXPECT_FALSE(failpoint::should_fail("test.x"));  // budget exhausted
  EXPECT_FALSE(failpoint::armed("test.x"));        // ... and auto-disarmed
  EXPECT_EQ(failpoint::hits("test.x"), 2);         // lifetime count survives

  failpoint::arm("test.y");  // unlimited
  EXPECT_TRUE(failpoint::should_fail("test.y"));
  EXPECT_TRUE(failpoint::should_fail("test.y"));
  failpoint::disarm("test.y");
  EXPECT_FALSE(failpoint::should_fail("test.y"));
  EXPECT_EQ(failpoint::hits("test.y"), 2);

  failpoint::disarm_all();
  EXPECT_EQ(failpoint::hits("test.x"), 0);  // disarm_all resets accounting
}

TEST(FailpointEnv, CiSmokeSiteArmedWhenRequested) {
  // Meaningful only under the CI fault-injection pass, which launches the
  // test binary with AUTOGEMM_FAILPOINTS=ci.smoke: static init must have
  // armed the site before main() ran. (Defined first in this suite —
  // later tests reset the registry.)
  const char* env = std::getenv("AUTOGEMM_FAILPOINTS");
  if (env == nullptr || std::strstr(env, "ci.smoke") == nullptr)
    GTEST_SKIP() << "AUTOGEMM_FAILPOINTS does not request ci.smoke";
  EXPECT_TRUE(failpoint::armed("ci.smoke"));
  EXPECT_TRUE(failpoint::should_fail("ci.smoke"));
  failpoint::disarm("ci.smoke");
}

TEST(FailpointEnv, ArmsFromEnvironmentVariable) {
  const char* prior = std::getenv("AUTOGEMM_FAILPOINTS");
  const std::string saved = prior != nullptr ? prior : "";
  ::setenv("AUTOGEMM_FAILPOINTS", "test.env_plain,test.env_budgeted=2", 1);
  failpoint::arm_from_env();
  EXPECT_TRUE(failpoint::armed("test.env_plain"));
  EXPECT_TRUE(failpoint::armed("test.env_budgeted"));
  EXPECT_TRUE(failpoint::should_fail("test.env_budgeted"));
  EXPECT_TRUE(failpoint::should_fail("test.env_budgeted"));
  EXPECT_FALSE(failpoint::should_fail("test.env_budgeted"));
  if (prior != nullptr)
    ::setenv("AUTOGEMM_FAILPOINTS", saved.c_str(), 1);
  else
    ::unsetenv("AUTOGEMM_FAILPOINTS");
  failpoint::disarm_all();
}

// -------------------------------------------------------- alloc.* injection

TEST_F(Failpoints, AllocFailureFallsBackToReferenceServingTheCall) {
  ContextOptions opts;
  opts.threads = 1;
  Context ctx(opts);
  Matrix a(24, 24), b(24, 24), c(24, 24), c_ref(24, 24);
  common::fill_random(a.view(), 1);
  common::fill_random(b.view(), 2);
  common::reference_gemm(a.view(), b.view(), c_ref.view());

  // The serial executor's scratch allocation throws bad_alloc once; the
  // call must still complete — served by the reference tier.
  failpoint::arm("alloc.aligned_buffer", /*budget=*/1);
  const Status s = ctx.run(a.view(), b.view(), c.view(), overwrite());
  EXPECT_TRUE(s.ok()) << s.to_string();
  EXPECT_GE(failpoint::hits("alloc.aligned_buffer"), 1);  // site was reached
  EXPECT_LT(common::max_rel_error(c.view(), c_ref.view()), 1e-6);

  const HealthReport h = ctx.health();
  EXPECT_TRUE(h.degraded);
  EXPECT_EQ(h.alloc_fallbacks, 1u);

  // The fallback was per-call: the next call takes the fast path again.
  Matrix c2(24, 24);
  EXPECT_TRUE(ctx.run(a.view(), b.view(), c2.view(), overwrite()).ok());
  EXPECT_LT(common::max_rel_error(c2.view(), c_ref.view()),
            testutil::gemm_tolerance(24));
  EXPECT_EQ(ctx.health().alloc_fallbacks, 1u);
}

TEST_F(Failpoints, KSplitScratchFailureServedByReference) {
  // A cold forced k-split call on a pool: its one workspace grow (packing
  // scratch plus the per-slice partial Cs) fails before any C is written,
  // so the reference tier serves the call and the pool stays.
  ContextOptions opts;
  opts.threads = 4;
  opts.parallel_strategy = ParallelStrategy::kKSplit;
  Context ctx(opts), twin(opts);
  const int m = 8, n = 8, k = 4096;
  Matrix a(m, k), b(k, n), c(m, n), c_ref(m, n), c_next(m, n), c_twin(m, n);
  common::fill_random(a.view(), 1);
  common::fill_random(b.view(), 2);
  common::reference_gemm(a.view(), b.view(), c_ref.view());

  failpoint::arm("alloc.aligned_buffer", /*budget=*/1);
  const Status s = ctx.run(a.view(), b.view(), c.view(), overwrite());
  EXPECT_TRUE(s.ok()) << s.to_string();
  EXPECT_EQ(failpoint::hits("alloc.aligned_buffer"), 1);
  EXPECT_LT(common::max_rel_error(c.view(), c_ref.view()),
            testutil::gemm_tolerance(k));
  const HealthReport h = ctx.health();
  EXPECT_EQ(h.alloc_fallbacks, 1u);
  EXPECT_FALSE(h.pool_degraded);
  EXPECT_NE(ctx.pool(), nullptr);

  // The next call runs k-split again, with the bits of a context whose
  // scratch never failed.
  EXPECT_TRUE(ctx.run(a.view(), b.view(), c_next.view(), overwrite()).ok());
  EXPECT_EQ(ctx.health().last_parallel_strategy, "k-split");
  EXPECT_TRUE(twin.run(a.view(), b.view(), c_twin.view(), overwrite()).ok());
  EXPECT_EQ(std::memcmp(c_next.data(), c_twin.data(),
                        static_cast<std::size_t>(m) * n * sizeof(float)),
            0);
}

// --------------------------------------------------- threadpool.* injection

TEST_F(Failpoints, WorkerFaultRetiresPoolAndSubsequentCallsRunSerial) {
  // Small cache blocks so the 64^3 problem spans 16 parallel chunks.
  tune::TuningRecords recs;
  tune::Candidate cand{16, 16, 16, LoopOrder::kKNM, kernels::Packing::kOnline};
  cand.backend = backend::resolve_backend(backend::BackendId::kAuto);
  recs.add({64, 64, 64}, cand, 100.0);
  ContextOptions opts;
  opts.threads = 4;
  Context ctx(std::move(recs), opts);

  Matrix a(64, 64), b(64, 64), c(64, 64), c_ref(64, 64);
  common::fill_random(a.view(), 1);
  common::fill_random(b.view(), 2);
  common::reference_gemm(a.view(), b.view(), c_ref.view());

  failpoint::arm("threadpool.worker", /*budget=*/1);
  const Status s = ctx.run(a.view(), b.view(), c.view(), overwrite());
  // A worker died mid-region: C is unspecified for this call, the Status
  // says so, and the pool is retired.
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_EQ(ctx.health().last_error.code(), StatusCode::kInternal);
  EXPECT_GE(failpoint::hits("threadpool.worker"), 1);
  EXPECT_TRUE(ctx.health().pool_degraded);
  EXPECT_EQ(ctx.pool(), nullptr);  // quarantined

  // Degraded-but-correct: the same context keeps serving, serially.
  Matrix c2(64, 64);
  const Status s2 = ctx.run(a.view(), b.view(), c2.view(), overwrite());
  EXPECT_TRUE(s2.ok()) << s2.to_string();
  EXPECT_LT(common::max_rel_error(c2.view(), c_ref.view()),
            testutil::gemm_tolerance(64));
}

TEST_F(Failpoints, Int8WorkerFaultRetiresPoolAndSubsequentCallsRunSerial) {
  // 64 x 256 spans 16 column panels, so the int8 call runs many tasks on
  // the pool.
  ContextOptions opts;
  opts.threads = 4;
  Context ctx(opts);
  ContextOptions serial_opts;
  serial_opts.threads = 1;
  Context serial(serial_opts);

  Matrix a(64, 96), b(96, 256), c(64, 256), c_serial(64, 256);
  common::fill_random(a.view(), 1);
  common::fill_random(b.view(), 2);
  ASSERT_TRUE(
      serial.run_const_b_i8(a.view(), b.view(), c_serial.view(), 1, 0).ok());

  failpoint::arm("threadpool.worker", /*budget=*/1);
  const Status s = ctx.run_const_b_i8(a.view(), b.view(), c.view(), 1, 0);
  // The fault is reported through Status, not thrown; C is unspecified.
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_EQ(ctx.health().last_error.code(), StatusCode::kInternal);
  EXPECT_GE(failpoint::hits("threadpool.worker"), 1);
  EXPECT_TRUE(ctx.health().pool_degraded);
  EXPECT_EQ(ctx.pool(), nullptr);

  // The next call runs serially and gives the serial Context's bits.
  Matrix c2(64, 256);
  const Status s2 = ctx.run_const_b_i8(a.view(), b.view(), c2.view(), 1, 0);
  ASSERT_TRUE(s2.ok()) << s2.to_string();
  for (int r = 0; r < 64; ++r)
    for (int col = 0; col < 256; ++col)
      ASSERT_EQ(c2.view().at(r, col), c_serial.view().at(r, col));
}

TEST_F(Failpoints, PooledBatchWorkerFaultRetiresPoolAndNextBatchRunsSerial) {
  // Eight same-shape members sharing B: a pooled Context spreads them over
  // its workers, so the armed worker fault lands inside the batch.
  constexpr int kMembers = 8, kM = 24, kN = 40, kK = 56;
  ContextOptions opts;
  opts.threads = 4;
  Context ctx(opts);
  ContextOptions serial_opts;
  serial_opts.threads = 1;
  Context serial(serial_opts);

  Matrix b(kK, kN);
  common::fill_random(b.view(), 5);
  std::vector<Matrix> as, cs, c2s, c_serial;
  for (int i = 0; i < kMembers; ++i) {
    as.emplace_back(kM, kK);
    common::fill_random(as.back().view(), 10 + i);
    cs.emplace_back(kM, kN);
    c2s.emplace_back(kM, kN);
    c_serial.emplace_back(kM, kN);
  }
  const auto batch = [&](std::vector<Matrix>& out) {
    std::vector<BatchItem> items;
    for (int i = 0; i < kMembers; ++i)
      items.push_back({as[i].view(), b.view(), out[i].view()});
    return items;
  };
  ASSERT_TRUE(serial.run_batched(batch(c_serial)).ok());

  failpoint::arm("threadpool.worker", /*budget=*/1);
  const Status s = ctx.run_batched(batch(cs));
  // The fault is reported through Status, not thrown; C is unspecified.
  EXPECT_EQ(s.code(), StatusCode::kInternal) << s.to_string();
  EXPECT_GE(failpoint::hits("threadpool.worker"), 1);
  const HealthReport h = ctx.health();
  EXPECT_TRUE(h.pool_degraded);
  EXPECT_EQ(h.last_error.code(), StatusCode::kInternal);
  bool pool_event = false;
  for (const HealthEvent& e : h.events)
    pool_event = pool_event || e.kind == HealthEvent::Kind::kPoolDegraded;
  EXPECT_TRUE(pool_event);

  // The next batch runs serially and gives the serial Context's bits.
  const Status s2 = ctx.run_batched(batch(c2s));
  ASSERT_TRUE(s2.ok()) << s2.to_string();
  for (int i = 0; i < kMembers; ++i)
    for (int r = 0; r < kM; ++r)
      for (int col = 0; col < kN; ++col)
        ASSERT_EQ(c2s[i].at(r, col), c_serial[i].at(r, col))
            << "member " << i;
}

TEST_F(Failpoints, SpawnFailureDegradesToSerialExecution) {
  failpoint::arm("threadpool.spawn");  // every spawn attempt fails
  common::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.spawn_failures(), 4u);
  // parallel_for still runs every iteration — on the calling thread.
  std::vector<int> out(8, 0);
  pool.parallel_for(8, [&](int i) { out[i] = i + 1; });
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i], i + 1);
  failpoint::disarm_all();
}

TEST_F(Failpoints, ContextReportsSpawnStarvedPool) {
  failpoint::arm("threadpool.spawn");
  ContextOptions opts;
  opts.threads = 4;
  Context ctx(opts);
  Matrix a(16, 16), b(16, 16), c(16, 16), c_ref(16, 16);
  common::fill_random(a.view(), 1);
  common::fill_random(b.view(), 2);
  common::reference_gemm(a.view(), b.view(), c_ref.view());
  const Status s = ctx.run(a.view(), b.view(), c.view(), overwrite());
  EXPECT_TRUE(s.ok()) << s.to_string();
  EXPECT_LT(common::max_rel_error(c.view(), c_ref.view()),
            testutil::gemm_tolerance(16));
  const HealthReport h = ctx.health();
  EXPECT_TRUE(h.degraded);
  EXPECT_TRUE(h.pool_degraded);
}

// ------------------------------------------------------ records.* injection

TEST_F(Failpoints, CorruptedSaveIsCaughtByPerLineChecksum) {
  tune::TuningRecords recs;
  recs.add({64, 64, 64},
           {16, 32, 16, LoopOrder::kKNM, kernels::Packing::kOnline}, 10.0);
  recs.add({128, 128, 128},
           {32, 64, 32, LoopOrder::kNKM, kernels::Packing::kNone}, 20.0);

  failpoint::arm("records.corrupt_save", 1);  // bit-rot one line post-checksum
  std::stringstream ss;
  ASSERT_TRUE(recs.save(ss).ok());

  tune::TuningRecords loaded;
  tune::TuningRecords::LoadReport report;
  const Status s = loaded.load(ss, &report);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(report.loaded, 1u);
  EXPECT_EQ(report.skipped, 1u);  // exactly the garbled record
  EXPECT_EQ(loaded.size(), 1u);
}

TEST_F(Failpoints, SaveFileWriteErrorPreservesOriginalFile) {
  const std::string path = "/tmp/autogemm_failpoint_records.txt";
  tune::TuningRecords original;
  original.add({64, 64, 64},
               {16, 32, 16, LoopOrder::kKNM, kernels::Packing::kOnline}, 10.0);
  ASSERT_TRUE(original.save_file(path).ok());

  tune::TuningRecords updated;
  updated.add({64, 64, 64},
              {16, 32, 16, LoopOrder::kKNM, kernels::Packing::kOnline}, 10.0);
  updated.add({128, 128, 128},
              {32, 64, 32, LoopOrder::kNKM, kernels::Packing::kNone}, 20.0);
  failpoint::arm("records.save_fail", 1);  // simulated disk-full mid-flush
  const Status s = updated.save_file(path);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);

  // Atomicity: the failed save must leave the previous file intact and no
  // temp file behind.
  tune::TuningRecords reread;
  EXPECT_TRUE(reread.load_file(path).ok());
  EXPECT_EQ(reread.size(), 1u);
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

// ---------------------------------------------------------- sim.* injection

TEST_F(Failpoints, IllegalInstructionIsAStatusNotACrash) {
  const auto mk = codegen::generate_microkernel(2, 8, 16, 4, {});
  const int ka = codegen::padded_k_a(16, 4);
  const int kb = codegen::padded_k_b(16, 4);
  std::vector<float> a(2 * ka), b(kb * 8), c(2 * 8, 0.0f);
  common::fill_random(common::MatrixView{a.data(), 2, ka, ka}, 1);
  common::fill_random(common::MatrixView{b.data(), kb, 8, 8}, 2);
  sim::KernelArgs args{a.data(), b.data(), c.data(), ka, 8, 8};
  sim::Interpreter interp;

  failpoint::arm("sim.illegal_instruction", 1);
  EXPECT_EQ(interp.try_run(mk.program, args).code(), StatusCode::kInternal);

  // Budget consumed: the same program now executes and matches reference.
  std::fill(c.begin(), c.end(), 0.0f);
  ASSERT_TRUE(interp.try_run(mk.program, args).ok());
  std::vector<float> c_ref(2 * 8, 0.0f);
  common::reference_gemm(common::ConstMatrixView{a.data(), 2, 16, ka},
                         common::ConstMatrixView{b.data(), 16, 8, 8},
                         common::MatrixView{c_ref.data(), 2, 8, 8});
  EXPECT_LT(common::max_rel_error(common::ConstMatrixView{c.data(), 2, 8, 8},
                                  common::ConstMatrixView{c_ref.data(), 2, 8, 8}),
            testutil::gemm_tolerance(16));
}

TEST_F(Failpoints, CycleBudgetInjectionSurfacesAsDeadlineExceeded) {
  const auto mk = codegen::generate_microkernel(2, 8, 16, 4, {});
  sim::SimOptions opts;
  opts.lda = codegen::padded_k_a(16, 4);
  opts.ldb = 8;
  opts.ldc = 8;
  sim::SimStats stats;
  const hw::HardwareModel hw = hw::host_model(4, 16);

  failpoint::arm("sim.cycle_budget", 1);
  EXPECT_EQ(sim::simulate_checked(mk.program, hw, opts, stats).code(),
            StatusCode::kDeadlineExceeded);

  ASSERT_TRUE(sim::simulate_checked(mk.program, hw, opts, stats).ok());
  EXPECT_GT(stats.cycles, 0.0);
}

// -------------------------------------------------------- verify.* injection
// (The quarantine ladder these drive is covered in robustness_test.cpp;
// here we only prove the probe sites themselves are reachable.)

TEST_F(Failpoints, VerifyFailpointsReachTheProbePath) {
  ContextOptions opts;
  opts.threads = 1;
  Context ctx(opts);
  Matrix a(16, 16), b(16, 16), c(16, 16);
  common::fill_random(a.view(), 1);
  common::fill_random(b.view(), 2);
  failpoint::arm("verify.portable");
  EXPECT_TRUE(ctx.run(a.view(), b.view(), c.view(), overwrite()).ok());
  EXPECT_GE(failpoint::hits("verify.portable"), 1);
  EXPECT_EQ(ctx.health().reference_shapes, 1u);
}

// --------------------------------------------------------- serve.* injection
// (serve.queue_full and serve.spawn are driven in serve_test.cpp; the
// three supervision/breaker sites are driven here so the CI
// fault-injection pass covers every serve site end-to-end. The richer
// recovery semantics — respawn accounting, breaker state machine — live
// in serve_test.cpp and the chaos harness.)

namespace serve_fp {
Context& serve_ctx() {
  static ContextOptions opts = [] {
    ContextOptions o;
    o.threads = 1;
    return o;
  }();
  static Context ctx(opts);
  return ctx;
}
}  // namespace serve_fp

TEST_F(Failpoints, ServeDispatcherCrashIsRecoveredBySupervision) {
  serve::EngineOptions opts;
  opts.start_paused = true;
  serve::Engine engine(serve_fp::serve_ctx(), opts);
  Matrix a(8, 8), b(8, 8), c(8, 8), c_ref(8, 8);
  common::fill_random(a.view(), 1);
  common::fill_random(b.view(), 2);
  common::reference_gemm(a.view(), b.view(), c_ref.view());
  serve::GemmRequest r;
  r.a = a.view();
  r.b = b.view();
  r.c = c.view();
  std::future<Status> f = engine.submit(r);
  // The dispatcher dies on its first wakeup; the monitor respawns it and
  // the queued request is served — never stranded, numerically right.
  failpoint::arm("serve.dispatcher_crash", /*budget=*/1);
  engine.resume();
  EXPECT_TRUE(f.get().ok());
  EXPECT_GE(failpoint::hits("serve.dispatcher_crash"), 1);
  EXPECT_LT(common::max_rel_error(c.view(), c_ref.view()),
            testutil::gemm_tolerance(8));
  engine.shutdown();
  const serve::ServerStats st = engine.stats();
  EXPECT_EQ(st.dispatcher_crashes, 1u);
  EXPECT_TRUE(st.accounting_clean());
}

TEST_F(Failpoints, UnsupervisedDrainServesCrashedDispatchersBacklog) {
  // The monitor thread fails to spawn, so nobody respawns a crashed
  // dispatcher: its queue waits for drain(), which must serve the backlog
  // itself instead of waiting forever.
  failpoint::arm("serve.monitor_spawn", /*budget=*/1);
  serve::Engine engine(serve_fp::serve_ctx());
  EXPECT_EQ(failpoint::hits("serve.monitor_spawn"), 1);
  Matrix a(8, 8), b(8, 8), c(8, 8), c_ref(8, 8);
  common::fill_random(a.view(), 3);
  common::fill_random(b.view(), 4);
  common::reference_gemm(a.view(), b.view(), c_ref.view());
  serve::GemmRequest r;
  r.a = a.view();
  r.b = b.view();
  r.c = c.view();
  failpoint::arm("serve.dispatcher_crash", /*budget=*/1);
  std::future<Status> f = engine.submit(r);
  const Status drained = engine.drain(/*timeout_ns=*/2'000'000'000ull);
  EXPECT_TRUE(drained.ok()) << drained.to_string();
  ASSERT_EQ(f.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  EXPECT_TRUE(f.get().ok());
  EXPECT_LT(common::max_rel_error(c.view(), c_ref.view()),
            testutil::gemm_tolerance(8));
  const serve::ServerStats st = engine.stats();
  EXPECT_EQ(st.dispatcher_crashes, 1u);
  EXPECT_TRUE(engine.inline_mode());
  EXPECT_TRUE(st.accounting_clean());
}

TEST_F(Failpoints, ServeDispatcherStallIsDetectedBySupervision) {
  common::ManualClock clock;
  serve::EngineOptions opts;
  opts.start_paused = true;
  opts.max_batch_delay_ns = 0;  // no batch window: time stops once served
  opts.clock = &clock;
  serve::Engine engine(serve_fp::serve_ctx(), opts);
  Matrix a(8, 8), b(8, 8), c(8, 8);
  common::fill_random(a.view(), 3);
  common::fill_random(b.view(), 4);
  serve::GemmRequest r;
  r.a = a.view();
  r.b = b.view();
  r.c = c.view();
  std::future<Status> f = engine.submit(r);
  // The dispatcher wedges (no heartbeat, work pending); the monitor
  // supersedes it and a replacement serves the request. Engine time: 1 s
  // past the wedge passes the 500 ms heartbeat timeout, then 1 ms steps
  // cover the restart backoff.
  failpoint::arm("serve.dispatcher_stall", /*budget=*/1);
  engine.resume();
  ASSERT_TRUE(testutil::advance_until(clock, 0, [] {
    return failpoint::hits("serve.dispatcher_stall") >= 1;
  }));
  clock.advance(1'000'000'000);
  ASSERT_TRUE(testutil::advance_until(clock, 1'000'000, [&] {
    return engine.stats().dispatcher_restarts >= 1;
  }));
  EXPECT_TRUE(f.get().ok());
  EXPECT_GE(failpoint::hits("serve.dispatcher_stall"), 1);
  engine.shutdown();  // also joins the superseded, wedged thread
  const serve::ServerStats st = engine.stats();
  EXPECT_EQ(st.dispatcher_stalls, 1u);
  EXPECT_TRUE(st.accounting_clean());
}

TEST_F(Failpoints, ServeExecuteFailsTheRequestWithoutTouchingC) {
  serve::EngineOptions opts;
  opts.max_batch_delay_ns = 0;
  serve::Engine engine(serve_fp::serve_ctx(), opts);
  Matrix a(8, 8), b(8, 8), c(8, 8);
  common::fill_random(a.view(), 5);
  common::fill_random(b.view(), 6);
  serve::GemmRequest r;
  r.a = a.view();
  r.b = b.view();
  r.c = c.view();
  failpoint::arm("serve.execute", /*budget=*/1);
  const Status s = engine.submit(r).get();
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_GE(failpoint::hits("serve.execute"), 1);
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j) EXPECT_EQ(c.at(i, j), 0.0f);
  // The fault was per-dispatch: the engine keeps serving afterwards.
  Matrix c2(8, 8);
  r.c = c2.view();
  EXPECT_TRUE(engine.submit(r).get().ok());
  engine.shutdown();
  const serve::ServerStats st = engine.stats();
  EXPECT_EQ(st.completed_error, 1u);
  EXPECT_EQ(st.completed_ok, 1u);
  EXPECT_TRUE(st.accounting_clean());
}

}  // namespace
}  // namespace autogemm
