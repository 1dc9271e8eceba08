// Parallel execution strategies: the auto heuristic, serial / blocks-only /
// k-split agreement on irregular shapes, bitwise determinism of the k-split
// reduction, packed-operand padding, and the Context-level strategy
// observability. Worker count defaults to 4 (override with
// AUTOGEMM_TEST_THREADS); correctness and determinism here depend only on
// the task->output mapping, never on physical core count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "common/matrix.hpp"
#include "common/reference_gemm.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "core/context.hpp"
#include "core/gemm.hpp"
#include "core/plan.hpp"
#include "test_util.hpp"
#include "tune/records.hpp"

namespace autogemm {
namespace {

using common::ConstMatrixView;
using common::Matrix;
using common::MatrixView;

unsigned test_threads() {
  const char* env = std::getenv("AUTOGEMM_TEST_THREADS");
  if (env != nullptr) {
    const int v = std::atoi(env);
    if (v > 0) return static_cast<unsigned>(v);
  }
  return 4;
}

Plan make_plan(int m, int n, int k, ParallelStrategy strategy,
               GemmConfig cfg) {
  cfg.parallel_strategy = strategy;
  return Plan(m, n, k, std::move(cfg));
}

// One problem instance: random A/B/C plus the double-precision reference.
struct Problem {
  Matrix a, b, c0, c_ref;
  Problem(int m, int n, int k, int seed)
      : a(m, k), b(k, n), c0(m, n), c_ref(m, n) {
    common::fill_random(a.view(), seed);
    common::fill_random(b.view(), seed + 1);
    common::fill_random(c0.view(), seed + 2);
    for (int r = 0; r < m; ++r)
      for (int j = 0; j < n; ++j) c_ref.at(r, j) = c0.at(r, j);
    common::reference_gemm(a.view(), b.view(), c_ref.view());
  }

  // Fresh C initialized to c0 so every strategy starts from the same state.
  Matrix fresh_c() const {
    Matrix c(c0.rows(), c0.cols());
    for (int r = 0; r < c0.rows(); ++r)
      for (int j = 0; j < c0.cols(); ++j) c.at(r, j) = c0.at(r, j);
    return c;
  }
};

TEST(ParallelStrategyChoice, AutoPicksKSplitForLargeKSmallMN) {
  GemmConfig cfg = default_config(64, 64, 8192);
  cfg.mc = 64;
  cfg.nc = 64;
  cfg.kc = 512;  // one C block, 16 K blocks: blocks-only starves any pool
  const Plan plan(64, 64, 8192, cfg);
  EXPECT_EQ(choose_parallel_strategy(plan, 3), ParallelStrategy::kKSplit);
  EXPECT_EQ(choose_parallel_strategy(plan, 4), ParallelStrategy::kKSplit);
}

TEST(ParallelStrategyChoice, AutoPicksBlocksWhenCBlocksFeedThePool) {
  GemmConfig cfg = default_config(512, 512, 512);
  cfg.mc = 64;
  cfg.nc = 64;
  cfg.kc = 128;  // 64 C blocks >> 2 * participants
  const Plan plan(512, 512, 512, cfg);
  EXPECT_EQ(choose_parallel_strategy(plan, 4), ParallelStrategy::kBlocksOnly);
}

TEST(ParallelStrategyChoice, ForcedStrategiesAreHonored) {
  GemmConfig cfg = default_config(512, 512, 512);
  cfg.mc = 64;
  cfg.nc = 64;
  cfg.kc = 128;
  const Plan ks = make_plan(512, 512, 512, ParallelStrategy::kKSplit, cfg);
  EXPECT_EQ(choose_parallel_strategy(ks, 4), ParallelStrategy::kKSplit);
  GemmConfig cfg2 = default_config(64, 64, 8192);
  cfg2.mc = 64;
  cfg2.nc = 64;
  cfg2.kc = 512;
  const Plan bl = make_plan(64, 64, 8192, ParallelStrategy::kBlocksOnly, cfg2);
  EXPECT_EQ(choose_parallel_strategy(bl, 4), ParallelStrategy::kBlocksOnly);
}

TEST(ParallelStrategyChoice, ForcedKSplitDegradesWithoutKBlocks) {
  GemmConfig cfg = default_config(64, 64, 64);
  cfg.kc = 128;  // clamps to 64 -> a single K block, nothing to slice
  const Plan plan = make_plan(64, 64, 64, ParallelStrategy::kKSplit, cfg);
  EXPECT_EQ(choose_parallel_strategy(plan, 4), ParallelStrategy::kBlocksOnly);
}

// Serial, blocks-only and k-split must agree with the reference within the
// fp32 dot-product bound on the shapes the tentpole targets: tiny M=N with
// K deep enough for many slices, plus irregular odd shapes.
TEST(ParallelAgreement, StrategiesMatchReferenceOnIrregularShapes) {
  common::ThreadPool pool(test_threads());
  const int ks[] = {4096, 16384};
  for (int mn = 1; mn <= 8; ++mn) {
    for (int k : ks) {
      SCOPED_TRACE("shape " + std::to_string(mn) + "x" + std::to_string(mn) +
                   "x" + std::to_string(k));
      const Problem prob(mn, mn, k, 100 * mn + k % 97);
      const double tol = testutil::gemm_tolerance(k);
      for (ParallelStrategy s : {ParallelStrategy::kBlocksOnly,
                                 ParallelStrategy::kKSplit}) {
        const Plan plan = make_plan(mn, mn, k, s, default_config(mn, mn, k));
        Matrix c = prob.fresh_c();
        gemm(prob.a.view(), prob.b.view(), c.view(), plan, &pool);
        EXPECT_LT(common::max_rel_error(c.view(), prob.c_ref.view()), tol)
            << "strategy " << parallel_strategy_name(s);
      }
      // Serial path on the same plan parameters.
      const Plan plan(mn, mn, k, default_config(mn, mn, k));
      Matrix c = prob.fresh_c();
      gemm(prob.a.view(), prob.b.view(), c.view(), plan, nullptr);
      EXPECT_LT(common::max_rel_error(c.view(), prob.c_ref.view()), tol);
    }
  }
}

TEST(ParallelAgreement, OddShapes) {
  common::ThreadPool pool(test_threads());
  const int shapes[][3] = {{37, 53, 257}, {129, 65, 1000}, {5, 3, 777}};
  for (const auto& sh : shapes) {
    const int m = sh[0], n = sh[1], k = sh[2];
    SCOPED_TRACE("shape " + std::to_string(m) + "x" + std::to_string(n) + "x" +
                 std::to_string(k));
    const Problem prob(m, n, k, m + n + k);
    const double tol = testutil::gemm_tolerance(k);
    for (ParallelStrategy s :
         {ParallelStrategy::kBlocksOnly, ParallelStrategy::kKSplit}) {
      const Plan plan = make_plan(m, n, k, s, default_config(m, n, k));
      Matrix c = prob.fresh_c();
      gemm(prob.a.view(), prob.b.view(), c.view(), plan, &pool);
      EXPECT_LT(common::max_rel_error(c.view(), prob.c_ref.view()), tol)
          << "strategy " << parallel_strategy_name(s);
    }
  }
}

// Every cache block an edge block: all three strategies must handle partial
// blocks identically, with and without online packing.
TEST(ParallelAgreement, EdgeBlocksUnderEveryStrategy) {
  common::ThreadPool pool(test_threads());
  const int m = 37, n = 29, k = 101;
  const Problem prob(m, n, k, 7);
  const double tol = testutil::gemm_tolerance(k);
  for (kernels::Packing packing :
       {kernels::Packing::kNone, kernels::Packing::kOnline}) {
    for (ParallelStrategy s :
         {ParallelStrategy::kBlocksOnly, ParallelStrategy::kKSplit}) {
      GemmConfig cfg = default_config(m, n, k);
      cfg.mc = 16;
      cfg.nc = 16;
      cfg.kc = 16;
      cfg.packing = packing;
      const Plan plan = make_plan(m, n, k, s, cfg);
      Matrix c = prob.fresh_c();
      gemm(prob.a.view(), prob.b.view(), c.view(), plan, &pool);
      EXPECT_LT(common::max_rel_error(c.view(), prob.c_ref.view()), tol)
          << "strategy " << parallel_strategy_name(s) << " packing "
          << static_cast<int>(packing);
    }
  }
}

// The k-split contract: at a fixed pool size the result is bitwise
// identical across runs — the task->partial mapping and the tree-reduction
// order depend only on (plan, slice count), never on scheduling.
TEST(KSplitDeterminism, BitwiseStableAcrossRunsAndPools) {
  const unsigned threads = test_threads();
  const int m = 48, n = 40, k = 8192;
  const Problem prob(m, n, k, 99);
  GemmConfig cfg = default_config(m, n, k);
  cfg.kc = 256;  // 32 K blocks: more slices than any test pool
  const Plan plan = make_plan(m, n, k, ParallelStrategy::kKSplit, cfg);

  common::ThreadPool pool(threads);
  Matrix c1 = prob.fresh_c();
  gemm(prob.a.view(), prob.b.view(), c1.view(), plan, &pool);
  Matrix c2 = prob.fresh_c();
  gemm(prob.a.view(), prob.b.view(), c2.view(), plan, &pool);
  EXPECT_EQ(std::memcmp(c1.data(), c2.data(),
                        static_cast<std::size_t>(m) * n * sizeof(float)),
            0)
      << "same pool, repeated run";

  // A *different* pool object of the same size must reproduce the bits too
  // (the guarantee is per thread count, not per pool instance).
  common::ThreadPool pool2(threads);
  Matrix c3 = prob.fresh_c();
  gemm(prob.a.view(), prob.b.view(), c3.view(), plan, &pool2);
  EXPECT_EQ(std::memcmp(c1.data(), c3.data(),
                        static_cast<std::size_t>(m) * n * sizeof(float)),
            0)
      << "fresh pool of equal size";
}

// Offline-packed operands ride through the k-split path unchanged.
TEST(KSplitPacked, PackedOperandsMatchReference) {
  common::ThreadPool pool(test_threads());
  const int m = 24, n = 24, k = 4096;
  const Problem prob(m, n, k, 55);
  const double tol = testutil::gemm_tolerance(k);
  GemmConfig cfg = default_config(m, n, k);
  cfg.packing = kernels::Packing::kOffline;
  const Plan plan = make_plan(m, n, k, ParallelStrategy::kKSplit, cfg);

  common::Workspace ws;
  const PackedB pb(prob.b.view(), plan);
  Matrix c = prob.fresh_c();
  const detail::GroupMember m1{prob.a.view(), prob.b.view(), c.view()};
  detail::execute(&m1, 1, nullptr, &pb, {}, plan, &pool, ws);
  EXPECT_LT(common::max_rel_error(c.view(), prob.c_ref.view()), tol);

  const PackedA pa(prob.a.view(), plan);
  Matrix c2 = prob.fresh_c();
  const detail::GroupMember m2{prob.a.view(), prob.b.view(), c2.view()};
  detail::execute(&m2, 1, &pa, nullptr, {}, plan, &pool, ws);
  EXPECT_LT(common::max_rel_error(c2.view(), prob.c_ref.view()), tol);
}

// The packed constructors skip the whole-buffer zero-fill; the padding
// edges of partial blocks must still read as zero (the micro-kernels
// over-read into them).
TEST(PackedPadding, PartialBlockEdgesAreZero) {
  const int m = 8, n = 37, k = 101;
  Matrix a(m, k), b(k, n);
  common::fill_random(a.view(), 3);
  common::fill_random(b.view(), 4);
  GemmConfig cfg = default_config(m, n, k);
  cfg.mc = 16;
  cfg.nc = 16;
  cfg.kc = 16;
  cfg.packing = kernels::Packing::kOffline;
  const Plan plan(m, n, k, cfg);
  // Plan clamps the blocking to the problem (mc -> 8 here); all block math
  // below must use the clamped values.
  const GemmConfig& pc = plan.config();

  const PackedB pb(b.view(), plan);
  const int kblocks = (k + pc.kc - 1) / pc.kc;  // 7, last bk = 5
  const int nblocks = (n + pc.nc - 1) / pc.nc;  // 3, last bn = 5
  const long ldb = pb.block_ld();
  {
    const float* blk = pb.block(kblocks - 1, nblocks - 1);
    const int bk = k - (kblocks - 1) * pc.kc;
    const int bn = n - (nblocks - 1) * pc.nc;
    for (int r = 0; r < bk; ++r)
      for (int col = bn; col < pc.nc; ++col)
        ASSERT_EQ(blk[r * ldb + col], 0.0f) << "row pad at " << r;
    for (int r = bk; r < pc.kc; ++r)
      for (int col = 0; col < pc.nc; ++col)
        ASSERT_EQ(blk[r * ldb + col], 0.0f) << "tail pad at " << r;
  }

  const PackedA pa(a.view(), plan);
  const int mblocks = (m + pc.mc - 1) / pc.mc;
  const long lda = pa.block_ld();
  {
    const float* blk = pa.block(mblocks - 1, kblocks - 1);
    const int bm = m - (mblocks - 1) * pc.mc;
    const int bk = k - (kblocks - 1) * pc.kc;
    for (int r = 0; r < bm; ++r)
      for (int col = bk; col < pc.kc; ++col)
        ASSERT_EQ(blk[r * lda + col], 0.0f) << "row pad at " << r;
    for (int r = bm; r < pc.mc; ++r)
      for (int col = 0; col < pc.kc; ++col)
        ASSERT_EQ(blk[r * lda + col], 0.0f) << "tail pad at " << r;
  }
}

TEST(ThreadPoolWorkerIndex, SlotsAreBoundedAndRestored) {
  EXPECT_EQ(common::ThreadPool::worker_index(), -1);
  common::ThreadPool pool(3);
  std::atomic<bool> in_range{true};
  pool.parallel_for(256, [&](int) {
    const int idx = common::ThreadPool::worker_index();
    if (idx < 0 || idx > static_cast<int>(pool.size())) in_range = false;
  });
  EXPECT_TRUE(in_range.load());
  EXPECT_EQ(common::ThreadPool::worker_index(), -1)
      << "slot must not leak past the region";
}

TEST(ContextStrategy, CountersAndHealthReflectChoices) {
  ContextOptions opts;
  opts.threads = test_threads();
  Context ctx(opts);
  const int m = 64, n = 64, k = 8192;
  Matrix a(m, k), b(k, n), c(m, n);
  common::fill_random(a.view(), 1);
  common::fill_random(b.view(), 2);
  ASSERT_TRUE(ctx.run(a.view(), b.view(), c.view()).ok());
  EXPECT_GE(ctx.stats().strategy_ksplit, 1u);
  EXPECT_EQ(ctx.health().last_parallel_strategy, "k-split");
}

// Transposed and alpha != 1 calls run the same executor as canonical ones,
// so a large-K transposed call on a pool gets the k-split schedule too.
TEST(ContextStrategy, TransposedAlphaCallTakesKSplit) {
  ContextOptions opts;
  opts.threads = test_threads();
  Context ctx(opts);
  const int m = 64, n = 64, k = 8192;
  Matrix a(k, m), b(n, k), c(m, n), c_ref(m, n);  // stored as op()^T
  common::fill_random(a.view(), 21);
  common::fill_random(b.view(), 22);
  common::fill_random(c.view(), 23);
  GemmExParams params;
  params.trans_a = Trans::kYes;
  params.trans_b = Trans::kYes;
  params.alpha = 1.25f;
  params.beta = 0.5f;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0;
      for (int q = 0; q < k; ++q)
        acc += static_cast<double>(a.at(q, i)) * b.at(j, q);
      c_ref.at(i, j) =
          static_cast<float>(params.alpha * acc + params.beta * c.at(i, j));
    }
  }
  ASSERT_TRUE(ctx.run(a.view(), b.view(), c.view(), params).ok());
  EXPECT_GE(ctx.stats().strategy_ksplit, 1u);
  EXPECT_EQ(ctx.health().last_parallel_strategy, "k-split");
  EXPECT_LT(common::max_rel_error(c.view(), c_ref.view()),
            testutil::gemm_tolerance(k));
}

TEST(ContextStrategy, TunedRecordStrategySurvivesResolution) {
  // A tuned record carrying small blocks makes 128^3 a 16-C-block problem:
  // auto resolves it to blocks-only on a 4-worker pool.
  tune::TuningRecords records;
  tune::Candidate cand{32, 32, 128, LoopOrder::kNKM, kernels::Packing::kOnline};
  cand.backend = backend::resolve_backend(backend::BackendId::kAuto);
  records.add({128, 128, 128}, cand, 1.0);
  ContextOptions opts;
  opts.threads = test_threads();
  Context ctx(std::move(records), opts);
  Matrix a(128, 128), b(128, 128), c(128, 128);
  common::fill_random(a.view(), 5);
  common::fill_random(b.view(), 6);
  ASSERT_TRUE(ctx.run(a.view(), b.view(), c.view()).ok());
  EXPECT_GE(ctx.stats().strategy_blocks, 1u);
  EXPECT_EQ(ctx.health().last_parallel_strategy, "blocks-only");
}

TEST(ContextStrategy, OptionOverrideForcesBlocksOnly) {
  ContextOptions opts;
  opts.threads = test_threads();
  opts.parallel_strategy = ParallelStrategy::kBlocksOnly;
  Context ctx(opts);
  const int m = 64, n = 64, k = 8192;  // auto would pick k-split here
  Matrix a(m, k), b(k, n), c(m, n);
  common::fill_random(a.view(), 8);
  common::fill_random(b.view(), 9);
  ASSERT_TRUE(ctx.run(a.view(), b.view(), c.view()).ok());
  EXPECT_GE(ctx.stats().strategy_blocks, 1u);
  EXPECT_EQ(ctx.stats().strategy_ksplit, 0u);
  EXPECT_EQ(ctx.health().last_parallel_strategy, "blocks-only");
}

TEST(ContextStrategy, SerialContextCountsSerial) {
  ContextOptions opts;
  opts.threads = 1;
  Context ctx(opts);
  Matrix a(16, 16), b(16, 16), c(16, 16);
  common::fill_random(a.view(), 11);
  common::fill_random(b.view(), 12);
  ASSERT_TRUE(ctx.run(a.view(), b.view(), c.view()).ok());
  EXPECT_GE(ctx.stats().strategy_serial, 1u);
  EXPECT_EQ(ctx.health().last_parallel_strategy, "serial");
}

}  // namespace
}  // namespace autogemm
