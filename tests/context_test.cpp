// Context runtime: plan/packed LRU caching, tuned-record resolution,
// invalidation, and concurrent use.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "backend/backend.hpp"
#include "common/matrix.hpp"
#include "common/reference_gemm.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace autogemm {
namespace {

using common::Matrix;

struct Problem {
  Matrix a, b, c, c_ref;
  int k_depth;
  Problem(int m, int n, int k, unsigned seed = 1)
      : a(m, k), b(k, n), c(m, n), c_ref(m, n), k_depth(k) {
    common::fill_random(a.view(), seed);
    common::fill_random(b.view(), seed + 1);
    common::reference_gemm(a.view(), b.view(), c_ref.view());
  }
  double error() const { return common::max_rel_error(c.view(), c_ref.view()); }
};

GemmExParams overwrite() {
  GemmExParams p;
  p.beta = 0.0f;
  return p;
}

TEST(Context, PlanCacheHitsOnRepeatedShape) {
  ContextOptions opts;
  opts.threads = 1;
  Context ctx(opts);
  Problem p(48, 56, 40);
  ASSERT_TRUE(ctx.run(p.a.view(), p.b.view(), p.c.view(), overwrite()).ok());
  EXPECT_LT(p.error(), testutil::gemm_tolerance(p.k_depth));
  ASSERT_TRUE(ctx.run(p.a.view(), p.b.view(), p.c.view(), overwrite()).ok());
  EXPECT_LT(p.error(), testutil::gemm_tolerance(p.k_depth));
  const auto s = ctx.stats();
  EXPECT_EQ(s.plan_misses, 1u);
  EXPECT_EQ(s.plan_hits, 1u);
  EXPECT_EQ(s.resolved_heuristic, 1u);
  EXPECT_EQ(ctx.plan_cache_size(), 1u);
}

TEST(Context, DefaultParamsAccumulate) {
  Context ctx;
  Problem p(16, 16, 16);
  common::fill_random(p.c.view(), 7);
  for (int r = 0; r < 16; ++r)
    for (int j = 0; j < 16; ++j) p.c_ref.at(r, j) = p.c.at(r, j);
  common::reference_gemm(p.a.view(), p.b.view(), p.c_ref.view());
  // beta defaults to 1
  ASSERT_TRUE(ctx.run(p.a.view(), p.b.view(), p.c.view()).ok());
  EXPECT_LT(p.error(), testutil::gemm_tolerance(p.k_depth));
}

TEST(Context, ExtendedParamsRouteThroughGemmEx) {
  Context ctx;
  const int m = 20, n = 24, k = 12;
  Matrix a(k, m), b(k, n), c(m, n), c_ref(m, n);  // A stored transposed
  common::fill_random(a.view(), 1);
  common::fill_random(b.view(), 2);
  for (int r = 0; r < m; ++r)
    for (int j = 0; j < n; ++j) {
      double acc = 0;
      for (int p = 0; p < k; ++p)
        acc += static_cast<double>(a.at(p, r)) * b.at(p, j);
      c_ref.at(r, j) = static_cast<float>(2.5 * acc);
    }
  GemmExParams params;
  params.trans_a = Trans::kYes;
  params.alpha = 2.5f;
  params.beta = 0.0f;
  ASSERT_TRUE(ctx.run(a.view(), b.view(), c.view(), params).ok());
  EXPECT_LT(common::max_rel_error(c.view(), c_ref.view()),
            testutil::gemm_tolerance(k));
}

TEST(Context, LruEvictionOrder) {
  ContextOptions opts;
  opts.threads = 1;
  opts.plan_capacity = 2;
  Context ctx(opts);
  // Touch S1, S2 (cache: [S2, S1]), re-touch S1 (cache: [S1, S2]).
  auto p1 = ctx.plan_for(8, 8, 8);
  auto p2 = ctx.plan_for(16, 16, 16);
  (void)ctx.plan_for(8, 8, 8);
  EXPECT_EQ(ctx.stats().plan_hits, 1u);
  // S3 must evict the least recently used entry, S2.
  (void)ctx.plan_for(24, 24, 24);
  EXPECT_EQ(ctx.stats().plan_evictions, 1u);
  EXPECT_EQ(ctx.plan_cache_size(), 2u);
  // S1 still cached (hit); S2 gone (miss + eviction of S3's victim, S1...
  // after the S2 rebuild the cache holds [S2, S1's successor]).
  (void)ctx.plan_for(8, 8, 8);
  EXPECT_EQ(ctx.stats().plan_hits, 2u);
  (void)ctx.plan_for(16, 16, 16);
  const auto s = ctx.stats();
  EXPECT_EQ(s.plan_misses, 4u);  // S1, S2, S3, S2-again
  EXPECT_EQ(s.plan_evictions, 2u);
  // Evicted plans stay alive through the shared_ptr held by callers.
  EXPECT_EQ(p2->m(), 16);
  (void)p1;
}

TEST(Context, TunedRecordsResolveExactAndNearest) {
  tune::TuningRecords records;
  tune::Candidate tuned{16, 32, 16, LoopOrder::kKNM, kernels::Packing::kOnline};
  // Records resolve within one backend only, so tag the record with the
  // backend a kAuto context will resolve — keeps this green under the CI
  // matrix's AUTOGEMM_BACKEND legs.
  tuned.backend = backend::resolve_backend(backend::BackendId::kAuto);
  records.add({64, 64, 64}, tuned, 10.0);
  Context ctx(std::move(records));
  // Exact shape: the tuned blocking is adopted verbatim.
  auto exact = ctx.plan_for(64, 64, 64);
  EXPECT_EQ(exact->config().mc, 16);
  EXPECT_EQ(exact->config().nc, 32);
  EXPECT_EQ(exact->config().loop_order, LoopOrder::kKNM);
  EXPECT_EQ(ctx.stats().resolved_exact, 1u);
  // Near shape (within the log2 tolerance): tuned parameters transfer,
  // clamped to the problem by Plan's constructor.
  auto near = ctx.plan_for(60, 60, 60);
  EXPECT_EQ(near->config().mc, 16);
  EXPECT_EQ(near->config().loop_order, LoopOrder::kKNM);
  EXPECT_EQ(ctx.stats().resolved_nearest, 1u);
  // Far shape: falls back to the heuristic.
  auto far = ctx.plan_for(7, 300, 5);
  EXPECT_NE(far->config().loop_order, LoopOrder::kKNM);
  EXPECT_EQ(ctx.stats().resolved_heuristic, 1u);
  // And the tuned plan actually executes correctly.
  Problem p(64, 64, 64);
  ASSERT_TRUE(ctx.run(p.a.view(), p.b.view(), p.c.view(), overwrite()).ok());
  EXPECT_LT(p.error(), testutil::gemm_tolerance(p.k_depth));
}

TEST(Context, RecordsFileConstructorThrowsOnMissingFile) {
  ContextOptions opts;
  opts.records_path = "/nonexistent/dir/records.txt";
  EXPECT_THROW(Context{opts}, std::runtime_error);
}

TEST(Context, ConstBCachesPackedAndInvalidates) {
  ContextOptions opts;
  opts.threads = 1;
  Context ctx(opts);
  Problem p(32, 40, 24);
  ASSERT_TRUE(
      ctx.run_const_b(p.a.view(), p.b.view(), p.c.view(), overwrite()).ok());
  EXPECT_LT(p.error(), testutil::gemm_tolerance(p.k_depth));
  EXPECT_EQ(ctx.stats().packed_misses, 1u);

  // Mutate B. The cache keys on B's pointer, so without invalidation the
  // stale packed copy is served: the result still matches the OLD B.
  Matrix old_b(24, 40);
  for (int r = 0; r < 24; ++r)
    for (int j = 0; j < 40; ++j) old_b.at(r, j) = p.b.at(r, j);
  common::fill_random(p.b.view(), 99);
  ASSERT_TRUE(
      ctx.run_const_b(p.a.view(), p.b.view(), p.c.view(), overwrite()).ok());
  EXPECT_EQ(ctx.stats().packed_hits, 1u);
  Matrix stale_ref(32, 40);
  common::reference_gemm(p.a.view(), old_b.view(), stale_ref.view());
  EXPECT_LT(common::max_rel_error(p.c.view(), stale_ref.view()),
            testutil::gemm_tolerance(p.k_depth));

  // After invalidate, the new contents are packed and used.
  EXPECT_EQ(ctx.invalidate(p.b.view().data), 1u);
  EXPECT_EQ(ctx.stats().packed_invalidations, 1u);
  ASSERT_TRUE(
      ctx.run_const_b(p.a.view(), p.b.view(), p.c.view(), overwrite()).ok());
  Matrix fresh_ref(32, 40);
  common::reference_gemm(p.a.view(), p.b.view(), fresh_ref.view());
  EXPECT_LT(common::max_rel_error(p.c.view(), fresh_ref.view()),
            testutil::gemm_tolerance(p.k_depth));
  EXPECT_EQ(ctx.stats().packed_misses, 2u);
}

TEST(Context, ConstACachesPackedWeights) {
  ContextOptions opts;
  opts.threads = 1;
  Context ctx(opts);
  Problem p(40, 56, 32);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        ctx.run_const_a(p.a.view(), p.b.view(), p.c.view(), overwrite()).ok());
    EXPECT_LT(p.error(), testutil::gemm_tolerance(p.k_depth));
  }
  const auto s = ctx.stats();
  EXPECT_EQ(s.packed_misses, 1u);
  EXPECT_EQ(s.packed_hits, 2u);
  EXPECT_EQ(ctx.packed_cache_size(), 1u);
}

TEST(Context, PackedLruEvicts) {
  ContextOptions opts;
  opts.threads = 1;
  opts.packed_capacity = 1;
  Context ctx(opts);
  Problem p1(16, 20, 12, 1), p2(24, 28, 16, 5);
  ASSERT_TRUE(
      ctx.run_const_b(p1.a.view(), p1.b.view(), p1.c.view(), overwrite()).ok());
  ASSERT_TRUE(
      ctx.run_const_b(p2.a.view(), p2.b.view(), p2.c.view(), overwrite()).ok());
  EXPECT_EQ(ctx.stats().packed_evictions, 1u);
  EXPECT_EQ(ctx.packed_cache_size(), 1u);
  EXPECT_LT(p1.error(), testutil::gemm_tolerance(p1.k_depth));
  EXPECT_LT(p2.error(), testutil::gemm_tolerance(p2.k_depth));
}

TEST(Context, NonCanonicalParamsBypassPackedCache) {
  ContextOptions opts;
  opts.threads = 1;
  Context ctx(opts);
  Problem p(16, 16, 16);
  GemmExParams params = overwrite();
  params.alpha = 2.0f;  // cached packing requires alpha == 1
  ASSERT_TRUE(ctx.run_const_b(p.a.view(), p.b.view(), p.c.view(), params).ok());
  EXPECT_EQ(ctx.packed_cache_size(), 0u);
  Matrix ref(16, 16);
  common::reference_gemm(p.a.view(), p.b.view(), ref.view());
  for (int r = 0; r < 16; ++r)
    for (int j = 0; j < 16; ++j) ref.at(r, j) *= 2.0f;
  EXPECT_LT(common::max_rel_error(p.c.view(), ref.view()),
            testutil::gemm_tolerance(p.k_depth));
}

TEST(Context, GemmBatchedSharesPlanCache) {
  ContextOptions opts;
  opts.threads = 1;
  Context ctx(opts);
  Problem p1(24, 24, 24, 1), p2(24, 24, 24, 9), p3(16, 40, 8, 13);
  std::vector<BatchItem> items{{p1.a.view(), p1.b.view(), p1.c.view()},
                               {p2.a.view(), p2.b.view(), p2.c.view()},
                               {p3.a.view(), p3.b.view(), p3.c.view()}};
  ASSERT_TRUE(ctx.run_batched(items).ok());
  EXPECT_LT(p1.error(), testutil::gemm_tolerance(p1.k_depth));
  EXPECT_LT(p2.error(), testutil::gemm_tolerance(p2.k_depth));
  EXPECT_LT(p3.error(), testutil::gemm_tolerance(p3.k_depth));
  EXPECT_EQ(ctx.stats().plan_misses, 2u);  // two distinct shapes
  ASSERT_TRUE(ctx.run_batched(items).ok());  // all plans cached now
  EXPECT_EQ(ctx.stats().plan_misses, 2u);
}

TEST(Context, ClearDropsCaches) {
  ContextOptions opts;
  opts.threads = 1;
  Context ctx(opts);
  Problem p(16, 16, 16);
  ASSERT_TRUE(
      ctx.run_const_b(p.a.view(), p.b.view(), p.c.view(), overwrite()).ok());
  EXPECT_GT(ctx.plan_cache_size(), 0u);
  EXPECT_GT(ctx.packed_cache_size(), 0u);
  ctx.clear();
  EXPECT_EQ(ctx.plan_cache_size(), 0u);
  EXPECT_EQ(ctx.packed_cache_size(), 0u);
}

TEST(Context, ConcurrentCallersSameShape) {
  ContextOptions opts;
  opts.threads = 1;  // serial execution; the caches are what's under test
  Context ctx(opts);
  constexpr int kThreads = 8, kIters = 6;
  std::vector<std::thread> threads;
  std::vector<double> errors(kThreads, 1.0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Problem p(40, 48, 32, static_cast<unsigned>(t + 1));
      for (int i = 0; i < kIters; ++i)
        EXPECT_TRUE(
            ctx.run(p.a.view(), p.b.view(), p.c.view(), overwrite()).ok());
      errors[t] = p.error();
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_LT(errors[t], testutil::gemm_tolerance(32)) << "thread " << t;
  const auto s = ctx.stats();
  EXPECT_EQ(s.plan_hits + s.plan_misses, kThreads * kIters);
  EXPECT_EQ(ctx.plan_cache_size(), 1u);  // racing builds collapse to one
}

TEST(Context, ConcurrentCallersDistinctShapes) {
  Context ctx;  // pooled context: callers share the owned pool
  constexpr int kThreads = 6, kIters = 4;
  std::vector<std::thread> threads;
  std::vector<double> errors(kThreads, 1.0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Problem p(24 + 8 * t, 30 + 5 * t, 16 + 4 * t,
                static_cast<unsigned>(t + 1));
      for (int i = 0; i < kIters; ++i)
        EXPECT_TRUE(ctx.run_const_b(p.a.view(), p.b.view(), p.c.view(),
                                    overwrite())
                        .ok());
      errors[t] = p.error();
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_LT(errors[t], testutil::gemm_tolerance(16 + 4 * t))
        << "thread " << t;
  EXPECT_EQ(ctx.plan_cache_size(), kThreads);
  EXPECT_EQ(ctx.packed_cache_size(), kThreads);
}

TEST(Context, PublishRecordRepublishesIntoLivePlans) {
  // The stale-plan regression: before publish_record/invalidate_plan, a
  // record added after a shape's first use was invisible forever — the
  // cached Plan pinned the heuristic config until clear() nuked everything.
  // A record published mid-flight must execute on the very next call.
  ContextOptions opts;
  opts.threads = 1;
  Context ctx(opts);
  Problem p(64, 48, 32);
  ASSERT_TRUE(ctx.run(p.a.view(), p.b.view(), p.c.view(), overwrite()).ok());
  EXPECT_LT(p.error(), testutil::gemm_tolerance(p.k_depth));
  ASSERT_EQ(ctx.stats().resolved_heuristic, 1u);
  ASSERT_FALSE(ctx.has_exact_record(64, 48, 32));

  tune::Candidate tuned{16, 16, 16, LoopOrder::kKNM,
                        kernels::Packing::kOffline};
  EXPECT_TRUE(ctx.publish_record(64, 48, 32, tuned, 1.0));
  EXPECT_TRUE(ctx.has_exact_record(64, 48, 32));
  // Publication eagerly evicted the shape's cached plan.
  EXPECT_EQ(ctx.stats().plan_invalidations, 1u);

  // Next call re-resolves exact and *executes* the tuned blocking.
  ASSERT_TRUE(ctx.run(p.a.view(), p.b.view(), p.c.view(), overwrite()).ok());
  EXPECT_LT(p.error(), testutil::gemm_tolerance(p.k_depth));
  EXPECT_EQ(ctx.stats().resolved_exact, 1u);
  auto plan = ctx.plan_for(64, 48, 32);
  EXPECT_EQ(plan->config().mc, 16);
  EXPECT_EQ(plan->config().kc, 16);
  EXPECT_EQ(plan->config().loop_order, LoopOrder::kKNM);
}

TEST(Context, InvalidatePlanDropsExactlyOneShape) {
  ContextOptions opts;
  opts.threads = 1;
  Context ctx(opts);
  (void)ctx.plan_for(32, 32, 32);
  (void)ctx.plan_for(48, 48, 48);
  ASSERT_EQ(ctx.plan_cache_size(), 2u);
  EXPECT_TRUE(ctx.invalidate_plan(32, 32, 32));
  EXPECT_FALSE(ctx.invalidate_plan(32, 32, 32));  // already gone
  EXPECT_EQ(ctx.plan_cache_size(), 1u);
  EXPECT_EQ(ctx.stats().plan_invalidations, 1u);
  // The survivor still hits; the dropped shape re-resolves.
  (void)ctx.plan_for(48, 48, 48);
  EXPECT_EQ(ctx.stats().plan_hits, 1u);
  (void)ctx.plan_for(32, 32, 32);
  EXPECT_EQ(ctx.stats().plan_misses, 3u);
}

TEST(Context, PublishRefreshesNearestNeighborViaGeneration) {
  // publish_record only evicts the exact shape eagerly; *neighboring*
  // shapes that could now resolve through the new record via the
  // nearest-rung are refreshed lazily by the records-generation check on
  // their next cache hit.
  ContextOptions opts;
  opts.threads = 1;
  Context ctx(opts);
  (void)ctx.plan_for(60, 60, 60);
  ASSERT_EQ(ctx.stats().resolved_heuristic, 1u);

  tune::Candidate tuned{16, 32, 16, LoopOrder::kKNM,
                        kernels::Packing::kOnline};
  EXPECT_TRUE(ctx.publish_record(64, 64, 64, tuned, 10.0));

  // The 60^3 entry is generation-stale: the next request re-resolves (a
  // miss, not an invalidation) and now lands on the nearest rung.
  auto plan = ctx.plan_for(60, 60, 60);
  EXPECT_EQ(ctx.stats().resolved_nearest, 1u);
  EXPECT_EQ(plan->config().mc, 16);
  EXPECT_EQ(plan->config().loop_order, LoopOrder::kKNM);
  EXPECT_EQ(ctx.stats().plan_misses, 2u);
  EXPECT_EQ(ctx.stats().plan_invalidations, 0u);
}

TEST(Context, ConstBPackingFollowsEachPlansBlocking) {
  // A packed B's layout depends on the (kc, nc) blocking it was built
  // for; the packed cache must never hand it to a plan that blocks B
  // differently.
  ContextOptions opts;
  opts.threads = 1;
  const tune::Candidate tuned{16, 64, 96, LoopOrder::kNKM,
                              kernels::Packing::kOffline};
  const auto check = [](const Matrix& a, const Matrix& b, const Matrix& c) {
    Matrix ref(c.rows(), c.cols());
    common::reference_gemm(a.view(), b.view(), ref.view());
    EXPECT_LT(common::max_rel_error(c.view(), ref.view()),
              testutil::gemm_tolerance(a.cols()));
  };
  Matrix b(300, 200), a1(1, 300), c1(1, 200), a48(48, 300), c48(48, 200);
  common::fill_random(b.view(), 1);
  common::fill_random(a1.view(), 2);
  common::fill_random(a48.view(), 3);

  // One B shared by M=1 (published record) and M=48 (heuristic plan).
  {
    Context ctx(opts);
    ASSERT_TRUE(ctx.publish_record(1, 200, 300, tuned, 1.0));
    const GemmConfig small = ctx.plan_for(1, 200, 300)->config();
    const GemmConfig large = ctx.plan_for(48, 200, 300)->config();
    ASSERT_TRUE(small.kc != large.kc || small.nc != large.nc);
    ASSERT_TRUE(ctx.run_const_b(a1.view(), b.view(), c1.view(), overwrite())
                    .ok());
    check(a1, b, c1);
    ASSERT_TRUE(ctx.run_const_b(a48.view(), b.view(), c48.view(), overwrite())
                    .ok());
    check(a48, b, c48);
  }

  // A record published after B was packed changes the shape's blocking.
  {
    Context ctx(opts);
    ASSERT_TRUE(ctx.run_const_b(a48.view(), b.view(), c48.view(), overwrite())
                    .ok());
    check(a48, b, c48);
    ASSERT_TRUE(ctx.publish_record(48, 200, 300, tuned, 1.0));
    ASSERT_EQ(ctx.plan_for(48, 200, 300)->config().kc, 96);
    ASSERT_TRUE(ctx.run_const_b(a48.view(), b.view(), c48.view(), overwrite())
                    .ok());
    check(a48, b, c48);
  }
}

TEST(Context, ShapeLabelCapIsConfigurable) {
  // With the cap forced to zero, a never-seen shape must land in the
  // "other" bucket instead of minting a new labeled series; previously
  // admitted labels keep theirs (FCFS — lowering never evicts).
  const std::size_t saved = shape_label_cap();
  set_shape_label_cap(0);
  EXPECT_EQ(shape_label_cap(), 0u);
  obs::Registry& reg = obs::default_registry();
  obs::Histogram& other =
      reg.histogram("autogemm_gemm_seconds{shape=\"other\",dtype=\"f32\"}");
  obs::Histogram& dedicated = reg.histogram(
      "autogemm_gemm_seconds{shape=\"991x7x3\",dtype=\"f32\"}");
  const std::uint64_t other_before = other.snapshot().count;
  const std::uint64_t dedicated_before = dedicated.snapshot().count;
  ContextOptions opts;
  opts.threads = 1;
  Context ctx(opts);
  Problem p(991, 7, 3);
  ASSERT_TRUE(ctx.run(p.a.view(), p.b.view(), p.c.view(), overwrite()).ok());
  EXPECT_LT(p.error(), testutil::gemm_tolerance(p.k_depth));
  EXPECT_GT(other.snapshot().count, other_before);
  EXPECT_EQ(dedicated.snapshot().count, dedicated_before);
  set_shape_label_cap(saved);
  EXPECT_EQ(shape_label_cap(), saved);
}

TEST(Sgemm, RowMajorBlasShim) {
  const int m = 24, n = 32, k = 16;
  Matrix a(m, k), b(k, n), c(m, n), c_ref(m, n);
  common::fill_random(a.view(), 1);
  common::fill_random(b.view(), 2);
  common::fill_random(c.view(), 3);
  for (int r = 0; r < m; ++r)
    for (int j = 0; j < n; ++j) c_ref.at(r, j) = c.at(r, j);
  // C = 1.5 * A * B + 0.5 * C against a double-precision loop.
  for (int r = 0; r < m; ++r)
    for (int j = 0; j < n; ++j) {
      double acc = 0;
      for (int p = 0; p < k; ++p)
        acc += static_cast<double>(a.at(r, p)) * b.at(p, j);
      c_ref.at(r, j) = static_cast<float>(1.5 * acc + 0.5 * c_ref.at(r, j));
    }
  ASSERT_TRUE(sgemm('N', 'N', m, n, k, 1.5f, a.data(), a.ld(), b.data(),
                    b.ld(), 0.5f, c.data(), c.ld())
                  .ok());
  EXPECT_LT(common::max_rel_error(c.view(), c_ref.view()),
            testutil::gemm_tolerance(k));
}

TEST(Sgemm, TransposedOperands) {
  const int m = 20, n = 16, k = 12;
  Matrix a(k, m), b(n, k), c(m, n), c_ref(m, n);  // both stored transposed
  common::fill_random(a.view(), 4);
  common::fill_random(b.view(), 5);
  for (int r = 0; r < m; ++r)
    for (int j = 0; j < n; ++j) {
      double acc = 0;
      for (int p = 0; p < k; ++p)
        acc += static_cast<double>(a.at(p, r)) * b.at(j, p);
      c_ref.at(r, j) = static_cast<float>(acc);
    }
  ASSERT_TRUE(sgemm('T', 'T', m, n, k, 1.0f, a.data(), a.ld(), b.data(),
                    b.ld(), 0.0f, c.data(), c.ld())
                  .ok());
  EXPECT_LT(common::max_rel_error(c.view(), c_ref.view()),
            testutil::gemm_tolerance(k));
}

TEST(Sgemm, RejectsBadArguments) {
  float x = 0;
  EXPECT_THROW((void)sgemm('q', 'N', 1, 1, 1, 1.0f, &x, 1, &x, 1, 0.0f, &x, 1),
               std::invalid_argument);
  EXPECT_THROW((void)sgemm('N', 'N', 2, 2, 2, 1.0f, &x, 1, &x, 2, 0.0f, &x, 2),
               std::invalid_argument);  // lda < k
}

TEST(Gemm, PackedAMatchesReference) {
  Problem p(40, 96, 56);
  GemmConfig cfg = default_config(40, 96, 56);
  cfg.mc = 16;
  cfg.nc = 32;
  cfg.kc = 24;
  Plan plan(40, 96, 56, cfg);
  PackedA packed(p.a.view(), plan);
  const detail::GroupMember m{p.a.view(), p.b.view(), p.c.view()};
  common::Workspace ws;
  detail::execute(&m, 1, &packed, nullptr, {}, plan, nullptr, ws);
  EXPECT_LT(p.error(), testutil::gemm_tolerance(p.k_depth));
}

TEST(Gemm, PackedAThreaded) {
  Problem p(64, 64, 32);
  GemmConfig cfg = default_config(64, 64, 32);
  cfg.mc = 16;
  cfg.nc = 16;
  cfg.kc = 16;
  Plan plan(64, 64, 32, cfg);
  PackedA packed(p.a.view(), plan);
  common::ThreadPool pool(3);
  const detail::GroupMember m{p.a.view(), p.b.view(), p.c.view()};
  common::Workspace ws;
  detail::execute(&m, 1, &packed, nullptr, {}, plan, &pool, ws);
  EXPECT_LT(p.error(), testutil::gemm_tolerance(p.k_depth));
}

}  // namespace
}  // namespace autogemm
