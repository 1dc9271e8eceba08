// Batched GEMM validation: shared-plan and mixed-shape batches, serial and
// pooled.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <vector>

#include "common/matrix.hpp"
#include "common/reference_gemm.hpp"
#include "common/rng.hpp"
#include "core/batched.hpp"
#include "core/context.hpp"
#include "obs/metrics.hpp"
#include "serve/engine.hpp"
#include "test_util.hpp"

namespace autogemm {
namespace {

using common::Matrix;

struct Stored {
  Matrix a, b, c, c_ref;
  Stored(int m, int n, int k, int seed)
      : a(m, k), b(k, n), c(m, n), c_ref(m, n) {
    common::fill_random(a.view(), seed);
    common::fill_random(b.view(), seed + 1);
    common::fill_random(c.view(), seed + 2);
    for (int r = 0; r < m; ++r)
      for (int j = 0; j < n; ++j) c_ref.at(r, j) = c.at(r, j);
    common::reference_gemm(a.view(), b.view(), c_ref.view());
  }
};

// Same-shape members that share one B: run_batched packs B once for the
// group and every member reads that packing, in a serial context (groups
// run in order) and a pooled one (members spread over the pool).
void expect_shared_b_batch_matches(unsigned threads, int m, int n, int k,
                                   int members) {
  Matrix b(k, n);
  common::fill_random(b.view(), 3);
  std::vector<std::unique_ptr<Matrix>> as, cs, refs;
  std::vector<BatchItem> items;
  for (int i = 0; i < members; ++i) {
    as.push_back(std::make_unique<Matrix>(m, k));
    cs.push_back(std::make_unique<Matrix>(m, n));
    refs.push_back(std::make_unique<Matrix>(m, n));
    common::fill_random(as.back()->view(), 10 * i);
    common::fill_random(cs.back()->view(), 10 * i + 1);
    for (int r = 0; r < m; ++r)
      for (int j = 0; j < n; ++j) refs.back()->at(r, j) = cs.back()->at(r, j);
    common::reference_gemm(as.back()->view(), b.view(), refs.back()->view());
    items.push_back({as.back()->view(), b.view(), cs.back()->view()});
  }
  ContextOptions opts;
  opts.threads = threads;
  Context ctx(opts);
  const Status s = ctx.run_batched(items);
  ASSERT_TRUE(s.ok()) << s.to_string();
  for (int i = 0; i < members; ++i)
    EXPECT_LT(common::max_rel_error(cs[i]->view(), refs[i]->view()),
              testutil::gemm_tolerance(k))
        << "member " << i;
}

TEST(Batched, SharedPlanSerial) {
  expect_shared_b_batch_matches(/*threads=*/1, 24, 32, 16, 5);
}

TEST(Batched, SharedPlanPooled) {
  expect_shared_b_batch_matches(/*threads=*/4, 20, 28, 12, 9);
}

TEST(Batched, MixedShapesThroughContext) {
  std::vector<std::unique_ptr<Stored>> problems;
  problems.push_back(std::make_unique<Stored>(8, 8, 8, 1));
  problems.push_back(std::make_unique<Stored>(33, 17, 9, 2));
  problems.push_back(std::make_unique<Stored>(8, 8, 8, 3));  // shape reuse
  problems.push_back(std::make_unique<Stored>(64, 48, 24, 4));
  std::vector<BatchItem> items;
  for (auto& p : problems)
    items.push_back({p->a.view(), p->b.view(), p->c.view()});
  ContextOptions opts;
  opts.threads = 1;
  Context ctx(opts);
  ASSERT_TRUE(ctx.run_batched(items).ok());
  for (const auto& p : problems)
    EXPECT_LT(common::max_rel_error(p->c.view(), p->c_ref.view()),
              testutil::gemm_tolerance(p->a.cols()));
  // The plans really came from this context, not the process-global one:
  // three distinct shapes -> three misses in *its* cache.
  EXPECT_EQ(ctx.stats().plan_misses, 3u);
}

TEST(Batched, ContextOverloadUsesOwnPool) {
  std::vector<std::unique_ptr<Stored>> problems;
  for (int i = 0; i < 6; ++i)
    problems.push_back(std::make_unique<Stored>(16 + i, 12, 20, 5 * i));
  std::vector<BatchItem> items;
  for (auto& p : problems)
    items.push_back({p->a.view(), p->b.view(), p->c.view()});
  ContextOptions opts;
  opts.threads = 3;  // the context's own pool serves
  Context ctx(opts);
  ASSERT_TRUE(ctx.run_batched(items).ok());
  for (const auto& p : problems)
    EXPECT_LT(common::max_rel_error(p->c.view(), p->c_ref.view()),
              testutil::gemm_tolerance(p->a.cols()));
}

TEST(Batched, EmptyBatchIsNoop) {
  for (const unsigned threads : {1u, 4u}) {
    ContextOptions opts;
    opts.threads = threads;
    Context ctx(opts);
    EXPECT_TRUE(ctx.run_batched({}).ok());
  }
}

// A batch whose every member is degenerate (M, N or K of zero) is a
// well-defined accumulate no-op: OK status, no C element written.
TEST(Batched, AllDegenerateBatchIsOk) {
  Matrix a0(0, 8), b0(8, 0), c0(0, 0);
  Matrix a1(4, 0), b1(0, 6), c1(4, 6);
  common::fill_random(c1.view(), 3);
  Matrix c1_before(4, 6);
  for (int r = 0; r < 4; ++r)
    for (int j = 0; j < 6; ++j) c1_before.at(r, j) = c1.at(r, j);
  Context ctx;
  const Status s = ctx.run_batched(
      {{a0.view(), b0.view(), c0.view()}, {a1.view(), b1.view(), c1.view()}});
  EXPECT_TRUE(s.ok()) << s.message();
  for (int r = 0; r < 4; ++r)
    for (int j = 0; j < 6; ++j)
      EXPECT_EQ(c1.at(r, j), c1_before.at(r, j)) << "K==0 member wrote to C";
}

// Degenerate members mixed into a batch of real work: the no-ops are
// skipped, every real member still computes correctly.
TEST(Batched, MixedDegenerateMembersAreNoops) {
  std::vector<std::unique_ptr<Stored>> problems;
  problems.push_back(std::make_unique<Stored>(16, 12, 8, 31));
  problems.push_back(std::make_unique<Stored>(16, 12, 8, 32));
  Matrix ka(16, 0), kb(0, 12), kc(16, 12);  // K == 0
  common::fill_random(kc.view(), 33);
  Matrix kc_before(16, 12);
  for (int r = 0; r < 16; ++r)
    for (int j = 0; j < 12; ++j) kc_before.at(r, j) = kc.at(r, j);
  Matrix ea(0, 8), eb(8, 12), ec(0, 12);  // M == 0

  std::vector<BatchItem> items;
  items.push_back({problems[0]->a.view(), problems[0]->b.view(),
                   problems[0]->c.view()});
  items.push_back({ka.view(), kb.view(), kc.view()});
  items.push_back({ea.view(), eb.view(), ec.view()});
  items.push_back({problems[1]->a.view(), problems[1]->b.view(),
                   problems[1]->c.view()});

  ContextOptions opts;
  opts.threads = 1;
  Context ctx(opts);
  const Status s = ctx.run_batched(items);
  EXPECT_TRUE(s.ok()) << s.message();
  for (const auto& p : problems)
    EXPECT_LT(common::max_rel_error(p->c.view(), p->c_ref.view()),
              testutil::gemm_tolerance(p->a.cols()));
  for (int r = 0; r < 16; ++r)
    for (int j = 0; j < 12; ++j) EXPECT_EQ(kc.at(r, j), kc_before.at(r, j));
}

// Two members writing the same C fail whole-batch validation with
// kInvalidArgument before anything executes: every C stays untouched.
TEST(Batched, CrossMemberOutputAliasRejected) {
  Stored p0(8, 8, 8, 41), p1(8, 8, 8, 42);
  Matrix c0_before(8, 8);
  for (int r = 0; r < 8; ++r)
    for (int j = 0; j < 8; ++j) c0_before.at(r, j) = p0.c.at(r, j);
  Context ctx;
  const Status s = ctx.run_batched(
      {{p0.a.view(), p0.b.view(), p0.c.view()},
       {p1.a.view(), p1.b.view(), p0.c.view()}});  // same C as item 0
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("C outputs overlap"), std::string::npos)
      << s.message();
  for (int r = 0; r < 8; ++r)
    for (int j = 0; j < 8; ++j) EXPECT_EQ(p0.c.at(r, j), c0_before.at(r, j));
}

// A member whose C is another member's *input* is rejected too (members
// run concurrently; the read would race the write).
TEST(Batched, CrossMemberInputAliasRejected) {
  Stored p0(8, 8, 8, 51), p1(8, 8, 8, 52);
  Context ctx;
  const Status s = ctx.run_batched(
      {{p0.a.view(), p0.b.view(), p0.c.view()},
       {common::ConstMatrixView(p0.c.view()), p1.b.view(), p1.c.view()}});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("input operand"), std::string::npos)
      << s.message();
}

// An invalid member (inner dimensions disagree) fails the whole batch and
// no other member's C is written — callers can retry member-by-member.
TEST(Batched, InvalidMemberFailsWholeBatchUntouched) {
  Stored good(8, 8, 8, 61);
  Matrix bad_a(8, 5), bad_b(7, 8), bad_c(8, 8);  // 5 != 7
  Matrix good_before(8, 8);
  for (int r = 0; r < 8; ++r)
    for (int j = 0; j < 8; ++j) good_before.at(r, j) = good.c.at(r, j);
  Context ctx;
  const Status s = ctx.run_batched(
      {{good.a.view(), good.b.view(), good.c.view()},
       {bad_a.view(), bad_b.view(), bad_c.view()}});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  for (int r = 0; r < 8; ++r)
    for (int j = 0; j < 8; ++j) EXPECT_EQ(good.c.at(r, j), good_before.at(r, j));
}

// find_cross_member_conflicts reports both sides of each overlapping pair
// and nothing else — the serve engine demotes exactly this set.
TEST(Batched, FindCrossMemberConflicts) {
  Stored p0(8, 8, 8, 71), p1(8, 8, 8, 72), p2(8, 8, 8, 73), p3(8, 8, 8, 74);
  std::vector<BatchItem> items = {
      {p0.a.view(), p0.b.view(), p0.c.view()},
      {p1.a.view(), p1.b.view(), p1.c.view()},
      {p2.a.view(), p2.b.view(), p1.c.view()},  // C aliases item 1's C
      {p3.a.view(), p3.b.view(), p3.c.view()},
  };
  const std::vector<std::size_t> conflicted =
      find_cross_member_conflicts(items);
  EXPECT_EQ(conflicted, (std::vector<std::size_t>{1, 2}));
  EXPECT_TRUE(find_cross_member_conflicts(
                  {{p0.a.view(), p0.b.view(), p0.c.view()},
                   {p1.a.view(), p1.b.view(), p1.c.view()}})
                  .empty());
}

// Same-shape groups run through one executor call sharing a packing
// scratch (detail::execute). Multi-block shapes with per-member operand
// buffers catch stale packed-block caching across members: a block packed
// for member i must not be reused for member i+1's different buffers.
TEST(Batched, GroupSerialMultiBlockMembersIndependent) {
  const int m = 96, n = 80, k = 72;  // several blocks per dimension
  std::vector<std::unique_ptr<Stored>> problems;
  std::vector<BatchItem> items;
  for (int i = 0; i < 4; ++i) {
    problems.push_back(std::make_unique<Stored>(m, n, k, 80 + 3 * i));
    items.push_back({problems.back()->a.view(), problems.back()->b.view(),
                     problems.back()->c.view()});
  }
  ContextOptions opts;
  opts.threads = 1;  // serial branch -> one scratch shared by the group
  Context ctx(opts);
  const Status s = ctx.run_batched(items);
  EXPECT_TRUE(s.ok()) << s.message();
  for (const auto& p : problems)
    EXPECT_LT(common::max_rel_error(p->c.view(), p->c_ref.view()),
              testutil::gemm_tolerance(k));
}

// The prevalidated entry produces the same results as the validating one
// on a valid batch (the serve engine's dispatch path).
TEST(Batched, PrevalidatedEntryMatches) {
  std::vector<std::unique_ptr<Stored>> problems;
  std::vector<BatchItem> items;
  for (int i = 0; i < 3; ++i) {
    problems.push_back(std::make_unique<Stored>(24, 16, 12, 90 + i));
    items.push_back({problems.back()->a.view(), problems.back()->b.view(),
                     problems.back()->c.view()});
  }
  Context ctx;
  EXPECT_TRUE(ctx.run_batched_prevalidated(items).ok());
  for (const auto& p : problems)
    EXPECT_LT(common::max_rel_error(p->c.view(), p->c_ref.view()),
              testutil::gemm_tolerance(12));
}

// int8 members ride in the same batch as fp32 ones: each (shape, dtype)
// group runs through the Context's one group executor, int8 groups on the
// cached QPackedB of each member's B (the constant-B contract of
// run_const_b_i8). Every i8 C must be the exact bits of a single
// run_const_b_i8 call, on a serial and on a pooled Context, and every
// member observes one autogemm_gemm_seconds sample in its dtype's series.
TEST(Batched, Int8MembersMatchSingleCalls) {
  constexpr int kM = 7, kN = 37, kK = 53;
  Matrix b_shared(kK, kN), b_other(kK, kN);
  common::fill_random(b_shared.view(), 201);
  common::fill_random(b_other.view(), 202);
  const auto& reg = obs::default_registry();
  const auto seconds = [&](const char* dtype) {
    return reg
        .histogram_total("autogemm_gemm_seconds",
                         std::string("dtype=\"") + dtype + "\"")
        .count;
  };

  for (const unsigned threads : {1u, 4u}) {
    // Members 0-3 are int8 (0-2 share B), 4-5 fp32 of the same shape.
    constexpr int kMembers = 6, kI8Members = 4;
    std::vector<Matrix> as, cs, c_init;
    std::vector<BatchItem> items;
    for (int i = 0; i < kMembers; ++i) {
      as.emplace_back(kM, kK);
      common::fill_random(as.back().view(), 210 + i);
      cs.emplace_back(kM, kN);
      common::fill_random(cs.back().view(), 220 + i);
      c_init.emplace_back(kM, kN);
      for (int r = 0; r < kM; ++r)
        for (int j = 0; j < kN; ++j)
          c_init.back().at(r, j) = cs.back().at(r, j);
    }
    for (int i = 0; i < kMembers; ++i) {
      const Matrix& b = i == 3 ? b_other : b_shared;
      items.push_back({as[i].view(), b.view(), cs[i].view(),
                       i < kI8Members ? common::DType::kI8
                                      : common::DType::kF32});
    }
    ContextOptions opts;
    opts.threads = threads;
    Context ctx(opts);
    const std::uint64_t i8_before = seconds("i8");
    const std::uint64_t f32_before = seconds("f32");
    const Status s = ctx.run_batched(items);
    ASSERT_TRUE(s.ok()) << s.to_string();
    EXPECT_EQ(seconds("i8"), i8_before + kI8Members) << threads;
    EXPECT_EQ(seconds("f32"), f32_before + kMembers - kI8Members) << threads;

    ContextOptions single_opts;
    single_opts.threads = 1;
    Context single(single_opts);
    for (int i = 0; i < kMembers; ++i) {
      const Matrix& b = i == 3 ? b_other : b_shared;
      if (i < kI8Members) {
        ASSERT_TRUE(single
                        .run_const_b_i8(as[i].view(), b.view(),
                                        c_init[i].view(), 1.0f, 1.0f)
                        .ok());
        for (int r = 0; r < kM; ++r)
          for (int j = 0; j < kN; ++j)
            ASSERT_EQ(cs[i].at(r, j), c_init[i].at(r, j))
                << "threads " << threads << " member " << i;
      } else {
        common::reference_gemm(as[i].view(), b.view(), c_init[i].view());
        EXPECT_LT(common::max_rel_error(cs[i].view(), c_init[i].view()),
                  testutil::gemm_tolerance(kK))
            << "threads " << threads << " member " << i;
      }
    }
  }

  // A serve group of four int8 requests on one B packs that B once.
  Context ctx(ContextOptions{});
  serve::EngineOptions eopts;
  eopts.start_paused = true;
  eopts.max_batch_delay_ns = 0;
  serve::Engine engine(ctx, eopts);
  Matrix a(kM, kK);
  common::fill_random(a.view(), 230);
  std::vector<Matrix> outs;
  for (int i = 0; i < 4; ++i) outs.emplace_back(kM, kN);
  const std::uint64_t misses_before = ctx.stats().packed_misses;
  std::vector<std::future<Status>> fs;
  for (int i = 0; i < 4; ++i) {
    serve::GemmRequest r;
    r.a = a.view();
    r.b = b_shared.view();
    r.c = outs[i].view();
    r.dtype = common::DType::kI8;
    fs.push_back(engine.submit(r));
  }
  engine.resume();
  for (auto& f : fs) EXPECT_TRUE(f.get().ok());
  engine.shutdown();
  EXPECT_EQ(ctx.stats().packed_misses, misses_before + 1);
  EXPECT_EQ(engine.stats().batches, 1u);
}

}  // namespace
}  // namespace autogemm
