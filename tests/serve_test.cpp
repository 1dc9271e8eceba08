// serve::Engine: admission, coalescing, lanes, deadlines, shedding,
// failpoints, shutdown semantics and the accounting invariant.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.hpp"
#include "common/matrix.hpp"
#include "common/reference_gemm.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/context.hpp"
#include "obs/metrics.hpp"
#include "serve/engine.hpp"
#include "serve/router.hpp"
#include "test_util.hpp"

namespace autogemm::serve {
namespace {

using common::Matrix;

/// One request's operands plus the reference result (C starts zero, so
/// the expected accumulate result is plain A*B).
struct Problem {
  Matrix a, b, c, c_ref;
  Problem(int m, int n, int k, int seed)
      : a(m, k), b(k, n), c(m, n), c_ref(m, n) {
    common::fill_random(a.view(), seed);
    common::fill_random(b.view(), seed + 1);
    common::reference_gemm(a.view(), b.view(), c_ref.view());
  }
  GemmRequest request(Lane lane = Lane::kBulk, std::uint64_t deadline = 0) {
    GemmRequest r;
    r.a = a.view();
    r.b = b.view();
    r.c = c.view();
    r.lane = lane;
    r.deadline_ns = deadline;
    return r;
  }
  bool c_matches_ref() const {
    return common::max_rel_error(c.view(), c_ref.view()) <
           testutil::gemm_tolerance(a.cols());
  }
  bool c_untouched() const {
    for (int r = 0; r < c.rows(); ++r)
      for (int j = 0; j < c.cols(); ++j)
        if (c.at(r, j) != 0.0f) return false;
    return true;
  }
};

Context& test_ctx() {
  static ContextOptions opts = [] {
    ContextOptions o;
    o.threads = 1;
    return o;
  }();
  static Context ctx(opts);
  return ctx;
}

TEST(Serve, SingleRequestCompletesCorrectly) {
  Problem p(16, 12, 8, 1);
  Engine engine(test_ctx());
  std::future<Status> f = engine.submit(p.request());
  const Status s = f.get();
  EXPECT_TRUE(s.ok()) << s.message();
  EXPECT_TRUE(p.c_matches_ref());
  engine.shutdown();
  EXPECT_TRUE(engine.stats().accounting_clean());
}

TEST(Serve, SameShapeRequestsCoalesceIntoOneBatch) {
  std::vector<std::unique_ptr<Problem>> ps;
  for (int i = 0; i < 8; ++i) ps.push_back(std::make_unique<Problem>(8, 8, 8, 10 + i));
  EngineOptions opts;
  opts.start_paused = true;  // build the backlog, then release it at once
  opts.max_batch_delay_ns = 0;
  Engine engine(test_ctx(), opts);
  std::vector<std::future<Status>> fs;
  for (auto& p : ps) fs.push_back(engine.submit(p->request()));
  EXPECT_EQ(engine.queue_depth(), 8u);
  engine.resume();
  for (auto& f : fs) EXPECT_TRUE(f.get().ok());
  for (auto& p : ps) EXPECT_TRUE(p->c_matches_ref());
  const ServerStats st = engine.stats();
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.batched_requests, 8u);
  EXPECT_EQ(st.single_dispatches, 0u);
  EXPECT_TRUE(st.accounting_clean());
}

TEST(Serve, MixedShapesAllComplete) {
  std::vector<std::unique_ptr<Problem>> ps;
  ps.push_back(std::make_unique<Problem>(8, 8, 8, 20));
  ps.push_back(std::make_unique<Problem>(24, 16, 12, 21));
  ps.push_back(std::make_unique<Problem>(8, 8, 8, 22));
  ps.push_back(std::make_unique<Problem>(33, 17, 9, 23));
  EngineOptions opts;
  opts.start_paused = true;
  opts.max_batch_delay_ns = 0;
  Engine engine(test_ctx(), opts);
  std::vector<std::future<Status>> fs;
  for (auto& p : ps) fs.push_back(engine.submit(p->request()));
  engine.resume();
  for (auto& f : fs) EXPECT_TRUE(f.get().ok());
  for (auto& p : ps) EXPECT_TRUE(p->c_matches_ref());
  EXPECT_TRUE(engine.stats().accounting_clean());
}

TEST(Serve, BackpressureRejectsBulkWhenFull) {
  EngineOptions opts;
  opts.queue_capacity = 4;
  opts.shed_watermark = 4;  // isolate admission backpressure from shedding
  opts.start_paused = true;
  Engine engine(test_ctx(), opts);
  std::vector<std::unique_ptr<Problem>> ps;
  std::vector<std::future<Status>> fs;
  for (int i = 0; i < 4; ++i) {
    ps.push_back(std::make_unique<Problem>(8, 8, 8, 30 + i));
    fs.push_back(engine.submit(ps.back()->request()));
  }
  Problem extra(8, 8, 8, 39);
  std::future<Status> rejected = engine.submit(extra.request());
  // Rejection is immediate — the future is ready before any dispatch.
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(rejected.get().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(extra.c_untouched());
  engine.resume();
  for (auto& f : fs) EXPECT_TRUE(f.get().ok());
  const ServerStats st = engine.stats();
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_TRUE(st.accounting_clean());
}

TEST(Serve, InteractiveDisplacesOldestBulkWhenFull) {
  EngineOptions opts;
  opts.queue_capacity = 2;
  opts.shed_watermark = 2;  // isolate displacement from watermark shedding
  opts.start_paused = true;
  Engine engine(test_ctx(), opts);
  Problem b0(8, 8, 8, 40), b1(8, 8, 8, 41), inter(8, 8, 8, 42);
  std::future<Status> f0 = engine.submit(b0.request(Lane::kBulk));
  std::future<Status> f1 = engine.submit(b1.request(Lane::kBulk));
  std::future<Status> fi = engine.submit(inter.request(Lane::kInteractive));
  // The oldest bulk request was shed to make room — kUnavailable, not a
  // silent drop, and its C was never written.
  ASSERT_EQ(f0.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f0.get().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(b0.c_untouched());
  engine.resume();
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(fi.get().ok());
  EXPECT_TRUE(inter.c_matches_ref());
  const ServerStats st = engine.stats();
  EXPECT_EQ(st.shed, 1u);
  EXPECT_TRUE(st.accounting_clean());
}

TEST(Serve, PastDeadlineExpiresBeforeExecution) {
  EngineOptions opts;
  opts.start_paused = true;
  Engine engine(test_ctx(), opts);
  Problem p(8, 8, 8, 50);
  std::future<Status> f =
      engine.submit(p.request(Lane::kBulk, common::now_ns() - 1));
  engine.resume();
  const Status s = f.get();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(p.c_untouched());
  const ServerStats st = engine.stats();
  EXPECT_EQ(st.expired, 1u);
  EXPECT_TRUE(st.accounting_clean());
}

TEST(Serve, FutureDeadlineDoesNotExpire) {
  Engine engine(test_ctx());
  Problem p(8, 8, 8, 55);
  std::future<Status> f = engine.submit(
      p.request(Lane::kBulk, common::now_ns() + 10'000'000'000ull));
  EXPECT_TRUE(f.get().ok());
  EXPECT_TRUE(p.c_matches_ref());
}

TEST(Serve, BulkAgingZeroServesBulkFirst) {
  // bulk_aging_ns == 0: the bulk head always counts as aged, so it is
  // dispatched ahead of interactive traffic (the determinism hook).
  EngineOptions opts;
  opts.start_paused = true;
  opts.bulk_aging_ns = 0;
  opts.max_batch_delay_ns = 0;
  Engine engine(test_ctx(), opts);
  Problem bulk(8, 8, 8, 60), inter(12, 12, 12, 61);
  std::mutex mu;
  std::vector<std::string> order;
  engine.submit(bulk.request(Lane::kBulk), [&](Status s) {
    std::lock_guard lock(mu);
    order.push_back(s.ok() ? "bulk" : "bulk-err");
  });
  engine.submit(inter.request(Lane::kInteractive), [&](Status s) {
    std::lock_guard lock(mu);
    order.push_back(s.ok() ? "interactive" : "interactive-err");
  });
  engine.resume();
  engine.shutdown();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "bulk");
  EXPECT_EQ(order[1], "interactive");
}

TEST(Serve, FreshBulkWaitsBehindInteractive) {
  // A bulk request younger than bulk_aging_ns has not aged, so the
  // interactive lane goes first even though bulk was queued earlier. The
  // 60 s window keeps bulk "fresh" however late the resumed dispatcher
  // gets scheduled (the 2 ms default does not under a loaded host).
  EngineOptions opts;
  opts.start_paused = true;
  opts.max_batch_delay_ns = 0;
  opts.bulk_aging_ns = 60'000'000'000;
  Engine engine(test_ctx(), opts);
  Problem bulk(8, 8, 8, 65), inter(12, 12, 12, 66);
  std::mutex mu;
  std::vector<std::string> order;
  engine.submit(bulk.request(Lane::kBulk), [&](Status) {
    std::lock_guard lock(mu);
    order.push_back("bulk");
  });
  engine.submit(inter.request(Lane::kInteractive), [&](Status) {
    std::lock_guard lock(mu);
    order.push_back("interactive");
  });
  engine.resume();
  engine.shutdown();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "interactive");
}

TEST(Serve, WatermarkShedsBulkOldestFirst) {
  EngineOptions opts;
  opts.queue_capacity = 16;
  opts.shed_watermark = 4;
  opts.start_paused = true;
  opts.max_batch_delay_ns = 0;
  Engine engine(test_ctx(), opts);
  std::vector<std::unique_ptr<Problem>> bulk;
  std::vector<std::future<Status>> bulk_fs;
  for (int i = 0; i < 6; ++i) {
    bulk.push_back(std::make_unique<Problem>(8, 8, 8, 70 + i));
    bulk_fs.push_back(engine.submit(bulk.back()->request(Lane::kBulk)));
  }
  std::vector<std::unique_ptr<Problem>> inter;
  std::vector<std::future<Status>> inter_fs;
  for (int i = 0; i < 2; ++i) {
    inter.push_back(std::make_unique<Problem>(8, 8, 8, 76 + i));
    inter_fs.push_back(
        engine.submit(inter.back()->request(Lane::kInteractive)));
  }
  // resume() only — shutting down here could race the dispatcher into
  // drain mode (draining never sheds). The futures block until every
  // outcome is decided.
  engine.resume();
  // Depth 8 > watermark 4: the dispatcher sheds the four oldest bulk
  // requests; interactive is never shed here.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(bulk_fs[i].get().code(), StatusCode::kUnavailable) << i;
    EXPECT_TRUE(bulk[i]->c_untouched()) << i;
  }
  for (int i = 4; i < 6; ++i) EXPECT_TRUE(bulk_fs[i].get().ok()) << i;
  for (auto& f : inter_fs) EXPECT_TRUE(f.get().ok());
  engine.shutdown();
  const ServerStats st = engine.stats();
  EXPECT_EQ(st.shed, 4u);
  EXPECT_TRUE(st.accounting_clean());
}

TEST(Serve, QueueFullFailpointForcesBackpressure) {
  failpoint::disarm_all();
  Engine engine(test_ctx());
  failpoint::arm("serve.queue_full", 1);
  Problem p(8, 8, 8, 80);
  std::future<Status> f = engine.submit(p.request(Lane::kBulk));
  EXPECT_EQ(f.get().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(failpoint::hits("serve.queue_full"), 1);
  failpoint::disarm_all();
  // The engine keeps serving once the fault clears, with clean books.
  Problem q(8, 8, 8, 81);
  EXPECT_TRUE(engine.submit(q.request()).get().ok());
  engine.shutdown();
  const ServerStats st = engine.stats();
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_TRUE(st.accounting_clean());
}

TEST(Serve, SpawnFailpointFallsBackToInlineMode) {
  failpoint::disarm_all();
  failpoint::arm("serve.spawn", 1);
  Engine engine(test_ctx());
  failpoint::disarm_all();
  ASSERT_TRUE(engine.inline_mode());
  // Inline mode serves synchronously: the future is ready on return.
  Problem p(16, 12, 8, 85);
  std::future<Status> f = engine.submit(p.request());
  ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_TRUE(f.get().ok());
  EXPECT_TRUE(p.c_matches_ref());
  // Deadlines are still honored inline.
  Problem late(8, 8, 8, 86);
  EXPECT_EQ(engine.submit(late.request(Lane::kBulk, common::now_ns() - 1))
                .get()
                .code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(late.c_untouched());
  engine.shutdown();
  EXPECT_TRUE(engine.stats().accounting_clean());
}

TEST(Serve, InvalidRequestFailsFastWithoutQueueing) {
  EngineOptions opts;
  opts.start_paused = true;  // nothing dispatches; rejection must be local
  Engine engine(test_ctx(), opts);
  Matrix a(8, 5), b(7, 8), c(8, 8);  // inner dimensions disagree
  GemmRequest r;
  r.a = a.view();
  r.b = b.view();
  r.c = c.view();
  std::future<Status> f = engine.submit(r);
  ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f.get().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.queue_depth(), 0u);
  const ServerStats st = engine.stats();
  EXPECT_EQ(st.invalid, 1u);
  EXPECT_TRUE(st.accounting_clean());  // invalid is terminal at admission
}

TEST(Serve, AliasedMembersDemotedToSingleDispatches) {
  // Two same-shape requests writing the same C cannot run in one batch;
  // the engine demotes both to sequential single dispatches, and both
  // accumulates land (C += A0*B0 += A1*B1).
  const int m = 8, n = 8, k = 8;
  Matrix a0(m, k), b0(k, n), a1(m, k), b1(k, n), c(m, n), c_ref(m, n);
  common::fill_random(a0.view(), 90);
  common::fill_random(b0.view(), 91);
  common::fill_random(a1.view(), 92);
  common::fill_random(b1.view(), 93);
  common::reference_gemm(a0.view(), b0.view(), c_ref.view());
  common::reference_gemm(a1.view(), b1.view(), c_ref.view());

  EngineOptions opts;
  opts.start_paused = true;
  opts.max_batch_delay_ns = 0;
  Engine engine(test_ctx(), opts);
  GemmRequest r0, r1;
  r0.a = a0.view();
  r0.b = b0.view();
  r0.c = c.view();
  r1.a = a1.view();
  r1.b = b1.view();
  r1.c = c.view();
  std::future<Status> f0 = engine.submit(r0);
  std::future<Status> f1 = engine.submit(r1);
  engine.resume();
  EXPECT_TRUE(f0.get().ok());
  EXPECT_TRUE(f1.get().ok());
  EXPECT_LT(common::max_rel_error(c.view(), c_ref.view()),
            testutil::gemm_tolerance(k));
  const ServerStats st = engine.stats();
  EXPECT_EQ(st.batches, 0u);
  EXPECT_EQ(st.single_dispatches, 2u);
  EXPECT_TRUE(st.accounting_clean());
}

TEST(Serve, ShutdownDrainsQueueThenRejects) {
  EngineOptions opts;
  opts.start_paused = true;
  Engine engine(test_ctx(), opts);
  std::vector<std::unique_ptr<Problem>> ps;
  std::vector<std::future<Status>> fs;
  for (int i = 0; i < 4; ++i) {
    ps.push_back(std::make_unique<Problem>(8, 8, 8, 100 + i));
    fs.push_back(engine.submit(ps.back()->request()));
  }
  engine.shutdown();  // also unpauses: queued work is drained, not dropped
  for (auto& f : fs) EXPECT_TRUE(f.get().ok());
  for (auto& p : ps) EXPECT_TRUE(p->c_matches_ref());
  Problem late(8, 8, 8, 110);
  // Lifecycle rejection: the engine is Stopped, so the caller must
  // observe a state change — kFailedPrecondition, not a transient code.
  const Status rejected = engine.submit(late.request()).get();
  EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(is_transient(rejected));
  EXPECT_EQ(engine.state(), EngineState::kStopped);
  engine.shutdown();  // idempotent
  const ServerStats st = engine.stats();
  EXPECT_EQ(st.completed_ok, 4u);
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_TRUE(st.accounting_clean());
}

TEST(Serve, CallbackFlavorCompletesExactlyOnce) {
  Engine engine(test_ctx());
  Problem p(16, 12, 8, 120);
  std::atomic<int> calls(0);
  std::promise<Status> got;
  engine.submit(p.request(), [&](Status s) {
    if (calls.fetch_add(1) == 0) got.set_value(s);
  });
  EXPECT_TRUE(got.get_future().get().ok());
  engine.shutdown();
  EXPECT_EQ(calls.load(), 1);
  EXPECT_TRUE(p.c_matches_ref());
  EXPECT_TRUE(engine.stats().accounting_clean());
}

TEST(Serve, MetricsMirrorEngineActivity) {
  const obs::Registry& reg = obs::default_registry();
  const auto bulk_qlat = [&] {
    return reg.histogram_total("autogemm_serve_queue_seconds",
                               "lane=\"bulk\"").count;
  };
  const std::uint64_t admitted0 =
      reg.counter_total("autogemm_serve_admitted_total");
  const std::uint64_t batches0 =
      reg.counter_total("autogemm_serve_batches_total");
  const std::uint64_t qlat0 = bulk_qlat();
  const double depth0 = reg.gauge_total("autogemm_serve_queue_depth");

  std::vector<std::unique_ptr<Problem>> ps;
  EngineOptions opts;
  opts.start_paused = true;
  opts.max_batch_delay_ns = 0;
  Engine engine(test_ctx(), opts);
  std::vector<std::future<Status>> fs;
  for (int i = 0; i < 4; ++i) {
    ps.push_back(std::make_unique<Problem>(8, 8, 8, 130 + i));
    fs.push_back(engine.submit(ps.back()->request(Lane::kBulk)));
  }
  engine.resume();
  for (auto& f : fs) EXPECT_TRUE(f.get().ok());
  engine.shutdown();

  EXPECT_EQ(reg.counter_total("autogemm_serve_admitted_total"), admitted0 + 4);
  EXPECT_GE(reg.counter_total("autogemm_serve_batches_total"), batches0 + 1);
  EXPECT_EQ(bulk_qlat(), qlat0 + 4);
  EXPECT_EQ(reg.gauge_total("autogemm_serve_queue_depth"), depth0);  // drained
}

TEST(Serve, HammerMixedLoadAllFuturesResolve) {
  // Concurrency hammer: two submitter threads, mixed lanes, a slice of
  // already-expired deadlines, and a fault-injected full queue against a
  // small capacity. Every future must resolve with a Status from the
  // allowed set, OK results must be numerically right, non-OK requests
  // must leave C untouched, and the books must balance afterwards.
  failpoint::disarm_all();
  constexpr int kPerThread = 150;
  constexpr int kThreads = 2;
  const int m = 8, n = 8, k = 8;
  Matrix a(m, k), b(k, n), c_ref(m, n);
  common::fill_random(a.view(), 140);
  common::fill_random(b.view(), 141);
  common::reference_gemm(a.view(), b.view(), c_ref.view());

  std::vector<Matrix> cs;
  cs.reserve(kThreads * kPerThread);
  for (int i = 0; i < kThreads * kPerThread; ++i) cs.emplace_back(m, n);

  EngineOptions opts;
  opts.queue_capacity = 32;
  opts.max_batch = 16;
  opts.max_batch_delay_ns = 0;
  Engine engine(test_ctx(), opts);
  failpoint::arm("serve.queue_full", 20);

  std::vector<std::future<Status>> futures(kThreads * kPerThread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int idx = t * kPerThread + i;
        GemmRequest r;
        r.a = a.view();
        r.b = b.view();
        r.c = cs[idx].view();
        r.lane = i % 3 == 0 ? Lane::kInteractive : Lane::kBulk;
        if (i % 10 == 7) r.deadline_ns = common::now_ns() - 1;  // expired
        futures[idx] = engine.submit(r);
      }
    });
  }
  for (auto& t : threads) t.join();
  engine.shutdown();
  failpoint::disarm_all();

  int ok = 0, non_ok = 0;
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    ASSERT_TRUE(futures[i].valid());
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "future " << i << " unresolved after shutdown";
    const Status s = futures[i].get();
    switch (s.code()) {
      case StatusCode::kOk: {
        ++ok;
        EXPECT_LT(common::max_rel_error(cs[i].view(), c_ref.view()),
                  testutil::gemm_tolerance(k))
            << "request " << i;
        break;
      }
      case StatusCode::kUnavailable:
      case StatusCode::kResourceExhausted:
      case StatusCode::kDeadlineExceeded: {
        ++non_ok;
        for (int r = 0; r < m; ++r)
          for (int j = 0; j < n; ++j)
            EXPECT_EQ(cs[i].at(r, j), 0.0f)
                << "non-OK request " << i << " wrote to C";
        break;
      }
      default:
        FAIL() << "request " << i << ": unexpected status " << s.message();
    }
  }
  EXPECT_GT(ok, 0);
  const ServerStats st = engine.stats();
  EXPECT_EQ(st.submitted,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_TRUE(st.accounting_clean())
      << "ok=" << ok << " non_ok=" << non_ok << " submitted=" << st.submitted
      << " admitted=" << st.admitted << " rejected=" << st.rejected
      << " shed=" << st.shed << " expired=" << st.expired
      << " completed_ok=" << st.completed_ok
      << " completed_error=" << st.completed_error;
}

TEST(Serve, StatsStartCleanAndShutdownIsIdempotent) {
  Engine engine(test_ctx());
  const ServerStats st0 = engine.stats();
  EXPECT_EQ(st0.submitted, 0u);
  EXPECT_TRUE(st0.accounting_clean());
  engine.shutdown();
  engine.shutdown();
  EXPECT_TRUE(engine.stats().accounting_clean());
}

// ---------------------------------------------------------------------------
// Lifecycle: Running -> Draining -> Stopped.

TEST(Serve, DrainCompletesInFlightThenStops) {
  EngineOptions opts;
  opts.start_paused = true;
  Engine engine(test_ctx(), opts);
  EXPECT_EQ(engine.state(), EngineState::kRunning);
  std::vector<std::unique_ptr<Problem>> ps;
  std::vector<std::future<Status>> fs;
  for (int i = 0; i < 4; ++i) {
    ps.push_back(std::make_unique<Problem>(8, 8, 8, 150 + i));
    fs.push_back(engine.submit(ps.back()->request()));
  }
  engine.resume();
  const Status drained = engine.drain();
  EXPECT_TRUE(drained.ok()) << drained.message();
  EXPECT_EQ(engine.state(), EngineState::kStopped);
  // Everything admitted before the drain completed, none dropped.
  for (auto& f : fs) EXPECT_TRUE(f.get().ok());
  for (auto& p : ps) EXPECT_TRUE(p->c_matches_ref());
  const ServerStats st = engine.stats();
  EXPECT_EQ(st.completed_ok, 4u);
  EXPECT_TRUE(st.accounting_clean());
}

TEST(Serve, SubmitDuringDrainRejectedFailedPrecondition) {
  EngineOptions opts;
  opts.start_paused = true;  // the backlog cannot move: drain must time out
  Engine engine(test_ctx(), opts);
  Problem queued(8, 8, 8, 160);
  std::future<Status> f = engine.submit(queued.request());
  // drain() respects pause, so a bounded drain deterministically expires
  // and leaves the engine Draining.
  const Status timed_out = engine.drain(/*timeout_ns=*/5'000'000);
  EXPECT_EQ(timed_out.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(engine.state(), EngineState::kDraining);
  // New work is refused while draining — with the lifecycle code, and
  // before it could ever occupy a queue slot.
  Problem late(8, 8, 8, 161);
  std::future<Status> rejected = engine.submit(late.request());
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(rejected.get().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(late.c_untouched());
  // Unblock the dispatcher: the drain now finishes the in-flight work.
  engine.resume();
  const Status drained = engine.drain();
  EXPECT_TRUE(drained.ok()) << drained.message();
  EXPECT_EQ(engine.state(), EngineState::kStopped);
  EXPECT_TRUE(f.get().ok());
  EXPECT_TRUE(queued.c_matches_ref());
  const ServerStats st = engine.stats();
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_TRUE(st.accounting_clean());
}

TEST(Serve, DrainTimeoutExpiryLeavesDrainInProgress) {
  EngineOptions opts;
  opts.start_paused = true;
  Engine engine(test_ctx(), opts);
  Problem p(8, 8, 8, 165);
  std::future<Status> f = engine.submit(p.request());
  EXPECT_EQ(engine.drain(/*timeout_ns=*/1'000'000).code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(engine.state(), EngineState::kDraining);
  // shutdown() unpauses and finishes what the timed-out drain started.
  engine.shutdown();
  EXPECT_EQ(engine.state(), EngineState::kStopped);
  EXPECT_TRUE(f.get().ok());
  EXPECT_TRUE(engine.stats().accounting_clean());
}

// ---------------------------------------------------------------------------
// Circuit breakers.

TEST(Serve, BreakerOpensAfterConsecutiveFailuresThenRecovers) {
  EngineOptions opts;
  opts.max_batch_delay_ns = 0;
  opts.breaker_failure_threshold = 3;
  opts.breaker_cooldown_ns = 50'000'000;  // long enough to observe Open
  Engine engine(test_ctx(), opts);
  failpoint::disarm_all();
  failpoint::arm("serve.execute", 3);
  Problem p(8, 8, 8, 170);
  for (int i = 0; i < 3; ++i) {
    const Status s = engine.submit(p.request()).get();
    EXPECT_EQ(s.code(), StatusCode::kInternal) << i;
    EXPECT_TRUE(p.c_untouched()) << i;
  }
  failpoint::disarm_all();
  // Threshold reached: the shape's breaker is open, and the next
  // submission fast-fails at admission without queueing.
  Problem fast(8, 8, 8, 171);
  std::future<Status> ff = engine.submit(fast.request());
  ASSERT_EQ(ff.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const Status fast_failed = ff.get();
  EXPECT_EQ(fast_failed.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(is_transient(fast_failed));
  EXPECT_TRUE(fast.c_untouched());
  // A *different* shape is unaffected — breakers are per bucket.
  Problem other(12, 12, 12, 172);
  EXPECT_TRUE(engine.submit(other.request()).get().ok());
  // After the cooldown the half-open probe is admitted; the fault is
  // gone, so it succeeds and closes the breaker.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  Problem probe(8, 8, 8, 173);
  EXPECT_TRUE(engine.submit(probe.request()).get().ok());
  EXPECT_TRUE(probe.c_matches_ref());
  Problem after(8, 8, 8, 174);
  EXPECT_TRUE(engine.submit(after.request()).get().ok());
  engine.shutdown();
  const ServerStats st = engine.stats();
  EXPECT_EQ(st.breaker_opens, 1u);
  EXPECT_EQ(st.breaker_rejected, 1u);
  EXPECT_EQ(st.completed_error, 3u);
  EXPECT_TRUE(st.accounting_clean());
}

TEST(Serve, BreakerHalfOpenProbeFailureReopens) {
  EngineOptions opts;
  opts.max_batch_delay_ns = 0;
  opts.breaker_failure_threshold = 1;
  opts.breaker_cooldown_ns = 5'000'000;
  Engine engine(test_ctx(), opts);
  failpoint::disarm_all();
  failpoint::arm("serve.execute", 2);
  Problem p(8, 8, 8, 180);
  // First failure opens the breaker (threshold 1).
  EXPECT_EQ(engine.submit(p.request()).get().code(), StatusCode::kInternal);
  // After the cooldown, the half-open probe is admitted — and fails
  // (second budgeted hit), reopening the breaker.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Problem probe(8, 8, 8, 181);
  EXPECT_EQ(engine.submit(probe.request()).get().code(),
            StatusCode::kInternal);
  failpoint::disarm_all();
  // Freshly reopened: still fast-failing within the new cooldown.
  Problem fast(8, 8, 8, 182);
  EXPECT_EQ(engine.submit(fast.request()).get().code(),
            StatusCode::kUnavailable);
  // Second cooldown, healthy probe: the breaker closes for good.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Problem healthy(8, 8, 8, 183);
  EXPECT_TRUE(engine.submit(healthy.request()).get().ok());
  EXPECT_TRUE(healthy.c_matches_ref());
  engine.shutdown();
  const ServerStats st = engine.stats();
  EXPECT_EQ(st.breaker_opens, 2u);
  EXPECT_TRUE(st.accounting_clean());
}

// ---------------------------------------------------------------------------
// Client retries.

TEST(Serve, SubmitWithRetrySucceedsAfterTransientRejections) {
  failpoint::disarm_all();
  Engine engine(test_ctx());
  // The first two admission attempts see an injected full queue
  // (kResourceExhausted — transient); the third succeeds.
  failpoint::arm("serve.queue_full", 2);
  Problem p(16, 12, 8, 190);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ns = 100'000;
  policy.jitter = 0.0;  // deterministic schedule
  const Status s = engine.submit_with_retry(p.request(), policy);
  failpoint::disarm_all();
  EXPECT_TRUE(s.ok()) << s.message();
  EXPECT_TRUE(p.c_matches_ref());
  engine.shutdown();
  const ServerStats st = engine.stats();
  EXPECT_EQ(st.retries, 2u);
  EXPECT_EQ(st.rejected, 2u);
  EXPECT_TRUE(st.accounting_clean());
}

TEST(Serve, RetryBudgetExhaustionUnderSustainedOverload) {
  failpoint::disarm_all();
  EngineOptions opts;
  opts.retry_budget_tokens = 1.0;  // one retry engine-wide, never refilled
  opts.retry_token_ratio = 0.0;
  Engine engine(test_ctx(), opts);
  failpoint::arm("serve.queue_full");  // sustained overload: every attempt
  Problem p(8, 8, 8, 195);
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_ns = 10'000;
  const Status s = engine.submit_with_retry(p.request(), policy);
  failpoint::disarm_all();
  // The policy allowed 5 attempts, but the engine-wide bucket only funded
  // one retry: attempt 1 + retry 1, then the budget cut the storm off.
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(p.c_untouched());
  const ServerStats st = engine.stats();
  EXPECT_EQ(st.retries, 1u);
  EXPECT_EQ(st.retry_budget_exhausted, 1u);
  EXPECT_EQ(st.submitted, 2u);  // not 5: the bucket stopped resubmission
  engine.shutdown();
  EXPECT_TRUE(engine.stats().accounting_clean());
}

// ---------------------------------------------------------------------------
// Dispatcher supervision.

TEST(Serve, DispatcherCrashRecoveredByRespawn) {
  failpoint::disarm_all();
  EngineOptions opts;
  opts.start_paused = true;
  opts.supervision_interval_ns = 1'000'000;
  opts.restart_backoff_ns = 100'000;
  Engine engine(test_ctx(), opts);
  std::vector<std::unique_ptr<Problem>> ps;
  std::vector<std::future<Status>> fs;
  for (int i = 0; i < 4; ++i) {
    ps.push_back(std::make_unique<Problem>(8, 8, 8, 200 + i));
    fs.push_back(engine.submit(ps.back()->request()));
  }
  // The dispatcher dies on its first wakeup with the whole backlog
  // queued; the monitor must respawn it and nothing may be stranded.
  failpoint::arm("serve.dispatcher_crash", 1);
  engine.resume();
  for (auto& f : fs) EXPECT_TRUE(f.get().ok());
  for (auto& p : ps) EXPECT_TRUE(p->c_matches_ref());
  failpoint::disarm_all();
  EXPECT_FALSE(engine.inline_mode());
  engine.shutdown();
  const ServerStats st = engine.stats();
  EXPECT_EQ(st.dispatcher_crashes, 1u);
  EXPECT_EQ(st.dispatcher_restarts, 1u);
  EXPECT_EQ(st.completed_ok, 4u);
  EXPECT_TRUE(st.accounting_clean());
}

TEST(Serve, DispatcherStallDetectedAndRespawned) {
  failpoint::disarm_all();
  EngineOptions opts;
  opts.start_paused = true;
  opts.supervision_interval_ns = 1'000'000;
  opts.heartbeat_timeout_ns = 3'000'000;
  opts.stall_inject_ns = 60'000'000;  // wedged far past the timeout
  opts.restart_backoff_ns = 100'000;
  Engine engine(test_ctx(), opts);
  Problem p0(8, 8, 8, 210), p1(8, 8, 8, 211);
  std::future<Status> f0 = engine.submit(p0.request());
  std::future<Status> f1 = engine.submit(p1.request());
  // The dispatcher wedges (no heartbeat, no progress) with work pending;
  // the monitor declares a stall, supersedes the thread (parked, joined
  // at shutdown — never detached) and respawns.
  failpoint::arm("serve.dispatcher_stall", 1);
  engine.resume();
  EXPECT_TRUE(f0.get().ok());
  EXPECT_TRUE(f1.get().ok());
  failpoint::disarm_all();
  engine.shutdown();  // joins the wedged thread too
  const ServerStats st = engine.stats();
  EXPECT_EQ(st.dispatcher_stalls, 1u);
  EXPECT_GE(st.dispatcher_restarts, 1u);
  EXPECT_TRUE(st.accounting_clean());
}

TEST(Serve, RestartBudgetExhaustionDegradesToInline) {
  failpoint::disarm_all();
  EngineOptions opts;
  opts.start_paused = true;
  opts.supervision_interval_ns = 1'000'000;
  opts.max_dispatcher_restarts = 0;  // first crash exhausts the budget
  Engine engine(test_ctx(), opts);
  std::vector<std::unique_ptr<Problem>> ps;
  std::vector<std::future<Status>> fs;
  for (int i = 0; i < 3; ++i) {
    ps.push_back(std::make_unique<Problem>(8, 8, 8, 220 + i));
    fs.push_back(engine.submit(ps.back()->request()));
  }
  failpoint::arm("serve.dispatcher_crash", 1);
  engine.resume();
  // The monitor drains the stranded backlog itself while degrading —
  // every future still completes OK.
  for (auto& f : fs) EXPECT_TRUE(f.get().ok());
  for (auto& p : ps) EXPECT_TRUE(p->c_matches_ref());
  failpoint::disarm_all();
  EXPECT_TRUE(engine.inline_mode());
  // Degraded but serving: submissions now execute inline, synchronously.
  Problem after(8, 8, 8, 225);
  std::future<Status> f = engine.submit(after.request());
  ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_TRUE(f.get().ok());
  EXPECT_TRUE(after.c_matches_ref());
  engine.shutdown();
  const ServerStats st = engine.stats();
  EXPECT_EQ(st.dispatcher_crashes, 1u);
  EXPECT_EQ(st.dispatcher_restarts, 0u);
  EXPECT_TRUE(st.accounting_clean());
}

/// A one-shard fleet — the online tuner's owner — whose tuner prices with
/// a rigged deterministic cost: the shape's incumbent config prices 2.0,
/// everything else 1.0, so a search always promotes, independent of host
/// noise. The incumbent is only known once the shard's Context exists,
/// hence the indirection.
std::unique_ptr<ShardedEngine> tuned_fleet(ShardedEngineOptions o, int m,
                                           int n, int k) {
  o.shards = 1;
  o.context.threads = 1;
  o.enable_online_tuner = true;
  auto inc = std::make_shared<GemmConfig>();
  o.tuner.cost_override = [inc](const tune::Candidate& c, int, int, int) {
    const bool is_inc = c.mc == inc->mc && c.nc == inc->nc &&
                        c.kc == inc->kc && c.loop_order == inc->loop_order &&
                        c.packing == inc->packing;
    return is_inc ? 2.0 : 1.0;
  };
  auto fleet = ShardedEngine::create(o).value();
  *inc = fleet->shard_context(0).plan_for(m, n, k)->config();
  return fleet;
}

TEST(Serve, HotShapesRankByAdmittedRequests) {
  Engine engine(test_ctx());
  std::vector<std::unique_ptr<Problem>> ps;
  std::vector<std::future<Status>> fs;
  for (int i = 0; i < 3; ++i) {  // 24x16x8 admitted three times
    ps.push_back(std::make_unique<Problem>(24, 16, 8, 500 + i));
    fs.push_back(engine.submit(ps.back()->request()));
  }
  ps.push_back(std::make_unique<Problem>(8, 8, 8, 510));  // once
  fs.push_back(engine.submit(ps.back()->request()));
  for (auto& f : fs) EXPECT_TRUE(f.get().ok());

  const std::vector<tune::HotShape> hot = engine.hot_shapes();
  ASSERT_EQ(hot.size(), 2u);
  EXPECT_EQ(hot[0].m, 24);
  EXPECT_EQ(hot[0].n, 16);
  EXPECT_EQ(hot[0].k, 8);
  EXPECT_EQ(hot[0].requests, 3u);
  EXPECT_EQ(hot[1].requests, 1u);
  EXPECT_EQ(engine.hot_shapes(1).size(), 1u);  // limit truncates
  engine.shutdown();
  EXPECT_TRUE(engine.stats().accounting_clean());
}

TEST(Serve, TunerManualCyclePromotesFromRequestAccounting) {
  // End-to-end through the fleet's own feed: admitted-request accounting
  // ranks the hot shape, a manual tuner cycle searches it, and the
  // promoted record serves the *next* request through the exact rung —
  // all deterministic (tuner thread parked, rigged cost).
  const int m = 40, n = 36, k = 28;
  ShardedEngineOptions opts;
  opts.tuner.start_paused = true;
  opts.tuner.min_requests = 4;
  const auto fleet = tuned_fleet(opts, m, n, k);
  ASSERT_NE(fleet->online_tuner(), nullptr);
  Context& ctx = fleet->shard_context(0);

  std::vector<std::unique_ptr<Problem>> ps;
  std::vector<std::future<Status>> fs;
  for (int i = 0; i < 8; ++i) {
    ps.push_back(std::make_unique<Problem>(m, n, k, 600 + i));
    fs.push_back(fleet->submit(ps.back()->request()));
  }
  for (auto& f : fs) EXPECT_TRUE(f.get().ok());
  for (auto& p : ps) EXPECT_TRUE(p->c_matches_ref());

  EXPECT_TRUE(fleet->online_tuner()->run_cycle());
  EXPECT_EQ(fleet->online_tuner()->stats().promotions, 1u);
  EXPECT_TRUE(ctx.has_exact_record(m, n, k));

  // Traffic after the promotion executes the searched config, correctly.
  const std::uint64_t exact_before = ctx.stats().resolved_exact;
  Problem after(m, n, k, 700);
  EXPECT_TRUE(fleet->submit(after.request()).get().ok());
  EXPECT_TRUE(after.c_matches_ref());
  EXPECT_EQ(ctx.stats().resolved_exact, exact_before + 1);

  // A second cycle is a no-op: the shape now resolves exact.
  EXPECT_FALSE(fleet->online_tuner()->run_cycle());
  EXPECT_EQ(fleet->online_tuner()->stats().promotions, 1u);

  fleet->shutdown();
  EXPECT_TRUE(fleet->stats().accounting_clean());
}

TEST(Serve, BackgroundTunerPromotesWhileServing) {
  // The live loop: the tuner thread discovers the hot shape and promotes
  // on its own while requests keep flowing and resolving.
  const int m = 44, n = 28, k = 20;
  ShardedEngineOptions opts;
  opts.tuner.cycle_interval_ns = 1'000'000;  // 1 ms
  opts.tuner.min_requests = 4;
  const auto fleet = tuned_fleet(opts, m, n, k);

  const std::uint64_t deadline = common::now_ns() + 10'000'000'000ull;
  std::uint64_t promotions = 0;
  int batch = 0;
  while (promotions == 0 && common::now_ns() < deadline) {
    std::vector<std::unique_ptr<Problem>> ps;
    std::vector<std::future<Status>> fs;
    for (int i = 0; i < 4; ++i) {
      ps.push_back(std::make_unique<Problem>(m, n, k, 800 + 4 * batch + i));
      fs.push_back(fleet->submit(ps.back()->request()));
    }
    ++batch;
    for (auto& f : fs) EXPECT_TRUE(f.get().ok());
    for (auto& p : ps) EXPECT_TRUE(p->c_matches_ref());
    promotions = fleet->online_tuner()->stats().promotions;
  }
  EXPECT_GE(promotions, 1u) << "background tuner never promoted";
  EXPECT_TRUE(fleet->shard_context(0).has_exact_record(m, n, k));
  fleet->shutdown();
  EXPECT_TRUE(fleet->stats().accounting_clean());
}

TEST(Serve, DrainPausesOnlineTuner) {
  ShardedEngineOptions opts;
  opts.tuner.cycle_interval_ns = 1'000'000;
  const auto fleet = tuned_fleet(opts, 16, 12, 8);
  Problem p(16, 12, 8, 900);
  EXPECT_TRUE(fleet->submit(p.request()).get().ok());
  const Status drained = fleet->drain();
  EXPECT_TRUE(drained.ok()) << drained.message();
  EXPECT_TRUE(fleet->online_tuner()->paused());
  EXPECT_TRUE(fleet->stats().accounting_clean());
}

TEST(Serve, TunerPromotionUnderFailpointsKeepsFuturesResolving) {
  // Chaos leg: the persist path fails (records.save_fail) and scratch
  // allocation misbehaves (alloc.aligned_buffer) while the tuner promotes
  // — every future must still resolve, accounting must stay clean, and
  // the persist failure must be counted, not fatal.
  const std::string path = "/tmp/autogemm_serve_tuner_failpoint_test.txt";
  std::remove(path.c_str());
  const int m = 36, n = 44, k = 24;
  ShardedEngineOptions opts;
  opts.tuner.start_paused = true;
  opts.tuner.min_requests = 4;
  opts.tuner.records_path = path;
  const auto fleet = tuned_fleet(opts, m, n, k);

  // Operands are built *before* arming: the failpoints target the serving
  // and tuning paths, not the test fixture's own matrix allocations.
  std::vector<std::unique_ptr<Problem>> ps;
  for (int i = 0; i < 8; ++i)
    ps.push_back(std::make_unique<Problem>(m, n, k, 1000 + i));
  failpoint::arm("records.save_fail", 1);
  failpoint::arm("alloc.aligned_buffer", 3);
  std::vector<std::future<Status>> fs;
  for (auto& p : ps) fs.push_back(fleet->submit(p->request()));
  // Every future reaches a terminal state — ok or a clean error, never a
  // hang — whatever the failpoints did to the allocation path.
  for (auto& f : fs) (void)f.get();

  EXPECT_TRUE(fleet->online_tuner()->run_cycle());
  failpoint::disarm_all();
  const tune::OnlineTunerStats ts = fleet->online_tuner()->stats();
  EXPECT_EQ(ts.promotions, 1u);
  EXPECT_EQ(ts.persist_failures, 1u);
  EXPECT_TRUE(fleet->shard_context(0).has_exact_record(m, n, k));

  fleet->shutdown();
  EXPECT_TRUE(fleet->stats().accounting_clean());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace autogemm::serve
