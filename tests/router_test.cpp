// serve::ShardedEngine: routing determinism, bounded stealing, the
// router-owned tuner, per-shard failure isolation, merged hot-shape
// accounting, shard-labeled obs series and their family sums, the hw
// core-slice assignment, and the open-loop load generator.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.hpp"
#include "common/matrix.hpp"
#include "common/reference_gemm.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "serve/load_gen.hpp"
#include "serve/router.hpp"
#include "test_util.hpp"

namespace autogemm::serve {
namespace {

using common::Matrix;

struct Problem {
  Matrix a, b, c, c_ref;
  Problem(int m, int n, int k, int seed)
      : a(m, k), b(k, n), c(m, n), c_ref(m, n) {
    common::fill_random(a.view(), seed);
    common::fill_random(b.view(), seed + 1);
    common::reference_gemm(a.view(), b.view(), c_ref.view());
  }
  GemmRequest request(Lane lane = Lane::kBulk) {
    GemmRequest r;
    r.a = a.view();
    r.b = b.view();
    r.c = c.view();
    r.lane = lane;
    return r;
  }
  bool c_matches_ref() const {
    return common::max_rel_error(c.view(), c_ref.view()) <
           testutil::gemm_tolerance(a.cols());
  }
};

/// Serial contexts: the router behaviour under test is independent of
/// pool parallelism, and serial keeps every run reproducible.
ShardedEngineOptions base_opts(std::size_t shards = 2) {
  ShardedEngineOptions o;
  o.shards = shards;
  o.context.threads = 1;
  o.steal_imbalance_ratio = 0;  // deterministic home routing by default
  return o;
}

/// A deterministic stream of distinct shapes (the same stream every call).
std::vector<std::array<int, 3>> shape_stream() {
  std::vector<std::array<int, 3>> shapes;
  for (int i = 0; i < 16; ++i)
    shapes.push_back({5 + 3 * i, 7 + 2 * ((i * 5) % 11), 8 + (i % 6)});
  return shapes;
}

TEST(Router, ShardForIsPureAndStable) {
  auto se = ShardedEngine::create(base_opts(4)).value();
  auto se2 = ShardedEngine::create(base_opts(4)).value();
  std::set<std::size_t> used;
  for (const auto& s : shape_stream()) {
    const std::size_t home = se->shard_for(s[0], s[1], s[2]);
    EXPECT_LT(home, 4u);
    EXPECT_EQ(home, se->shard_for(s[0], s[1], s[2]));   // pure
    EXPECT_EQ(home, se2->shard_for(s[0], s[1], s[2]));  // instance-independent
    used.insert(home);
  }
  // FNV over 16 distinct shapes must actually spread (this is fixed for
  // all time by the hash, so the assertion is deterministic).
  EXPECT_GT(used.size(), 1u);
  se->shutdown();
  se2->shutdown();
}

TEST(Router, SameStreamSameSeedIdenticalAssignment) {
  // With stealing disabled, routing is a pure function of the stream:
  // two runs over the same stream land identical per-shard accounting.
  std::vector<ServerStats> per_shard[2];
  for (int run = 0; run < 2; ++run) {
    auto se = ShardedEngine::create(base_opts(2)).value();
    std::vector<std::unique_ptr<Problem>> ps;
    std::vector<std::future<Status>> fs;
    int seed = 100;
    for (const auto& s : shape_stream()) {
      ps.push_back(std::make_unique<Problem>(s[0], s[1], s[2], seed++));
      fs.push_back(se->submit(ps.back()->request()));
    }
    for (auto& f : fs) EXPECT_TRUE(f.get().ok());
    for (auto& p : ps) EXPECT_TRUE(p->c_matches_ref());
    EXPECT_TRUE(se->drain().ok());
    const ShardedStats ss = se->stats();
    EXPECT_TRUE(ss.accounting_clean());
    EXPECT_EQ(ss.steals, 0u);
    EXPECT_EQ(ss.routed, shape_stream().size());
    per_shard[run] = ss.shards;
  }
  ASSERT_EQ(per_shard[0].size(), per_shard[1].size());
  for (std::size_t i = 0; i < per_shard[0].size(); ++i) {
    EXPECT_EQ(per_shard[0][i].submitted, per_shard[1][i].submitted);
    EXPECT_EQ(per_shard[0][i].completed_ok, per_shard[1][i].completed_ok);
  }
}

TEST(Router, StealsUnderDispatcherStallAndStaysClean) {
  failpoint::disarm_all();
  ShardedEngineOptions o = base_opts(2);
  o.steal_imbalance_ratio = 2.0;
  o.steal_min_depth = 2;
  o.worker.max_batch_delay_ns = 0;
  common::ManualClock clock;  // shared by both shards
  o.worker.clock = &clock;
  auto se = ShardedEngine::create(o).value();
  Problem p0(8, 8, 8, 1);
  const std::size_t home = se->shard_for(8, 8, 8);
  // Budget 1: only the home dispatcher wakes (all traffic is one shape),
  // so it alone consumes the stall.
  failpoint::arm("serve.dispatcher_stall", 1);
  std::vector<std::unique_ptr<Problem>> ps;
  std::vector<std::future<Status>> fs;
  for (int i = 0; i < 32; ++i) {
    ps.push_back(std::make_unique<Problem>(8, 8, 8, 200 + i));
    fs.push_back(se->submit(ps.back()->request()));
  }
  // Engine time stands still until only the wedged shard holds work (the
  // healthy one has no pending work for the monitor to call stalled).
  // Then 1 s passes the wedged shard's 500 ms heartbeat timeout, and 1 ms
  // steps cover its restart backoff.
  ASSERT_TRUE(testutil::advance_until(clock, 0, [&] {
    return failpoint::hits("serve.dispatcher_stall") >= 1 &&
           (se->shard_engine(0).queue_depth() == 0) !=
               (se->shard_engine(1).queue_depth() == 0);
  }));
  clock.advance(1'000'000'000);
  ASSERT_TRUE(testutil::advance_until(clock, 1'000'000, [&] {
    return se->stats().aggregate.dispatcher_restarts >= 1;
  }));
  for (auto& f : fs) EXPECT_TRUE(f.get().ok());  // every future resolves
  EXPECT_GE(failpoint::hits("serve.dispatcher_stall"), 1);
  failpoint::disarm_all();
  for (auto& p : ps) EXPECT_TRUE(p->c_matches_ref());
  EXPECT_TRUE(se->drain().ok());
  const ShardedStats ss = se->stats();
  // The wedged home shard backed up past steal_min_depth while its peer
  // sat empty — the router must have diverted work.
  EXPECT_GE(ss.steals, 1u);
  EXPECT_GT(ss.shards[1 - home].submitted, 0u);
  EXPECT_TRUE(ss.accounting_clean());  // per shard AND aggregate
  for (const ServerStats& s : ss.shards) EXPECT_TRUE(s.accounting_clean());
}

TEST(Router, HotShapeCountsSumAcrossShards) {
  auto se = ShardedEngine::create(base_opts(2)).value();
  Problem pa(8, 8, 8, 1), pb(16, 12, 20, 2);
  std::vector<std::future<Status>> fs;
  for (int i = 0; i < 5; ++i) fs.push_back(se->submit(pa.request()));
  for (int i = 0; i < 3; ++i) fs.push_back(se->submit(pb.request()));
  for (auto& f : fs) EXPECT_TRUE(f.get().ok());
  const auto merged = se->hot_shapes();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].m, 8);
  EXPECT_EQ(merged[0].requests, 5u);
  EXPECT_EQ(merged[1].m, 16);
  EXPECT_EQ(merged[1].requests, 3u);
  // Regression: the merged count is exactly the sum of the per-shard
  // snapshots (nothing double-counted, nothing dropped).
  for (const auto& hs : merged) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < se->shards(); ++i)
      for (const auto& e : se->shard_engine(i).hot_shapes())
        if (e.m == hs.m && e.n == hs.n && e.k == hs.k) sum += e.requests;
    EXPECT_EQ(sum, hs.requests);
  }
  se->shutdown();
}

TEST(Router, MergeHotShapesSumsAndOrdersDeterministically) {
  std::vector<std::vector<tune::HotShape>> feeds = {
      {{8, 8, 8, 3}, {4, 4, 4, 9}},
      {{8, 8, 8, 2}, {16, 16, 16, 9}},
  };
  const auto merged = tune::merge_hot_shapes(feeds);
  ASSERT_EQ(merged.size(), 3u);
  // 4x4x4 and 16x16x16 tie at 9: ascending shape order breaks the tie.
  EXPECT_EQ(merged[0].m, 4);
  EXPECT_EQ(merged[1].m, 16);
  EXPECT_EQ(merged[2].m, 8);
  EXPECT_EQ(merged[2].requests, 5u);  // 3 + 2 summed across feeds
  EXPECT_EQ(tune::merge_hot_shapes(feeds, 2).size(), 2u);
}

TEST(Router, TunerPromotionFansOutToEveryShard) {
  const int m = 48, n = 56, k = 40;
  ShardedEngineOptions o = base_opts(2);
  o.enable_online_tuner = true;
  o.tuner.start_paused = true;  // the test drives run_cycle() itself
  o.tuner.min_requests = 1;
  // Rig the cost so the search must beat the incumbent; the incumbent's
  // config is only known after the contexts exist, hence the indirection.
  auto incumbent = std::make_shared<GemmConfig>();
  o.tuner.cost_override = [incumbent](const tune::Candidate& c, int, int,
                                      int) {
    return (c.mc == incumbent->mc && c.nc == incumbent->nc &&
            c.kc == incumbent->kc && c.loop_order == incumbent->loop_order &&
            c.packing == incumbent->packing)
               ? 2.0
               : 1.0;
  };
  auto se = ShardedEngine::create(o).value();
  ASSERT_NE(se->online_tuner(), nullptr);
  *incumbent = se->shard_context(0).plan_for(m, n, k)->config();
  Problem p(m, n, k, 7);
  EXPECT_TRUE(se->submit(p.request()).get().ok());
  EXPECT_TRUE(se->online_tuner()->run_cycle());
  // The promotion published into shard 0 (the tuner's bound context) and
  // fanned out to every sibling through on_promote.
  for (std::size_t i = 0; i < se->shards(); ++i)
    EXPECT_TRUE(se->shard_context(i).has_exact_record(m, n, k))
        << "shard " << i;
  se->shutdown();
}

TEST(Router, ShardDegradeStaysIsolated) {
  failpoint::disarm_all();
  ShardedEngineOptions o = base_opts(2);
  o.worker.max_batch_delay_ns = 0;
  o.worker.max_dispatcher_restarts = 0;  // first crash degrades the shard
  auto se = ShardedEngine::create(o).value();
  // Two shapes with different home shards (the stream is deterministic,
  // so this search is too).
  std::array<int, 3> sa{8, 8, 8}, sb{8, 8, 8};
  for (const auto& s : shape_stream()) {
    if (se->shard_for(s[0], s[1], s[2]) != se->shard_for(8, 8, 8)) {
      sb = s;
      break;
    }
  }
  ASSERT_NE(se->shard_for(sa[0], sa[1], sa[2]),
            se->shard_for(sb[0], sb[1], sb[2]));
  // Budget 1: exactly one dispatcher (the one woken by this request)
  // crashes; its shard must degrade inline while the sibling keeps its
  // dispatcher.
  failpoint::arm("serve.dispatcher_crash", 1);
  Problem p0(sa[0], sa[1], sa[2], 1);
  std::future<Status> f0 = se->submit(p0.request());
  const std::uint64_t deadline = common::now_ns() + 10'000'000'000ull;
  while (se->inline_shards() == 0 && common::now_ns() < deadline)
    std::this_thread::yield();
  failpoint::disarm_all();
  EXPECT_EQ(se->inline_shards(), 1u);
  EXPECT_TRUE(f0.get().ok());  // drained inline by the degrading monitor
  // Both shards still serve: the degraded one inline, the healthy one
  // through its dispatcher.
  Problem pa(sa[0], sa[1], sa[2], 2), pb(sb[0], sb[1], sb[2], 3);
  EXPECT_TRUE(se->submit(pa.request()).get().ok());
  EXPECT_TRUE(se->submit(pb.request()).get().ok());
  EXPECT_TRUE(pa.c_matches_ref());
  EXPECT_TRUE(pb.c_matches_ref());
  EXPECT_TRUE(se->drain().ok());
  EXPECT_EQ(se->inline_shards(), 1u);  // still only the one
  EXPECT_TRUE(se->stats().accounting_clean());
}

TEST(Router, ShardLabeledMetricsMirrorStats) {
  const obs::Registry& r = obs::default_registry();
  const auto submitted = [&](const char* shard) {
    return r.counter_total("autogemm_serve_submitted_total",
                           std::string("shard=\"") + shard + "\"");
  };
  const std::uint64_t sub0 = submitted("0");
  const std::uint64_t sub1 = submitted("1");
  const std::uint64_t routed0 = r.counter_total("autogemm_serve_routed_total");
  const std::uint64_t steals0 = r.counter_total("autogemm_serve_steals_total");
  auto se = ShardedEngine::create(base_opts(2)).value();
  std::vector<std::unique_ptr<Problem>> ps;
  std::vector<std::future<Status>> fs;
  int seed = 300;
  for (const auto& s : shape_stream()) {
    ps.push_back(std::make_unique<Problem>(s[0], s[1], s[2], seed++));
    fs.push_back(se->submit(ps.back()->request()));
  }
  for (auto& f : fs) EXPECT_TRUE(f.get().ok());
  EXPECT_TRUE(se->drain().ok());
  const ShardedStats ss = se->stats();
  // Each shard's series (summed over lanes) advanced by exactly what the
  // per-shard stats report.
  EXPECT_EQ(submitted("0") - sub0, ss.shards[0].submitted);
  EXPECT_EQ(submitted("1") - sub1, ss.shards[1].submitted);
  EXPECT_EQ(r.counter_total("autogemm_serve_routed_total") - routed0,
            ss.routed);
  EXPECT_EQ(r.counter_total("autogemm_serve_steals_total") - steals0,
            ss.steals);
  // The per-shard depth series read empty after the drain.
  EXPECT_EQ(r.gauge_total("autogemm_serve_queue_depth", "shard=\"0\""), 0.0);
  EXPECT_EQ(r.gauge_total("autogemm_serve_queue_depth", "shard=\"1\""), 0.0);
}

TEST(Router, QueueDepthGaugeSumsAcrossShards) {
  // Every engine moves the depth family by its own deltas, so the family
  // sum is the fleet's total depth, not the last writer's.
  const obs::Registry& r = obs::default_registry();
  const double depth0 = r.gauge_total("autogemm_serve_queue_depth");
  ShardedEngineOptions o = base_opts(2);
  o.worker.start_paused = true;
  auto se = ShardedEngine::create(o).value();
  // One shape homed on each shard (the stream is deterministic, so this
  // search is too).
  std::array<std::array<int, 3>, 2> homed{};
  std::array<bool, 2> found{};
  for (const auto& s : shape_stream()) {
    const std::size_t home = se->shard_for(s[0], s[1], s[2]);
    if (!found[home]) homed[home] = s;
    found[home] = true;
  }
  ASSERT_TRUE(found[0] && found[1]);
  std::vector<std::unique_ptr<Problem>> ps;
  std::vector<std::future<Status>> fs;
  for (int i = 0; i < 4; ++i) {
    const std::array<int, 3>& s = homed[i < 3 ? 0 : 1];
    ps.push_back(std::make_unique<Problem>(s[0], s[1], s[2], 40 + i));
    fs.push_back(se->submit(ps.back()->request()));
  }
  EXPECT_EQ(se->shard_engine(0).queue_depth(), 3u);
  EXPECT_EQ(se->shard_engine(1).queue_depth(), 1u);
  EXPECT_EQ(r.gauge_total("autogemm_serve_queue_depth") - depth0, 4.0);
  se->shutdown();
  for (auto& f : fs) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(r.gauge_total("autogemm_serve_queue_depth") - depth0, 0.0);
}

TEST(LoadGen, ScheduleIsDeterministicAndMonotonic) {
  LoadGenOptions o;
  o.offered_rps = 4000;
  o.requests = 64;
  o.arrivals = ArrivalProcess::kFixedRate;
  const auto fixed = arrival_offsets_ns(o);
  ASSERT_EQ(fixed.size(), 64u);
  EXPECT_EQ(fixed[0], 0u);
  EXPECT_EQ(fixed[4], 4u * 250'000u);  // 4000/s = 250us gaps
  o.arrivals = ArrivalProcess::kPoisson;
  o.seed = 7;
  const auto a = arrival_offsets_ns(o);
  const auto b = arrival_offsets_ns(o);
  EXPECT_EQ(a, b);  // same seed, same schedule, byte for byte
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i], a[i - 1]);
  o.seed = 8;
  EXPECT_NE(arrival_offsets_ns(o), a);  // a different experiment
}

TEST(LoadGen, OpenLoopRunAccountsForEveryRequest) {
  ShardedEngineOptions o = base_opts(2);
  o.worker.max_batch_delay_ns = 0;
  auto se = ShardedEngine::create(o).value();
  LoadGenOptions lo;
  lo.offered_rps = 2000;
  lo.requests = 100;
  lo.seed = 3;
  const std::vector<LoadShape> shapes = {{8, 8, 8, 3.0}, {16, 12, 20, 1.0}};
  const LoadReport rep = run_open_loop(
      [&](const GemmRequest& req, std::function<void(Status)> done) {
        se->submit(req, std::move(done));
      },
      shapes, lo);
  EXPECT_EQ(rep.unresolved, 0u);
  const LaneOutcomes& i = rep.interactive;
  const LaneOutcomes& b = rep.bulk;
  EXPECT_EQ(i.submitted + b.submitted, 100u);
  EXPECT_EQ(i.ok + i.shed + i.rejected + i.expired + i.errors, i.submitted);
  EXPECT_EQ(b.ok + b.shed + b.rejected + b.expired + b.errors, b.submitted);
  EXPECT_GT(rep.total_ok(), 0u);
  EXPECT_GT(rep.goodput_rps, 0.0);
  EXPECT_FALSE(rep.summary().empty());
  EXPECT_TRUE(se->drain().ok());
  EXPECT_TRUE(se->stats().accounting_clean());
}

}  // namespace
}  // namespace autogemm::serve
