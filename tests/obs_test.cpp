// obs subsystem: metric exactness under concurrency, histogram bucket
// geometry, exporter formats, span ring semantics, and the integration
// paths (Context counters, sim virtual timeline). The tracer is process
// state shared with other suites, so every tracing test runs through
// TraceFixture, which saves and restores the enabled flag and lane
// capacity and clears retained spans on both sides.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "codegen/generator.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"
#include "dnn/transformer.hpp"
#include "hw/chip_database.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/pipeline.hpp"

namespace autogemm {
namespace {

// ---------------------------------------------------------------- metrics

TEST(ObsCounter, ConcurrentIncrementsSumExactly) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add(1);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsCounter, DeltaAddsAccumulate) {
  obs::Counter c;
  c.add(5);
  c.add(0);
  c.add(37);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ObsGauge, LastWriteWins) {
  obs::Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_EQ(g.value(), 1.5);
  g.set(7.0);
  EXPECT_EQ(g.value(), 7.0);
}

TEST(ObsHistogram, BucketBoundariesAreExactPowersOfTwo) {
  obs::Histogram h(1e-6);
  // Bucket i spans (scale*2^(i-1), scale*2^i]: a value exactly on a bound
  // belongs to that bucket, one ulp above belongs to the next.
  EXPECT_EQ(h.bucket_index(1e-6), 0);
  EXPECT_EQ(h.bucket_index(std::nextafter(1e-6, 1.0)), 1);
  EXPECT_EQ(h.bucket_index(2e-6), 1);
  EXPECT_EQ(h.bucket_index(4e-6), 2);
  // Below scale and degenerate values collapse into bucket 0.
  EXPECT_EQ(h.bucket_index(1e-9), 0);
  EXPECT_EQ(h.bucket_index(0.0), 0);
  EXPECT_EQ(h.bucket_index(-3.0), 0);
  // Beyond the covered range everything lands in the last bucket.
  EXPECT_EQ(h.bucket_index(1e12), obs::Histogram::kBuckets - 1);
  EXPECT_TRUE(std::isinf(h.bucket_bound(obs::Histogram::kBuckets - 1)));
  EXPECT_DOUBLE_EQ(h.bucket_bound(0), 1e-6);
  EXPECT_DOUBLE_EQ(h.bucket_bound(10), 1e-6 * 1024);
}

TEST(ObsHistogram, ObserveCountsAndSums) {
  obs::Histogram h(1e-6);
  h.observe(1e-6);
  h.observe(3e-6);   // bucket 2: (2e-6, 4e-6]
  h.observe(3.5e-6);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_NEAR(s.sum, 7.5e-6, 1e-12);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[2], 2u);
}

TEST(ObsHistogram, SnapshotsMergeAndQuantile) {
  obs::Histogram a(1e-6), b(1e-6);
  for (int i = 0; i < 90; ++i) a.observe(1.5e-6);  // bucket 1
  for (int i = 0; i < 10; ++i) b.observe(100e-6);  // far tail
  auto sa = a.snapshot();
  sa.merge(b.snapshot());
  EXPECT_EQ(sa.count, 100u);
  // p50 sits in the dense bucket; p99 must reach the tail bucket's bound.
  EXPECT_LE(sa.quantile(0.5), 2e-6);
  EXPECT_GE(sa.quantile(0.99), 100e-6);
}

TEST(ObsRegistry, HandlesAreStableAndNamed) {
  obs::Registry r;
  obs::Counter& c1 = r.counter("test_total");
  c1.add(3);
  obs::Counter& c2 = r.counter("test_total");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(c2.value(), 3u);
  EXPECT_EQ(r.counter_count(), 1u);
  r.histogram("test_seconds").observe(5e-6);
  EXPECT_EQ(r.histogram_count(), 1u);
}

TEST(ObsRegistry, PrometheusTextExposition) {
  obs::Registry r;
  r.counter("demo_total{kind=\"x\"}").add(2);
  r.gauge("demo_gauge").set(1.5);
  r.histogram("demo_seconds").observe(3e-6);
  const std::string text = r.prometheus_text();
  EXPECT_NE(text.find("# TYPE demo_total counter"), std::string::npos);
  EXPECT_NE(text.find("demo_total{kind=\"x\"} 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("demo_seconds_bucket{le="), std::string::npos);
  EXPECT_NE(text.find("demo_seconds_count 1"), std::string::npos);
  // Cumulative buckets must end at +Inf.
  EXPECT_NE(text.find("le=\"+Inf\"} 1"), std::string::npos);
}

TEST(ObsRegistry, FamilyTotalsSumEverySeries) {
  obs::Registry r;
  r.counter("req_total{lane=\"a\",shard=\"0\"}").add(2);
  r.counter("req_total{lane=\"b\",shard=\"0\"}").add(3);
  r.counter("req_total{lane=\"a\",shard=\"1\"}").add(5);
  r.counter("req_total_other").add(100);  // a longer family, not a series
  EXPECT_EQ(r.counter_total("req_total"), 10u);
  EXPECT_EQ(r.counter_total("req_total", "lane=\"a\""), 7u);

  r.gauge("depth{shard=\"0\"}").add(3);
  r.gauge("depth{shard=\"1\"}").add(1);
  r.gauge("depth{shard=\"1\"}").add(-0.5);
  EXPECT_DOUBLE_EQ(r.gauge_total("depth"), 3.5);

  r.histogram("lat_seconds{lane=\"a\"}").observe(1e-6);
  r.histogram("lat_seconds{lane=\"b\"}").observe(8e-6);
  r.histogram("lat_seconds{lane=\"b\"}").observe(8e-6);
  const obs::Histogram::Snapshot h = r.histogram_total("lat_seconds");
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.sum, 17e-6);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[3], 2u);
  EXPECT_EQ(r.histogram_total("lat_seconds", "lane=\"b\"").count, 2u);
}

TEST(ObsRegistry, FamilyFilterMatchesWholeLabelsOnly) {
  obs::Registry r;
  r.counter("f_total{shard=\"1\"}").add(1);
  r.counter("f_total{shard=\"10\"}").add(10);
  r.counter("f_total{xshard=\"1\"}").add(100);
  r.counter("f_total{shard=\"1x\"}").add(1000);
  EXPECT_EQ(r.counter_total("f_total", "shard=\"1\""), 1u);
  EXPECT_EQ(r.counter_total("f_total", "shard=\"10\""), 10u);
  EXPECT_EQ(r.counter_total("f_total", "hard=\"1\""), 0u);
}

TEST(ObsRegistry, FamilyFilterTakesSeveralLabelsInAnyOrder) {
  obs::Registry r;
  r.counter("m_total{result=\"ok\",shard=\"0\"}").add(1);
  r.counter("m_total{result=\"ok\",shard=\"1\"}").add(2);
  r.counter("m_total{result=\"error\",shard=\"1\"}").add(4);
  EXPECT_EQ(r.counter_total("m_total", "result=\"ok\",shard=\"1\""), 2u);
  EXPECT_EQ(r.counter_total("m_total", "shard=\"1\",result=\"ok\""), 2u);
  EXPECT_EQ(r.counter_total("m_total", "shard=\"1\""), 6u);
  EXPECT_EQ(r.counter_total("m_total", "result=\"ok\",shard=\"2\""), 0u);
}

TEST(ObsRegistry, AbsentFamilyReadsZeroWithoutCreatingIt) {
  obs::Registry r;
  EXPECT_EQ(r.counter_total("none_total"), 0u);
  EXPECT_EQ(r.gauge_total("none"), 0.0);
  EXPECT_EQ(r.histogram_total("none_seconds").count, 0u);
  EXPECT_EQ(r.counter_count(), 0u);
  EXPECT_EQ(r.histogram_count(), 0u);
  EXPECT_TRUE(r.prometheus_text().empty());
}

TEST(ObsRegistry, JsonSnapshotHasAllSections) {
  obs::Registry r;
  r.counter("j_total").add(7);
  r.gauge("j_gauge").set(2.0);
  r.histogram("j_seconds").observe(1e-5);
  const std::string j = r.json();
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"j_total\": 7"), std::string::npos);
  EXPECT_NE(j.find("\"gauges\""), std::string::npos);
  EXPECT_NE(j.find("\"histograms\""), std::string::npos);
  EXPECT_NE(j.find("\"buckets\""), std::string::npos);
}

// ---------------------------------------------------------------- tracing

class TraceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::trace_enabled();
    old_capacity_ = obs::Tracer::instance().lane_capacity();
    obs::set_trace_enabled(false);
    obs::Tracer::instance().clear();
  }
  void TearDown() override {
    obs::set_trace_enabled(false);
    obs::Tracer::instance().clear();
    obs::Tracer::instance().set_lane_capacity(old_capacity_);
    obs::set_trace_enabled(was_enabled_);
  }
  bool was_enabled_ = false;
  std::size_t old_capacity_ = 0;
};

using ObsTrace = TraceFixture;

TEST_F(ObsTrace, DisabledModeRecordsNothing) {
  {
    obs::SpanScope s("should.not.appear", 1, 2);
    obs::SpanScope inner("also.not");
  }
  EXPECT_EQ(obs::Tracer::instance().span_count(), 0u);
  EXPECT_EQ(obs::Tracer::instance().active_lane_count(), 0u);
  const std::string j = obs::Tracer::instance().chrome_json();
  EXPECT_EQ(j.find("should.not.appear"), std::string::npos);
}

TEST_F(ObsTrace, NestedSpansCarryDepthAndNames) {
  obs::set_trace_enabled(true);
  {
    obs::SpanScope outer("outer", 11, 22);
    {
      obs::SpanScope inner("inner");
    }
  }
  EXPECT_EQ(obs::Tracer::instance().span_count(), 2u);
  EXPECT_EQ(obs::Tracer::instance().active_lane_count(), 1u);
  const std::string j = obs::Tracer::instance().chrome_json();
  EXPECT_NE(j.find("\"outer\""), std::string::npos);
  EXPECT_NE(j.find("\"inner\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\": \"X\""), std::string::npos);
  // The span args travel into the export.
  EXPECT_NE(j.find("\"arg0\": 11"), std::string::npos);
}

TEST_F(ObsTrace, RingKeepsOnlyTheLastCapacitySpans) {
  obs::Tracer::instance().set_lane_capacity(8);
  obs::Tracer::instance().clear();  // rebuild this lane at the new capacity
  obs::set_trace_enabled(true);
  for (int i = 0; i < 20; ++i) {
    obs::SpanScope s("wrap", static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(obs::Tracer::instance().span_count(), 8u);
  // The survivors are the *last* 8 (args 12..19): arg0 12 present, 5 gone.
  const std::string j = obs::Tracer::instance().chrome_json();
  EXPECT_NE(j.find("\"arg0\": 19"), std::string::npos);
  EXPECT_EQ(j.find("\"arg0\": 5,"), std::string::npos);
}

TEST_F(ObsTrace, ClearDropsSpansAndLaneRecordsAgain) {
  obs::set_trace_enabled(true);
  { obs::SpanScope s("before"); }
  EXPECT_EQ(obs::Tracer::instance().span_count(), 1u);
  obs::Tracer::instance().clear();
  EXPECT_EQ(obs::Tracer::instance().span_count(), 0u);
  { obs::SpanScope s("after"); }
  EXPECT_EQ(obs::Tracer::instance().span_count(), 1u);
  const std::string j = obs::Tracer::instance().chrome_json();
  EXPECT_EQ(j.find("\"before\""), std::string::npos);
  EXPECT_NE(j.find("\"after\""), std::string::npos);
}

TEST_F(ObsTrace, VirtualSpanExportsOnSimPid) {
  obs::set_trace_enabled(true);
  obs::emit_virtual_span("sim-kernel", "virtual.work", 10.0, 5.0);
  const std::string j = obs::Tracer::instance().chrome_json();
  EXPECT_NE(j.find("\"virtual.work\""), std::string::npos);
  EXPECT_NE(j.find("\"sim-kernel\""), std::string::npos);
  EXPECT_NE(j.find("\"pid\": 2"), std::string::npos);
}

TEST_F(ObsTrace, WorkerLaneNaming) {
  obs::set_trace_enabled(true);
  obs::name_this_lane_worker(/*slot=*/3, /*participants=*/5);
  { obs::SpanScope s("named"); }
  const std::string j = obs::Tracer::instance().chrome_json();
  EXPECT_NE(j.find("\"worker-3\""), std::string::npos);
  obs::name_this_lane_worker(/*slot=*/4, /*participants=*/5);
  EXPECT_NE(obs::Tracer::instance().chrome_json().find("\"caller\""),
            std::string::npos);
}

// ----------------------------------------------------------- integration

TEST_F(ObsTrace, ContextRunFeedsDefaultRegistry) {
  const obs::Registry& reg = obs::default_registry();
  const auto serial = [&] {
    return reg.counter_total("autogemm_strategy_total",
                             "strategy=\"serial\"");
  };
  const std::uint64_t calls0 = reg.counter_total("autogemm_gemm_calls_total");
  const std::uint64_t serial0 = serial();
  const std::uint64_t flops0 = reg.counter_total("autogemm_gemm_flops_total");
  const std::uint64_t seconds0 =
      reg.histogram_total("autogemm_gemm_seconds").count;

  ContextOptions opts;
  opts.threads = 1;
  Context ctx(opts);
  const int m = 24, n = 20, k = 16;
  common::Matrix a(m, k), b(k, n), c(m, n);
  common::fill_random(a.view(), 1);
  common::fill_random(b.view(), 2);
  ASSERT_TRUE(ctx.run(a.view(), b.view(), c.view()).ok());
  ASSERT_TRUE(ctx.run(a.view(), b.view(), c.view()).ok());

  EXPECT_EQ(reg.counter_total("autogemm_gemm_calls_total"), calls0 + 2);
  EXPECT_EQ(serial(), serial0 + 2);
  EXPECT_EQ(reg.counter_total("autogemm_gemm_flops_total"),
            flops0 + 2ull * 2 * m * n * k);
  // One latency observation per call, on the {shape,dtype} series only.
  EXPECT_EQ(reg.histogram_total("autogemm_gemm_seconds").count, seconds0 + 2);
  const std::string prom = reg.prometheus_text();
  EXPECT_NE(prom.find("shape=\"24x20x16\""), std::string::npos);
  EXPECT_EQ(prom.find("autogemm_gemm_seconds_count "), std::string::npos);
}

TEST_F(ObsTrace, TracedContextRunEmitsPhaseSpans) {
  obs::set_trace_enabled(true);
  ContextOptions opts;
  opts.threads = 1;
  Context ctx(opts);
  ASSERT_TRUE(obs::trace_enabled());
  obs::Tracer::instance().clear();
  // N*K must clear the plan's packing threshold (64*64) so the pack_a /
  // pack_b sites actually run (small-N shapes skip packing by design).
  const int m = 80, n = 80, k = 80;
  common::Matrix a(m, k), b(k, n), c(m, n);
  common::fill_random(a.view(), 3);
  common::fill_random(b.view(), 4);
  ASSERT_TRUE(ctx.run(a.view(), b.view(), c.view()).ok());
  const std::string j = obs::Tracer::instance().chrome_json();
  EXPECT_NE(j.find("\"context.run\""), std::string::npos);
  EXPECT_NE(j.find("\"context.execute\""), std::string::npos);
  EXPECT_NE(j.find("\"gemm.serial\""), std::string::npos);
  EXPECT_NE(j.find("\"kernel\""), std::string::npos);
  EXPECT_NE(j.find("\"pack_a\""), std::string::npos);
  EXPECT_NE(j.find("\"pack_b\""), std::string::npos);
}

TEST_F(ObsTrace, PooledInt8RunRecordsTasksOnWorkerLanes) {
  obs::set_trace_enabled(true);
  ContextOptions opts;
  opts.threads = 3;
  Context ctx(opts);
  obs::Tracer::instance().clear();
  // A prefill-sized FFN GEMM: 16 column tasks of about 75 us each, so the
  // workers wake long before the caller could run them all; repeat a few
  // calls in case a loaded host delays them anyway.
  const int m = 51, n = 3072, k = 768;
  common::Matrix a(m, k), b(k, n), c(m, n);
  common::fill_random(a.view(), 5);
  common::fill_random(b.view(), 6);
  for (int call = 0; call < 20 && obs::Tracer::instance().active_lane_count() < 2;
       ++call)
    ASSERT_TRUE(ctx.run_const_b_i8(a.view(), b.view(), c.view(), 1, 0).ok());
  EXPECT_GE(obs::Tracer::instance().active_lane_count(), 2u);
  const std::string j = obs::Tracer::instance().chrome_json();
  EXPECT_NE(j.find("\"qgemm.tasks\""), std::string::npos);
  EXPECT_NE(j.find("\"qgemm.task\""), std::string::npos);
  EXPECT_NE(j.find("\"worker-"), std::string::npos);
}

TEST_F(ObsTrace, TransformerForwardSplitsGlueFromGemms) {
  obs::set_trace_enabled(true);
  dnn::TransformerConfig cfg;
  cfg.d_model = 32;
  cfg.n_heads = 2;
  cfg.d_ff = 64;
  const dnn::TransformerBlock block(cfg);
  Context ctx(ContextOptions{});
  common::Matrix x(5, 32), y(5, 32);
  common::fill_random(x.view(), 9);
  obs::Tracer::instance().clear();
  ASSERT_TRUE(block.forward(x.view(), y.view(), ctx).ok());
  const std::string j = obs::Tracer::instance().chrome_json();
  for (const char* name : {"\"dnn.layernorm\"", "\"dnn.softmax\"",
                           "\"dnn.gelu\"", "\"context.run\""})
    EXPECT_NE(j.find(name), std::string::npos) << name;
}

TEST_F(ObsTrace, SimulatorEmitsVirtualTimeline) {
  obs::set_trace_enabled(true);
  obs::Tracer::instance().clear();
  const int kc = 16;
  const auto mk = codegen::generate_microkernel(5, 16, kc, 4);
  auto hw = hw::chip_model(hw::Chip::kReference);
  sim::SimOptions sopts;
  sopts.lda = codegen::padded_k_a(kc, 4);
  sopts.ldb = 16;
  sopts.ldc = 16;
  sopts.mainloop_begin = mk.mainloop_begin;
  sopts.epilogue_begin = mk.epilogue_begin;
  sim::SimStats stats;
  ASSERT_TRUE(sim::simulate_checked(mk.program, hw, sopts, stats).ok());
  const std::string j = obs::Tracer::instance().chrome_json();
  EXPECT_NE(j.find("\"sim.simulate\""), std::string::npos);
  EXPECT_NE(j.find("\"prologue\""), std::string::npos);
  EXPECT_NE(j.find("\"mainloop\""), std::string::npos);
  EXPECT_NE(j.find("\"epilogue\""), std::string::npos);
  EXPECT_NE(j.find("\"sim-kernel\""), std::string::npos);
}

}  // namespace
}  // namespace autogemm
