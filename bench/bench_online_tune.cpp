// Online-tuning bench: what does the serving path gain from OnlineTuner,
// and what does concurrent tuning cost the dispatcher?
//
// Closed loop over one irregular "hot" shape (prime-ish dimensions, so the
// heuristic config is unlikely to be optimal and the divisor space is
// degenerate — exactly the serve traffic the online tuner exists for),
// three legs, each reporting per-request submit-to-completion latency:
//
//   baseline    — fleet without a tuner: the heuristic config forever.
//   concurrent  — fleet with the tuner enabled; traffic keeps flowing
//                 while the tuner discovers the hot shape and runs its
//                 budgeted wall-clock search beside the dispatcher. The
//                 p99 of this leg against baseline is the "tuning does
//                 not block serving" number.
//   tuned       — same fleet after the tuner settled (promoted or
//                 demoted): the steady state the process serves from
//                 then on. speedup_p50 vs baseline is the payoff when a
//                 searched config won; ~1.0 when the heuristic held.
//
// Promotion is real (wall-clock measurement, not a rigged model), so the
// outcome is host-dependent; the JSON reports promotions/demotions so a
// reader can tell which story the numbers tell. The CI smoke asserts a
// deterministic promotion through the CLI's model-cost path instead.
// Every leg serves through a one-shard serve::ShardedEngine, the tuner's
// owner.
//
//   build/bench/bench_online_tune [requests] [budget_ms]
//                                 [--json-out F] [--warmup W]
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"
#include "serve/router.hpp"
#include "tune/online_tuner.hpp"

namespace {

using namespace autogemm;

// Irregular hot shape: deliberately not divisor-friendly.
constexpr int kM = 67, kN = 75, kK = 43;

struct RequestSet {
  common::Matrix a, b, c;
  RequestSet() : a(kM, kK), b(kK, kN), c(kM, kN) {
    common::fill_random(a.view(), 17);
    common::fill_random(b.view(), 19);
  }
  serve::GemmRequest request() {
    c.set_zero();
    serve::GemmRequest r;
    r.a = a.view();
    r.b = b.view();
    r.c = c.view();
    r.lane = serve::Lane::kBulk;
    return r;
  }
};

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

/// One closed-loop request: submit, wait, return seconds.
double timed_request(serve::ShardedEngine& engine, RequestSet& reqs) {
  const std::uint64_t t0 = common::now_ns();
  const Status s = engine.submit(reqs.request()).get();
  const double sec = static_cast<double>(common::now_ns() - t0) * 1e-9;
  if (!s.ok()) std::fprintf(stderr, "request failed: %s\n", s.to_string().c_str());
  return sec;
}

std::string leg_json(const std::vector<double>& samples) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"requests\": %zu, \"p50_us\": %.2f, \"p99_us\": %.2f}",
                samples.size(), percentile(samples, 0.50) * 1e6,
                percentile(samples, 0.99) * 1e6);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace autogemm::bench;
  BenchArgs args = parse_args(argc, argv, /*default_warmup=*/20);
  const int requests = args.pos_int(0, 300);
  const int budget_ms = args.pos_int(1, 150);

  header("Online tuning: serving latency before / during / after");
  std::printf("shape %dx%dx%d, %d requests per leg, search budget %d ms\n",
              kM, kN, kK, requests, budget_ms);
  RequestSet reqs;

  // --- baseline: no tuner, heuristic config forever -----------------
  serve::ShardedEngineOptions sopts;
  sopts.shards = 1;
  sopts.context.threads = 1;
  std::vector<double> baseline;
  {
    const auto engine = serve::ShardedEngine::create(sopts).value();
    for (int i = 0; i < args.warmup; ++i) (void)timed_request(*engine, reqs);
    for (int i = 0; i < requests; ++i)
      baseline.push_back(timed_request(*engine, reqs));
    engine->shutdown();
  }
  subheader("baseline (heuristic)");
  std::printf("p50 %.2f us  p99 %.2f us\n", percentile(baseline, 0.5) * 1e6,
              percentile(baseline, 0.99) * 1e6);

  // --- concurrent: traffic while the tuner searches beside it -------
  sopts.enable_online_tuner = true;
  sopts.tuner.cycle_interval_ns = 10'000'000;  // 10 ms
  sopts.tuner.min_requests = 8;
  sopts.tuner.search_budget_ns =
      static_cast<std::uint64_t>(budget_ms) * 1'000'000ull;
  const auto fleet = serve::ShardedEngine::create(sopts).value();
  serve::ShardedEngine& engine = *fleet;
  std::vector<double> concurrent;
  const std::uint64_t settle_deadline = common::now_ns() + 30'000'000'000ull;
  int sent = 0;
  // Keep traffic flowing until the leg's quota is met AND the tuner has
  // finished at least one search, so the samples genuinely overlap the
  // search (plus a hard deadline in case the host is too slow to search).
  while (sent < requests ||
         (engine.online_tuner()->stats().searches == 0 &&
          common::now_ns() < settle_deadline)) {
    concurrent.push_back(timed_request(engine, reqs));
    ++sent;
    if (sent >= 4 * requests) break;  // bound the leg on pathological hosts
  }
  // Let an in-flight search finish so the "tuned" leg is steady-state.
  tune::OnlineTunerStats ts = engine.online_tuner()->stats();
  while (ts.searches > 0 && ts.promotions + ts.demotions == 0 &&
         common::now_ns() < settle_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ts = engine.online_tuner()->stats();
  }
  subheader("concurrent (tuner searching)");
  std::printf("p50 %.2f us  p99 %.2f us  searches=%llu promotions=%llu\n",
              percentile(concurrent, 0.5) * 1e6,
              percentile(concurrent, 0.99) * 1e6,
              static_cast<unsigned long long>(ts.searches),
              static_cast<unsigned long long>(ts.promotions));

  // --- tuned steady state -------------------------------------------
  engine.online_tuner()->pause();  // freeze: measure the settled config
  std::vector<double> tuned;
  for (int i = 0; i < args.warmup; ++i) (void)timed_request(engine, reqs);
  for (int i = 0; i < requests; ++i)
    tuned.push_back(timed_request(engine, reqs));
  ts = engine.online_tuner()->stats();
  engine.shutdown();
  subheader("tuned (settled)");
  const double speedup_p50 =
      percentile(tuned, 0.5) > 0
          ? percentile(baseline, 0.5) / percentile(tuned, 0.5)
          : 0.0;
  const double p99_ratio =
      percentile(baseline, 0.99) > 0
          ? percentile(concurrent, 0.99) / percentile(baseline, 0.99)
          : 0.0;
  std::printf("p50 %.2f us  p99 %.2f us  speedup_p50 %.2fx\n",
              percentile(tuned, 0.5) * 1e6, percentile(tuned, 0.99) * 1e6,
              speedup_p50);
  std::printf("concurrent p99 / baseline p99 = %.2f (dispatcher impact)\n",
              p99_ratio);

  char tail[512];
  std::snprintf(
      tail, sizeof(tail),
      "\"tuner\": {\"searches\": %llu, \"promotions\": %llu, "
      "\"demotions\": %llu, \"evaluations\": %llu, \"cycles\": %llu}, "
      "\"speedup_p50\": %.3f, \"concurrent_p99_over_baseline_p99\": %.3f",
      static_cast<unsigned long long>(ts.searches),
      static_cast<unsigned long long>(ts.promotions),
      static_cast<unsigned long long>(ts.demotions),
      static_cast<unsigned long long>(ts.evaluations),
      static_cast<unsigned long long>(ts.cycles), speedup_p50, p99_ratio);
  std::string json = "{\"bench\": \"online_tune\", \"shape\": {\"m\": " +
                     std::to_string(kM) + ", \"n\": " + std::to_string(kN) +
                     ", \"k\": " + std::to_string(kK) +
                     "}, \"budget_ms\": " + std::to_string(budget_ms) +
                     ", \"baseline\": " + leg_json(baseline) +
                     ", \"concurrent\": " + leg_json(concurrent) +
                     ", \"tuned\": " + leg_json(tuned) + ", " + tail + "}";
  write_json_file(args.json_out, with_metrics(json));
  return 0;
}
