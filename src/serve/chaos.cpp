#include "serve/chaos.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <string_view>
#include <thread>
#include <utility>

#include "common/failpoint.hpp"
#include "common/matrix.hpp"
#include "common/timer.hpp"
#include "core/context.hpp"
#include "serve/router.hpp"

namespace autogemm::serve {

namespace {

/// splitmix64 — the harness's only randomness source, so every draw is a
/// pure function of the seed.
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// U[0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }
  bool chance(double p) { return uniform() < p; }
};

/// One shape bucket: shared constant operands plus the double-accumulated
/// reference product (the same accumulation order core's reference tier
/// uses, so a reference-pinned context matches it bitwise and the kernel
/// tiers match it to float rounding).
struct ShapeBucket {
  int m, n, k;
  common::Matrix a, b, ref;
};

void fill(common::Matrix& mat, Rng& rng) {
  for (int r = 0; r < mat.rows(); ++r)
    for (int c = 0; c < mat.cols(); ++c)
      mat.at(r, c) = static_cast<float>(rng.uniform() * 2.0 - 1.0);
}

ShapeBucket make_bucket(int m, int n, int k, Rng& rng) {
  ShapeBucket s{m, n, k, common::Matrix(m, k), common::Matrix(k, n),
                common::Matrix(m, n)};
  fill(s.a, rng);
  fill(s.b, rng);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int p = 0; p < k; ++p)
        acc += static_cast<double>(s.a.at(i, p)) *
               static_cast<double>(s.b.at(p, j));
      s.ref.at(i, j) = static_cast<float>(acc);
    }
  }
  return s;
}

/// One prebuilt request: its own C (allocated before any failpoint arms,
/// so injected allocation faults hit the library, not the harness).
struct ChaosReq {
  int shape = 0;
  Lane lane = Lane::kBulk;
  std::uint64_t deadline_rel_ns = 0;  ///< 0 = none; relative to submit time
  bool use_retry = false;
  std::uint64_t pace_ns = 0;  ///< sleep before submitting
  common::Matrix c;
  Status result{StatusCode::kInternal, "chaos: request never resolved"};
  bool resolved = false;
};

constexpr const char* kChaosFailpoints[] = {
    "serve.queue_full",       "serve.execute",
    "alloc.aligned_buffer",   "verify.portable",
    "threadpool.spawn",       "serve.dispatcher_crash",
    "serve.dispatcher_stall",
};
constexpr std::size_t kVerifySite = 3;
static_assert(std::string_view(kChaosFailpoints[kVerifySite]) ==
              "verify.portable");

/// Per-round arming probability and hit-budget range for each site above
/// (order matches kChaosFailpoints).
struct Arm {
  double p;
  long budget_lo, budget_hi;
};
const Arm kArms[] = {
    {0.50, 1, 8},  // serve.queue_full
    {0.35, 1, 4},  // serve.execute
    {0.25, 1, 3},  // alloc.aligned_buffer
    {0.15, 1, 1},  // verify.portable
    {0.20, 1, 1},  // threadpool.spawn
    {0.25, 1, 1},  // serve.dispatcher_crash
    {0.20, 1, 1},  // serve.dispatcher_stall
};

bool c_is_untouched(const common::Matrix& c) {
  for (int i = 0; i < c.rows(); ++i)
    for (int j = 0; j < c.cols(); ++j)
      if (c.at(i, j) != 0.0f) return false;
  return true;
}

}  // namespace

std::string ChaosReport::summary() const {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "seed=%llu shards=%d steals=%llu resolved=%llu ok=%llu "
      "transient=%llu expired=%llu errors=%llu faults_fired=%llu "
      "restarts=%llu crashes=%llu stalls=%llu breaker_opens=%llu "
      "inline=%d violations=%zu",
      static_cast<unsigned long long>(seed), shards,
      static_cast<unsigned long long>(steals),
      static_cast<unsigned long long>(resolved),
      static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(transient),
      static_cast<unsigned long long>(expired),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(failpoint_hits),
      static_cast<unsigned long long>(stats.dispatcher_restarts),
      static_cast<unsigned long long>(stats.dispatcher_crashes),
      static_cast<unsigned long long>(stats.dispatcher_stalls),
      static_cast<unsigned long long>(stats.breaker_opens),
      degraded_inline ? 1 : 0, violations.size());
  return buf;
}

ChaosReport run_chaos(const ChaosOptions& opts) {
  ChaosReport rep;
  rep.seed = opts.seed;
  // Start from a hash of the seed: splitmix64 steps its state by a fixed
  // increment, so states seed * increment + c made seed s + 1 the stream of
  // seed s one draw ahead, and after the fixture's data-dependent draws
  // neighbouring seeds drew the same engine options.
  Rng rng(Rng(opts.seed).next());

  failpoint::disarm_all();  // a clean slate regardless of the caller

  // --- fixture: shapes, goldens, requests — all allocated up front ---
  std::vector<ShapeBucket> shapes;
  shapes.push_back(make_bucket(8, 8, 8, rng));
  shapes.push_back(make_bucket(16, 12, 20, rng));
  shapes.push_back(make_bucket(5, 7, 9, rng));
  shapes.push_back(make_bucket(24, 24, 8, rng));

  const int submitters = std::max(1, opts.submitters);
  const int per_submitter = std::max(1, opts.requests_per_submitter);
  std::vector<std::vector<ChaosReq>> work(submitters);
  for (auto& reqs : work) {
    reqs.reserve(per_submitter);
    for (int i = 0; i < per_submitter; ++i) {
      ChaosReq r;
      r.shape = static_cast<int>(rng.below(shapes.size()));
      r.lane = rng.chance(0.4) ? Lane::kInteractive : Lane::kBulk;
      if (rng.chance(0.25))
        r.deadline_rel_ns = 200'000 + rng.below(2'000'000);
      r.use_retry = rng.chance(0.3);
      if (rng.chance(0.25)) r.pace_ns = 50'000 + rng.below(150'000);
      const ShapeBucket& s = shapes[static_cast<std::size_t>(r.shape)];
      r.c = common::Matrix(s.m, s.n);
      reqs.push_back(std::move(r));
    }
  }

  // --- fleet + contexts, options drawn from the seed ---
  // One front door for every fleet size: each worker gets the drawn
  // EngineOptions (stealing at the router defaults), so a sharded seed
  // stresses the same failure schedule through the router.
  ShardedEngineOptions sopts;
  sopts.shards = static_cast<std::size_t>(std::max(1, opts.shards));
  sopts.context.threads = 1;  // serial: the chaos is in the serving layer
  // Fail every first-use probe for this seed: every config quarantines and
  // each shape lands on the reference pin while serving — correctness must
  // survive that too. The site stays armed across the controller's rounds.
  const bool fail_every_probe = rng.chance(0.3);
  if (fail_every_probe) failpoint::arm(kChaosFailpoints[kVerifySite]);
  EngineOptions& eopts = sopts.worker;
  const std::size_t caps[] = {8, 16, 32};
  eopts.queue_capacity = caps[rng.below(3)];
  eopts.max_batch = rng.chance(0.5) ? 4 : 8;
  eopts.max_batch_delay_ns = 100'000;
  eopts.bulk_aging_ns = 0;
  eopts.supervision_interval_ns = 500'000;
  eopts.heartbeat_timeout_ns = 5'000'000;
  eopts.stall_inject_ns = 20'000'000;  // well past the heartbeat timeout
  eopts.restart_backoff_ns = 100'000;
  eopts.restart_backoff_max_ns = 2'000'000;
  const std::uint32_t restart_budgets[] = {2, 4, 8};
  eopts.max_dispatcher_restarts = restart_budgets[rng.below(3)];
  eopts.breaker_failure_threshold = 3;
  eopts.breaker_cooldown_ns = 2'000'000;
  const double retry_buckets[] = {0.0, 16.0, 64.0};
  eopts.retry_budget_tokens = retry_buckets[rng.below(3)];
  rep.shards = static_cast<int>(sopts.shards);
  auto made = ShardedEngine::create(sopts);
  if (!made.ok()) {
    rep.violations.push_back("engine construction failed: " +
                             made.status().to_string());
    return rep;
  }
  const std::unique_ptr<ShardedEngine> fleet = std::move(made).value();

  // --- controller: seeded failpoint schedule until the workload ends ---
  // Sites disarm one by one (disarm_all would also drop the pinned probe
  // site); hit counters survive disarm, so they are summed once at the end.
  std::atomic<bool> workload_done{false};
  std::thread controller([&] {
    Rng crng(opts.seed ^ 0xA5A5A5A55A5A5A5Aull);
    const auto pinned = [&](std::size_t i) {
      return fail_every_probe && i == kVerifySite;
    };
    while (!workload_done.load(std::memory_order_relaxed)) {
      for (std::size_t i = 0; i < std::size(kChaosFailpoints); ++i) {
        if (crng.chance(kArms[i].p)) {
          const long budget =
              kArms[i].budget_lo +
              static_cast<long>(crng.below(static_cast<std::uint64_t>(
                  kArms[i].budget_hi - kArms[i].budget_lo + 1)));
          if (!pinned(i)) failpoint::arm(kChaosFailpoints[i], budget);
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(
          800 + crng.below(1200)));
      for (std::size_t i = 0; i < std::size(kChaosFailpoints); ++i)
        if (!pinned(i)) failpoint::disarm(kChaosFailpoints[i]);
      std::this_thread::sleep_for(std::chrono::microseconds(
          200 + crng.below(600)));
    }
  });

  // --- submitters ---
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(submitters));
  for (int t = 0; t < submitters; ++t) {
    threads.emplace_back([&, t] {
      Rng prng(opts.seed * 1000003ull + static_cast<std::uint64_t>(t));
      std::vector<std::pair<std::size_t, std::future<Status>>> futures;
      auto& reqs = work[static_cast<std::size_t>(t)];
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        ChaosReq& r = reqs[i];
        if (r.pace_ns != 0)
          std::this_thread::sleep_for(std::chrono::nanoseconds(r.pace_ns));
        const ShapeBucket& s = shapes[static_cast<std::size_t>(r.shape)];
        GemmRequest g;
        g.a = s.a.view();
        g.b = s.b.view();
        g.c = r.c.view();
        g.lane = r.lane;
        if (r.deadline_rel_ns != 0)
          g.deadline_ns = common::now_ns() + r.deadline_rel_ns;
        if (r.use_retry) {
          RetryPolicy policy;
          policy.max_attempts = 3;
          policy.initial_backoff_ns = 50'000;
          policy.max_backoff_ns = 1'000'000;
          policy.seed = prng.next();
          r.result = fleet->submit_with_retry(g, policy);
          r.resolved = true;
        } else {
          futures.emplace_back(i, fleet->submit(g));
        }
      }
      for (auto& [idx, fut] : futures) {
        if (fut.wait_for(std::chrono::seconds(30)) ==
            std::future_status::ready) {
          reqs[idx].result = fut.get();
          reqs[idx].resolved = true;
        }
        // else: left unresolved — reported as a stranded-future violation.
      }
    });
  }
  for (auto& t : threads) t.join();
  workload_done.store(true, std::memory_order_relaxed);
  controller.join();
  for (const char* name : kChaosFailpoints)
    rep.failpoint_hits += static_cast<std::uint64_t>(failpoint::hits(name));
  failpoint::disarm_all();

  // --- drain: the engine must reach Stopped whatever happened above ---
  const Status drained = fleet->drain(/*timeout_ns=*/10'000'000'000ull);
  if (!drained.ok())
    rep.violations.push_back("drain(10s) did not complete: " +
                             drained.to_string());
  rep.degraded_inline = fleet->inline_shards() > 0;
  const ShardedStats ss = fleet->stats();
  rep.stats = ss.aggregate;
  rep.steals = ss.steals;
  // Per shard: the aggregate sums the shards, so it is clean iff they are.
  for (std::size_t i = 0; i < ss.shards.size(); ++i) {
    const ServerStats& st = ss.shards[i];
    if (!st.accounting_clean())
      rep.violations.push_back(
          "shard " + std::to_string(i) +
          " accounting not clean after drain: submitted=" +
          std::to_string(st.submitted) +
          " admitted=" + std::to_string(st.admitted) +
          " rejected=" + std::to_string(st.rejected) +
          " invalid=" + std::to_string(st.invalid) +
          " ok=" + std::to_string(st.completed_ok) +
          " err=" + std::to_string(st.completed_error) +
          " shed=" + std::to_string(st.shed) +
          " expired=" + std::to_string(st.expired));
  }

  // --- per-request verdicts ---
  for (auto& reqs : work) {
    for (ChaosReq& r : reqs) {
      if (!r.resolved) {
        rep.violations.push_back("stranded future (shape " +
                                 std::to_string(r.shape) + ")");
        continue;
      }
      ++rep.resolved;
      const ShapeBucket& s = shapes[static_cast<std::size_t>(r.shape)];
      switch (r.result.code()) {
        case StatusCode::kOk: {
          ++rep.ok;
          const double err = common::max_rel_error(r.c.view(), s.ref.view());
          if (err > 1e-5)
            rep.violations.push_back(
                "OK result diverges from reference (shape " +
                std::to_string(s.m) + "x" + std::to_string(s.n) + "x" +
                std::to_string(s.k) + ", rel_err=" + std::to_string(err) +
                ")");
          break;
        }
        case StatusCode::kUnavailable:
        case StatusCode::kResourceExhausted:
          ++rep.transient;
          if (!c_is_untouched(r.c))
            rep.violations.push_back("transient rejection wrote C: " +
                                     r.result.to_string());
          break;
        case StatusCode::kDeadlineExceeded:
          ++rep.expired;
          if (!c_is_untouched(r.c))
            rep.violations.push_back("expired request wrote C: " +
                                     r.result.to_string());
          break;
        case StatusCode::kInternal:
          ++rep.errors;
          // The documented contract: a mid-batch fault may leave C in an
          // unspecified state, and the message says so; any other
          // internal failure must not have touched C.
          if (r.result.message().find("unspecified") == std::string::npos &&
              !c_is_untouched(r.c))
            rep.violations.push_back(
                "internal error wrote C without declaring it: " +
                r.result.to_string());
          break;
        default:
          rep.violations.push_back("unexpected terminal code: " +
                                   r.result.to_string());
          break;
      }
    }
  }

  if (opts.verbose) std::printf("chaos %s\n", rep.summary().c_str());
  return rep;
}

}  // namespace autogemm::serve
