#include "tune/online_tuner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <tuple>
#include <utility>

#include "common/timer.hpp"
#include "core/context.hpp"
#include "core/gemm.hpp"
#include "obs/metrics.hpp"
#include "tune/records.hpp"
#include "tune/tuner.hpp"

namespace autogemm::tune {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Model-prune survivors actually measured: this fraction of the
/// enumerated space, floored at kMinKeep — the paper's pruning step.
constexpr double kKeepFraction = 0.02;
constexpr int kMinKeep = 8;

OnlineTunerOptions sanitized(OnlineTunerOptions opts) {
  if (opts.top_k == 0) opts.top_k = 1;
  if (opts.measure_reps < 1) opts.measure_reps = 1;
  return opts;
}

/// Deterministic small-magnitude fill for measurement operands (same LCG
/// family as the context's probe fill; values only need to be benign).
void fill_operand(std::vector<float>& buf, unsigned seed) {
  unsigned s = seed * 2654435761u + 1u;
  for (auto& x : buf) {
    s = s * 1664525u + 1013904223u;
    x = static_cast<float>((s >> 8) & 0xFFFF) / 65536.0f - 0.5f;
  }
}

Candidate candidate_from_config(const GemmConfig& cfg) {
  Candidate c;
  c.mc = cfg.mc;
  c.nc = cfg.nc;
  c.kc = cfg.kc;
  c.loop_order = cfg.loop_order;
  c.packing = cfg.packing;
  c.strategy = cfg.parallel_strategy;
  c.backend = cfg.backend;
  return c;
}

/// Process-wide registry handles for the online tuner, resolved once.
struct TunerObs {
  obs::Counter* promotions;
  obs::Counter* demotions;
  obs::Counter* searches;
  obs::Counter* persist_failures;
  obs::Histogram* cycle_seconds;
};

TunerObs& tuner_obs() {
  static TunerObs h = [] {
    obs::Registry& r = obs::default_registry();
    TunerObs x;
    x.promotions = &r.counter("autogemm_tune_promotions_total");
    x.demotions = &r.counter("autogemm_tune_demotions_total");
    x.searches = &r.counter("autogemm_tune_searches_total");
    x.persist_failures = &r.counter("autogemm_tune_persist_failures_total");
    x.cycle_seconds = &r.histogram("autogemm_tune_cycle_seconds");
    return x;
  }();
  return h;
}

}  // namespace

std::vector<HotShape> merge_hot_shapes(
    const std::vector<std::vector<HotShape>>& feeds, std::size_t limit) {
  std::map<std::tuple<int, int, int>, std::uint64_t> counts;
  for (const auto& feed : feeds)
    for (const HotShape& hs : feed) counts[{hs.m, hs.n, hs.k}] += hs.requests;
  std::vector<HotShape> out;
  out.reserve(counts.size());
  for (const auto& [key, requests] : counts)
    out.push_back(HotShape{std::get<0>(key), std::get<1>(key),
                           std::get<2>(key), requests});
  // The map iterates ascending (m, n, k); a stable sort on requests then
  // yields a fully deterministic hottest-first ranking with key-ordered
  // ties.
  std::stable_sort(out.begin(), out.end(),
                   [](const HotShape& a, const HotShape& b) {
                     return a.requests > b.requests;
                   });
  if (limit != 0 && out.size() > limit) out.resize(limit);
  return out;
}

OnlineTuner::OnlineTuner(Context& ctx, HotShapeFn hot_shapes,
                         OnlineTunerOptions opts)
    : ctx_(ctx),
      hot_shapes_(std::move(hot_shapes)),
      opts_(sanitized(std::move(opts))) {
  paused_ = opts_.start_paused;
  try {
    thread_ = std::thread([this] { loop(); });
  } catch (const std::exception&) {
    // No background thread: run_cycle() still works synchronously, the
    // engine just never gets unsolicited promotions. Matches the pool's
    // degrade-don't-die posture.
  }
}

OnlineTuner::~OnlineTuner() { stop(); }

void OnlineTuner::pause() {
  {
    std::lock_guard lock(mu_);
    if (paused_) return;
    paused_ = true;
  }
  cv_.notify_all();
  // Wait for any in-flight cycle to park: the measurement cost function
  // polls should_abort(), so remaining candidates price as +inf and the
  // search winds down within about one candidate measurement.
  std::lock_guard cycle_lock(cycle_mu_);
}

void OnlineTuner::resume() {
  {
    std::lock_guard lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

bool OnlineTuner::paused() const {
  std::lock_guard lock(mu_);
  return paused_;
}

void OnlineTuner::stop() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

bool OnlineTuner::should_abort() const {
  std::lock_guard lock(mu_);
  return stop_ || (paused_ && !manual_cycle_.load(std::memory_order_relaxed));
}

OnlineTunerStats OnlineTuner::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

void OnlineTuner::loop() {
  std::unique_lock lock(mu_);
  while (!stop_) {
    if (paused_) {
      cv_.wait(lock, [&] { return stop_ || !paused_; });
      continue;
    }
    lock.unlock();
    {
      std::lock_guard cycle_lock(cycle_mu_);
      cycle();
    }
    lock.lock();
    if (stop_) break;
    cv_.wait_for(lock, std::chrono::nanoseconds(opts_.cycle_interval_ns),
                 [&] { return stop_; });
  }
}

bool OnlineTuner::run_cycle() {
  std::lock_guard cycle_lock(cycle_mu_);
  // A manual cycle runs to completion even on a paused tuner: pause()
  // parks the *background* loop (and cannot interleave with this cycle —
  // it waits on cycle_mu_), while tests and the CLI drive run_cycle()
  // precisely when the background loop is parked for determinism.
  manual_cycle_.store(true, std::memory_order_relaxed);
  const bool promoted = cycle();
  manual_cycle_.store(false, std::memory_order_relaxed);
  return promoted;
}

bool OnlineTuner::cycle() {
  {
    std::lock_guard lock(mu_);
    ++stats_.cycles;
  }
  const std::uint64_t t0 = common::now_ns();
  std::vector<HotShape> hot;
  if (hot_shapes_) hot = hot_shapes_();
  bool promoted_any = false;
  std::size_t considered = 0;
  for (const HotShape& hs : hot) {
    if (should_abort() || considered >= opts_.top_k) break;
    if (hs.m <= 0 || hs.n <= 0 || hs.k <= 0) continue;
    if (hs.requests < opts_.min_requests) continue;
    // Already resolving through an exact record for this backend: tuned.
    if (ctx_.has_exact_record(hs.m, hs.n, hs.k)) continue;
    ++considered;
    if (tune_shape(hs)) promoted_any = true;
  }
  if (promoted_any && !opts_.records_path.empty()) {
    // Merge-on-save: a concurrent campaign (or second process) writing the
    // same file keeps its records; per-slot min cost decides collisions.
    const Status s =
        ctx_.records_snapshot().save_file_merged(opts_.records_path);
    std::lock_guard lock(mu_);
    if (s.ok()) {
      ++stats_.persisted;
    } else {
      ++stats_.persist_failures;
      tuner_obs().persist_failures->add(1);
    }
  }
  tuner_obs().cycle_seconds->observe(
      static_cast<double>(common::now_ns() - t0) * 1e-9);
  return promoted_any;
}

bool OnlineTuner::tune_shape(const HotShape& hs) {
  const int m = hs.m, n = hs.n, k = hs.k;
  {
    std::lock_guard lock(mu_);
    ++stats_.searches;
  }
  tuner_obs().searches->add(1);

  std::vector<Candidate> space = enumerate_space(m, n, k, opts_.divisors_only);
  if (space.empty()) return false;
  // Candidates execute (and are priced) on this context's backend; the
  // enumeration default is NEON regardless of the context.
  const backend::BackendId be = ctx_.backend_id();
  for (Candidate& c : space) c.backend = be;

  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  fill_operand(a, 101);
  fill_operand(b, 211);
  const common::ConstMatrixView va{a.data(), m, k, k};
  const common::ConstMatrixView vb{b.data(), k, n, n};
  const common::MatrixView vc{c.data(), m, n, n};

  // The budget meters wall-clock *spent measuring*, not elapsed time: the
  // model-prune pass over the full space runs before any measurement and
  // its (shape-dependent) cost must not eat the measurement budget.
  std::uint64_t spent_measuring_ns = 0;
  const CostFn measure = [&](const Candidate& cand) -> double {
    // Past the budget (or told to park) every remaining candidate is
    // priced +inf: tune_model_pruned keeps iterating but spends nothing,
    // and the best-so-far wins.
    if (should_abort() || spent_measuring_ns >= opts_.search_budget_ns)
      return kInf;
    {
      std::lock_guard lock(mu_);
      ++stats_.evaluations;
    }
    if (opts_.cost_override) return opts_.cost_override(cand, m, n, k);
    StatusOr<Plan> plan_or =
        Plan::create(m, n, k, config_from_candidate(m, n, k, cand));
    if (!plan_or.ok()) return kInf;
    const Plan plan = std::move(plan_or).value();
    std::fill(c.begin(), c.end(), 0.0f);
    double best = kInf;
    for (int rep = 0; rep < opts_.measure_reps; ++rep) {
      const std::uint64_t r0 = common::now_ns();
      try {
        autogemm::gemm(va, vb, vc, plan, /*pool=*/nullptr);
      } catch (const std::exception&) {
        // A faulting candidate (scratch allocation failure — e.g. the
        // alloc.aligned_buffer failpoint under chaos — or an execution
        // fault) simply prices as unviable; the tuner thread must never
        // die to a measurement.
        spent_measuring_ns += common::now_ns() - r0;
        return kInf;
      }
      const std::uint64_t dt = common::now_ns() - r0;
      spent_measuring_ns += dt;
      best = std::min(best, static_cast<double>(dt) * 1e-9);
      // Low priority: hand the core back to the dispatcher between reps.
      std::this_thread::yield();
    }
    return best;
  };
  const CostFn model = [&](const Candidate& cand) {
    return model_cost_seconds(cand, m, n, k);
  };

  // The incumbent — whatever config this shape currently executes
  // (nearest record or heuristic; exact was filtered out upstream) —
  // priced by the same cost function, so the promotion comparison is
  // apples-to-apples and a no-better search never churns the cache.
  const Candidate incumbent =
      candidate_from_config(ctx_.plan_for(m, n, k)->config());
  const double incumbent_cost = measure(incumbent);

  const TuneResult result =
      tune_model_pruned(space, model, measure, kKeepFraction, kMinKeep);

  const bool win = std::isfinite(result.best_cost) &&
                   result.best_cost < incumbent_cost &&
                   !(result.best == incumbent);
  if (!win || !ctx_.publish_record(m, n, k, result.best, result.best_cost)) {
    std::lock_guard lock(mu_);
    ++stats_.demotions;
    tuner_obs().demotions->add(1);
    return false;
  }
  if (opts_.on_promote) {
    try {
      opts_.on_promote(m, n, k, result.best, result.best_cost);
    } catch (...) {
      // A fan-out failure must not kill the tuner thread; the record is
      // already live in the bound context.
    }
  }
  std::lock_guard lock(mu_);
  ++stats_.promotions;
  tuner_obs().promotions->add(1);
  return true;
}

}  // namespace autogemm::tune
