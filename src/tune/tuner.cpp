#include "tune/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <stdexcept>
#include <unordered_set>

#include "backend/backend.hpp"
#include "baselines/library_zoo.hpp"
#include "baselines/pricer.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace autogemm::tune {

namespace {

/// Wraps the measured cost function so every trial shows up in obs: a
/// "tune.trial" span (blocking params as args), the trial counter, and the
/// trial-latency histogram. The searchers instrument only the *measured*
/// cost, not the analytic model ranking (which is noise at trial scale).
CostFn instrumented(CostFn cost) {
  static obs::Counter& trials =
      obs::default_registry().counter("autogemm_tune_trials_total");
  static obs::Histogram& seconds =
      obs::default_registry().histogram("autogemm_tune_trial_seconds");
  return [cost = std::move(cost)](const Candidate& c) {
    obs::SpanScope span("tune.trial", static_cast<std::uint64_t>(c.mc),
                        static_cast<std::uint64_t>(c.nc));
    const std::uint64_t t0 = common::now_ns();
    const double v = cost(c);
    seconds.observe(static_cast<double>(common::now_ns() - t0) * 1e-9);
    trials.add(1);
    return v;
  };
}

}  // namespace

double model_cost(const Candidate& c, long m, long n, long k,
                  const hw::HardwareModel& hw) {
  baselines::LibraryStrategy s;
  s.mc = c.mc;
  s.nc = c.nc;
  s.kc = c.kc;
  s.tiling = baselines::TilingKind::kDMT;
  s.rotate_registers = true;
  s.fuse = true;
  s.packing = c.packing;
  // Loop order shifts the packing re-visit counts; the dominant orders
  // differ by whether B blocks stay resident. Modeled as a small packing
  // multiplier for orders that re-stream B per M block.
  baselines::Priced p = baselines::price_strategy(s, m, n, k, hw);
  double cycles = p.cycles;
  if (c.loop_order == LoopOrder::kMNK || c.loop_order == LoopOrder::kMKN)
    cycles += p.pack_cycles;  // B repacked per outer M iteration
  return cycles;
}

double model_cost_seconds(const Candidate& c, long m, long n, long k) {
  // resolve_backend handles a kAuto-carrying candidate and rejects
  // unregistered ids; the backend's pricing model brings its own lane
  // width, so an SVE candidate is priced at 16 fp32 lanes per FMA while a
  // NEON one pays 4 — the width-vs-clock tradeoff the tuner arbitrates.
  const backend::KernelBackend& be =
      backend::get_backend(backend::resolve_backend(c.backend));
  const hw::HardwareModel hw = be.pricing_model();
  return model_cost(c, m, n, k, hw) / (hw.freq_ghz * 1e9);
}

TuneResult tune_for_backend(int m, int n, int k, backend::BackendId backend) {
  const backend::BackendId id = backend::resolve_backend(backend);
  std::vector<Candidate> space = enumerate_space(m, n, k, false);
  for (Candidate& c : space) c.backend = id;
  const hw::HardwareModel hw = backend::get_backend(id).pricing_model();
  const CostFn model = [&](const Candidate& c) {
    return model_cost(c, m, n, k, hw);
  };
  return tune_model_pruned(space, model, model, 0.02, 16);
}

TuneResult tune_exhaustive(const std::vector<Candidate>& space, CostFn cost) {
  if (space.empty()) throw std::invalid_argument("tune: empty space");
  cost = instrumented(std::move(cost));
  TuneResult result;
  result.best_cost = std::numeric_limits<double>::infinity();
  for (const auto& c : space) {
    const double v = cost(c);
    ++result.evaluations;
    if (v < result.best_cost) {
      result.best_cost = v;
      result.best = c;
    }
  }
  return result;
}

TuneResult tune_model_pruned(const std::vector<Candidate>& space, CostFn model,
                             CostFn cost, double keep_fraction, int min_keep) {
  if (space.empty()) throw std::invalid_argument("tune: empty space");
  cost = instrumented(std::move(cost));
  std::vector<std::pair<double, int>> ranked(space.size());
  for (std::size_t i = 0; i < space.size(); ++i)
    ranked[i] = {model(space[i]), static_cast<int>(i)};
  std::sort(ranked.begin(), ranked.end());

  const int keep = std::clamp<int>(
      static_cast<int>(std::ceil(keep_fraction * space.size())),
      std::min<int>(min_keep, static_cast<int>(space.size())),
      static_cast<int>(space.size()));
  TuneResult result;
  result.best_cost = std::numeric_limits<double>::infinity();
  for (int i = 0; i < keep; ++i) {
    const Candidate& c = space[ranked[i].second];
    const double v = cost(c);
    ++result.evaluations;
    if (v < result.best_cost) {
      result.best_cost = v;
      result.best = c;
    }
  }
  return result;
}

TuneResult tune_annealing(const std::vector<Candidate>& space, CostFn cost,
                          const AnnealParams& params) {
  if (space.empty()) throw std::invalid_argument("tune: empty space");
  cost = instrumented(std::move(cost));
  std::mt19937 rng(params.seed);
  std::uniform_int_distribution<std::size_t> pick(0, space.size() - 1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  std::size_t current = pick(rng);
  double current_cost = cost(space[current]);
  TuneResult result;
  result.best = space[current];
  result.best_cost = current_cost;
  result.evaluations = 1;

  for (int i = 0; i < params.iterations; ++i) {
    const double frac = static_cast<double>(i) / std::max(1, params.iterations - 1);
    const double temp =
        params.t_start * std::pow(params.t_end / params.t_start, frac);
    // Neighbor: a random re-draw biased toward nearby indices (the space
    // enumeration orders by blocking, so index distance tracks parameter
    // distance).
    std::size_t next;
    if (unit(rng) < 0.5) {
      const long jump =
          static_cast<long>((unit(rng) - 0.5) * 0.2 * space.size());
      next = static_cast<std::size_t>(std::clamp<long>(
          static_cast<long>(current) + jump, 0,
          static_cast<long>(space.size()) - 1));
    } else {
      next = pick(rng);
    }
    const double next_cost = cost(space[next]);
    ++result.evaluations;
    const double relative = (next_cost - current_cost) /
                            std::max(1e-9, current_cost);
    if (relative < 0 || unit(rng) < std::exp(-relative / temp)) {
      current = next;
      current_cost = next_cost;
    }
    if (next_cost < result.best_cost) {
      result.best_cost = next_cost;
      result.best = space[next];
    }
  }
  return result;
}

TuneResult tune_gbt(const std::vector<Candidate>& space, CostFn cost,
                    const GbtSearchParams& params) {
  if (space.empty()) throw std::invalid_argument("tune: empty space");
  cost = instrumented(std::move(cost));
  std::mt19937 rng(params.seed);
  std::uniform_int_distribution<std::size_t> pick(0, space.size() - 1);

  std::vector<FeatureVec> xs;
  std::vector<double> ys;
  std::unordered_set<std::size_t> measured;
  TuneResult result;
  result.best_cost = std::numeric_limits<double>::infinity();

  const auto measure = [&](std::size_t idx) {
    if (!measured.insert(idx).second) return;
    const double v = cost(space[idx]);
    ++result.evaluations;
    xs.push_back(features(space[idx]));
    ys.push_back(v);
    if (v < result.best_cost) {
      result.best_cost = v;
      result.best = space[idx];
    }
  };

  // Bootstrap batch: random.
  for (int i = 0; i < params.batch_size; ++i) measure(pick(rng));

  GbtModel model(params.model);
  for (int b = 1; b < params.batches; ++b) {
    model.fit(xs, ys);
    // Rank unmeasured candidates by predicted cost.
    std::vector<std::pair<double, std::size_t>> ranked;
    ranked.reserve(space.size());
    for (std::size_t i = 0; i < space.size(); ++i) {
      if (measured.count(i)) continue;
      ranked.push_back({model.predict(features(space[i])), i});
    }
    std::sort(ranked.begin(), ranked.end());
    const int exploit = static_cast<int>(
        params.batch_size * (1.0 - params.explore_fraction));
    for (int i = 0; i < exploit && i < static_cast<int>(ranked.size()); ++i)
      measure(ranked[i].second);
    for (int i = exploit; i < params.batch_size; ++i) measure(pick(rng));
  }
  return result;
}

}  // namespace autogemm::tune
