// Auto-tuning harness (Section IV-C): the TVM-substitute search loop.
//
// Four searchers over the Table III space:
//  * exhaustive        — evaluate everything (the "hours or even days" mode);
//  * model-pruned      — rank by the Eqn 13 analytic model, evaluate only
//                        the top slice (the paper's pruning contribution);
//  * simulated annealing — AutoTVM's refinement strategy;
//  * GBT-guided        — AutoTVM's XGBoost loop: measure a batch, fit the
//                        surrogate, pick the next batch by predicted cost.
//
// The cost function is injected: benches pass either the analytic pricer
// (what the paper uses to prune) or a host wall-clock measurement.
#pragma once

#include <functional>
#include <vector>

#include "hw/hardware_model.hpp"
#include "tune/gbt.hpp"
#include "tune/search_space.hpp"

namespace autogemm::tune {

/// Cost of running one candidate (lower is better; cycles or seconds).
using CostFn = std::function<double(const Candidate&)>;

struct TuneResult {
  Candidate best;
  double best_cost = 0;
  long evaluations = 0;  ///< cost-function calls spent
};

/// Analytic cost of a candidate for problem (m, n, k) on a chip model —
/// the Eqn 13 composition the paper uses to prune TVM's space.
double model_cost(const Candidate& c, long m, long n, long k,
                  const hw::HardwareModel& hw);

/// Cross-backend analytic cost in *seconds*: model_cost evaluated on the
/// candidate's own backend's pricing chip (NEON -> Graviton2, simulated
/// SVE -> A64FX), divided by that chip's clock. Cycles from different
/// chips are incommensurable — the SVE chip trades clock for width — so
/// seconds is the unit in which a backend-axis search space (see
/// enumerate_space's include_backends) can be ranked by one CostFn and
/// per-shape NEON-vs-SVE winners emerge.
double model_cost_seconds(const Candidate& c, long m, long n, long k);

TuneResult tune_exhaustive(const std::vector<Candidate>& space, CostFn cost);

/// The model-pruned search `autogemm tune` runs for (m, n, k): every
/// candidate targets `backend` resolved (kAuto: the backend a default
/// Context runs on this host) and is priced on that backend's pricing
/// model, so the record it yields applies to such a Context — records
/// resolve only for the context's own backend.
TuneResult tune_for_backend(int m, int n, int k,
                            backend::BackendId backend =
                                backend::BackendId::kAuto);

/// Ranks by `model`, evaluates only the best `keep_fraction` (at least
/// `min_keep` candidates) with `cost`.
TuneResult tune_model_pruned(const std::vector<Candidate>& space,
                             CostFn model, CostFn cost,
                             double keep_fraction = 0.05, int min_keep = 8);

struct AnnealParams {
  int iterations = 200;
  double t_start = 2.0;   ///< initial temperature (relative cost units)
  double t_end = 0.01;
  unsigned seed = 42;
};
TuneResult tune_annealing(const std::vector<Candidate>& space, CostFn cost,
                          const AnnealParams& params = {});

struct GbtSearchParams {
  int batches = 6;
  int batch_size = 12;
  double explore_fraction = 0.25;  ///< random picks mixed into each batch
  unsigned seed = 7;
  GbtParams model;
};
TuneResult tune_gbt(const std::vector<Candidate>& space, CostFn cost,
                    const GbtSearchParams& params = {});

}  // namespace autogemm::tune
