// The Table III algorithm-parameter search space (Section IV-C2).
//
// Cache blocking spans every divisor-aligned (mc, nc, kc); loop order
// spans the cache-loop permutations; packing spans {none, online,
// offline}. The full space is what made TVM tuning take "hours or even
// days"; the Eqn 13 model prune (tune::Tuner) is what collapses it.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "backend/backend_id.hpp"
#include "core/plan.hpp"

namespace autogemm::tune {

/// One point in the search space.
struct Candidate {
  int mc = 0, nc = 0, kc = 0;
  LoopOrder loop_order = LoopOrder::kNKM;
  kernels::Packing packing = kernels::Packing::kOnline;
  /// Parallel scheduling for pooled execution; kAuto (the default) leaves
  /// the choice to the runtime heuristic, so serial tuning runs are
  /// unaffected.
  ParallelStrategy strategy = ParallelStrategy::kAuto;
  /// Kernel backend the candidate targets (the registry axis). NEON by
  /// default so legacy spaces, records and tests are untouched; the axis
  /// is crossed in only by enumerate_space(..., include_backends = true).
  backend::BackendId backend = backend::BackendId::kNeon;

  bool operator==(const Candidate&) const = default;
};

/// Numeric feature vector for the learning-based surrogate (GBT).
std::array<double, 8> features(const Candidate& c);

/// The paper's blocking rule: all divisors of the dimension ("0 < mc <= M,
/// M % mc == 0"). For prime or huge dimensions this is tiny/huge, so the
/// space also admits the clamped power-of-two ladder used in practice.
std::vector<int> blocking_choices(int dim, bool divisors_only);

/// Materializes the full cross product. `divisors_only` follows the
/// paper's constraint; false adds the power-of-two ladder.
/// `include_parallel_strategies` additionally crosses in the explicit
/// blocks-only / k-split scheduling choice (x2); off by default because
/// the serial tuner cannot measure the difference.
/// `include_backends` crosses in every registered kernel backend as a
/// search axis, with per-backend tile feasibility: a (blocking, backend)
/// pair is enumerated only when the backend can field a vector
/// micro-kernel for the block's column count (fixed-width backends need a
/// lane multiple; predicated backends mask any edge). Off by default so
/// legacy spaces — and the tuner runs that feed NEON-only records files —
/// are byte-identical to before the axis existed.
std::vector<Candidate> enumerate_space(
    int m, int n, int k, bool divisors_only = true,
    bool include_parallel_strategies = false, bool include_backends = false);

/// Size of the space without materializing it.
std::size_t space_size(int m, int n, int k, bool divisors_only = true,
                       bool include_parallel_strategies = false,
                       bool include_backends = false);

}  // namespace autogemm::tune
