#include "tune/search_space.hpp"

#include <algorithm>

#include "backend/backend.hpp"

namespace autogemm::tune {

namespace {

/// Per-backend tile feasibility for a cache block: can the backend field a
/// *vector* micro-kernel whose columns end at nc? Fixed-width backends
/// (NEON) need the register-tile width to be a lane multiple — a block
/// with a ragged column count runs its edge through the scalar kernels,
/// so the backend axis offers no vector candidate there. A VL-agnostic
/// backend predicates the edge natively, which is exactly the irregular-
/// shape case the SVE tier exists for.
bool backend_block_feasible(const backend::KernelBackend& be, int mc, int nc) {
  const backend::BackendCaps& caps = be.caps();
  const int nr = std::min(nc, caps.max_nr);
  if (nr < 1) return false;
  if (!caps.vl_agnostic && nr % caps.vl_min != 0) return false;
  for (int mr = std::min(mc, caps.max_mr); mr >= 1; --mr)
    if (be.tile_feasible(mr, nr)) return true;
  return false;
}

}  // namespace

std::array<double, 8> features(const Candidate& c) {
  return {static_cast<double>(c.mc),
          static_cast<double>(c.nc),
          static_cast<double>(c.kc),
          static_cast<double>(c.loop_order),
          static_cast<double>(c.packing),
          static_cast<double>(c.strategy),
          static_cast<double>(c.backend),
          static_cast<double>(c.mc) * c.nc * c.kc};
}

std::vector<int> blocking_choices(int dim, bool divisors_only) {
  std::vector<int> out;
  for (int d = 1; d <= dim; ++d)
    if (dim % d == 0) out.push_back(d);
  if (!divisors_only) {
    for (int p = 8; p < dim; p *= 2)
      if (dim % p != 0) out.push_back(p);
    std::sort(out.begin(), out.end());
  }
  return out;
}

std::vector<Candidate> enumerate_space(int m, int n, int k, bool divisors_only,
                                       bool include_parallel_strategies,
                                       bool include_backends) {
  std::vector<Candidate> out;
  const auto mcs = blocking_choices(m, divisors_only);
  const auto ncs = blocking_choices(n, divisors_only);
  const auto kcs = blocking_choices(k, divisors_only);
  const LoopOrder orders[] = {LoopOrder::kNKM, LoopOrder::kNMK,
                              LoopOrder::kKNM, LoopOrder::kKMN,
                              LoopOrder::kMNK, LoopOrder::kMKN};
  const kernels::Packing packings[] = {kernels::Packing::kNone,
                                       kernels::Packing::kOnline,
                                       kernels::Packing::kOffline};
  // kAuto alone when the strategy axis is off (the runtime picks); the
  // explicit schedules only when a pooled tuning run can measure them.
  std::vector<ParallelStrategy> strategies{ParallelStrategy::kAuto};
  if (include_parallel_strategies)
    strategies = {ParallelStrategy::kBlocksOnly, ParallelStrategy::kKSplit};
  // Backend axis off: one implicit NEON entry (the Candidate default), so
  // the legacy space is unchanged. On: every registered backend, gated by
  // block feasibility per (mc, nc) below.
  std::vector<const backend::KernelBackend*> backends;
  if (include_backends) backends = backend::registry().all();
  out.reserve(mcs.size() * ncs.size() * kcs.size() * 18 * strategies.size() *
              std::max<std::size_t>(1, backends.size()));
  for (int mc : mcs) {
    for (int nc : ncs) {
      std::vector<backend::BackendId> ids;
      if (include_backends) {
        for (const backend::KernelBackend* be : backends)
          if (backend_block_feasible(*be, mc, nc)) ids.push_back(be->caps().id);
      } else {
        ids.push_back(backend::BackendId::kNeon);
      }
      if (ids.empty()) continue;
      for (int kc : kcs)
        for (LoopOrder order : orders)
          for (kernels::Packing packing : packings)
            for (ParallelStrategy strategy : strategies)
              for (backend::BackendId id : ids)
                out.push_back({mc, nc, kc, order, packing, strategy, id});
    }
  }
  return out;
}

std::size_t space_size(int m, int n, int k, bool divisors_only,
                       bool include_parallel_strategies,
                       bool include_backends) {
  const auto mcs = blocking_choices(m, divisors_only);
  const auto ncs = blocking_choices(n, divisors_only);
  const std::size_t per_block = blocking_choices(k, divisors_only).size() * 6 *
                                3 * (include_parallel_strategies ? 2 : 1);
  if (!include_backends) return mcs.size() * ncs.size() * per_block;
  // With the backend axis on, the count is feasibility-dependent: sum the
  // admitted backends over every (mc, nc) block shape.
  const auto backends = backend::registry().all();
  std::size_t blocks = 0;
  for (int mc : mcs)
    for (int nc : ncs)
      for (const backend::KernelBackend* be : backends)
        if (backend_block_feasible(*be, mc, nc)) ++blocks;
  return blocks * per_block;
}

}  // namespace autogemm::tune
