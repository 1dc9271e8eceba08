#include "tiling/micro_tiling.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace autogemm::tiling {
namespace {

// Places a uniform grid of (mr x nr) tiles over an m x n part anchored at
// (row0, col0), clipping coverage at the part bounds (clipped tiles are the
// padded corner cases of Fig 5-(a)).
void place_grid(int row0, int col0, int m, int n, const codegen::TileSize& t,
                std::vector<MicroTile>& out) {
  if (m <= 0 || n <= 0 || t.mr <= 0 || t.nr <= 0) return;
  for (int r = 0; r < m; r += t.mr) {
    for (int c = 0; c < n; c += t.nr) {
      MicroTile tile;
      tile.row = row0 + r;
      tile.col = col0 + c;
      tile.mr = t.mr;
      tile.nr = t.nr;
      tile.rows_used = std::min(t.mr, m - r);
      tile.cols_used = std::min(t.nr, n - c);
      out.push_back(tile);
    }
  }
}

void finalize(TilingResult& result, int kc, const hw::HardwareModel& hw,
              const model::KernelModelOptions& opts) {
  result.projected_cycles = 0;
  result.padded_tiles = 0;
  result.low_ai_tiles = 0;
  for (const auto& t : result.tiles) {
    const codegen::TileSize shape{t.mr, t.nr};
    result.projected_cycles += model::kernel_cost(shape, kc, hw, opts).total();
    if (t.padded()) ++result.padded_tiles;
    if (codegen::ai_max(t.mr, t.nr) < hw.sigma_ai) ++result.low_ai_tiles;
  }
}

// Main tile used by the static strategies: the classic 5 x (4*lanes)
// OpenBLAS Armv8 kernel shape (5x16 for NEON).
codegen::TileSize static_main_tile(const hw::HardwareModel& hw) {
  return {5, 4 * hw.lanes};
}

// Rounds n up to a lane multiple (edge kernels compute in whole vectors and
// mask the store; their cost is that of the rounded shape).
int round_lanes(int n, int lanes) { return (n + lanes - 1) / lanes * lanes; }

// Candidate tiles with their per-invocation model cost, computed once per
// tiling query (kernel_cost is independent of the part shape).
struct Candidates {
  std::vector<codegen::TileSize> tiles;
  std::vector<double> cost;

  Candidates(int kc, const hw::HardwareModel& hw,
             const model::KernelModelOptions& opts) {
    tiles = codegen::enumerate_feasible_tiles(hw.lanes, hw.vector_registers);
    cost.reserve(tiles.size());
    for (const auto& t : tiles)
      cost.push_back(model::kernel_cost(t, kc, hw, opts).total());
  }

  // Algorithm 1's T(m, n): best uniform covering cost (ceil grids; padded
  // edge tiles pay the full tile cost, which is what steers the DP toward
  // exact fits).
  double part(int m, int n, codegen::TileSize* best_tile = nullptr) const {
    if (m <= 0 || n <= 0) {
      if (best_tile) *best_tile = {0, 0};
      return 0.0;
    }
    double q = std::numeric_limits<double>::infinity();
    codegen::TileSize argmin{0, 0};
    for (std::size_t i = 0; i < tiles.size(); ++i) {
      const auto& t = tiles[i];
      const double ntiles = static_cast<double>((m + t.mr - 1) / t.mr) *
                            ((n + t.nr - 1) / t.nr);
      const double c = ntiles * cost[i];
      if (c < q) {
        q = c;
        argmin = t;
      }
    }
    if (best_tile) *best_tile = argmin;
    return q;
  }
};

// Shared materialization once the three split parameters are chosen.
TilingResult materialize_dmt(int mc, int nc, int kc,
                             const hw::HardwareModel& hw,
                             const model::KernelModelOptions& opts,
                             const Candidates& cand, int n_front,
                             int m_front_up, int m_back_up) {
  TilingResult result;
  result.n_front = n_front;
  result.m_front_up = m_front_up;
  result.m_back_up = m_back_up;
  const int n_back = nc - n_front;

  codegen::TileSize t;
  cand.part(m_front_up, n_front, &t);
  place_grid(0, 0, m_front_up, n_front, t, result.tiles);
  cand.part(mc - m_front_up, n_front, &t);
  place_grid(m_front_up, 0, mc - m_front_up, n_front, t, result.tiles);
  cand.part(m_back_up, n_back, &t);
  place_grid(0, n_front, m_back_up, n_back, t, result.tiles);
  cand.part(mc - m_back_up, n_back, &t);
  place_grid(m_back_up, n_front, mc - m_back_up, n_back, t, result.tiles);

  finalize(result, kc, hw, opts);
  return result;
}

}  // namespace

TilingResult tile_openblas(int mc, int nc, int kc, const hw::HardwareModel& hw,
                           const model::KernelModelOptions& opts) {
  TilingResult result;
  place_grid(0, 0, mc, nc, static_main_tile(hw), result.tiles);
  finalize(result, kc, hw, opts);
  return result;
}

TilingResult tile_libxsmm(int mc, int nc, int kc, const hw::HardwareModel& hw,
                          const model::KernelModelOptions& opts) {
  const codegen::TileSize main = static_main_tile(hw);
  const int m_main = mc / main.mr * main.mr;
  const int n_main = nc / main.nr * main.nr;
  const int m_rem = mc - m_main;
  const int n_rem = nc - n_main;

  TilingResult result;
  place_grid(0, 0, m_main, n_main, main, result.tiles);
  if (n_rem > 0)  // right edge strip: full-height rows, narrow tiles
    place_grid(0, n_main, m_main, n_rem,
               {main.mr, round_lanes(n_rem, hw.lanes)}, result.tiles);
  if (m_rem > 0)  // bottom edge strip: short tiles, full-width columns
    place_grid(m_main, 0, m_rem, n_main, {m_rem, main.nr}, result.tiles);
  if (m_rem > 0 && n_rem > 0)  // corner
    place_grid(m_main, n_main, m_rem, n_rem,
               {m_rem, round_lanes(n_rem, hw.lanes)}, result.tiles);
  finalize(result, kc, hw, opts);
  return result;
}

double part_cost(int m, int n, int kc, const hw::HardwareModel& hw,
                 const model::KernelModelOptions& opts,
                 codegen::TileSize* best) {
  return Candidates(kc, hw, opts).part(m, n, best);
}

TilingResult tile_dmt(int mc, int nc, int kc, const hw::HardwareModel& hw,
                      const model::KernelModelOptions& opts) {
  if (mc <= 0 || nc <= 0) throw std::invalid_argument("tile_dmt: empty block");
  const Candidates cand(kc, hw, opts);

  // T(m, n) depends on n only through q = ceil(n / lanes): every candidate
  // nr is a lane multiple vnr * lanes, and ceil(n / nr) = ceil(q / vnr).
  // So tabulate, per lane count q, the best row split of an m x (q lanes)
  // part — Algorithm 1's min over m_up of T(m_up, n) + T(mc - m_up, n) —
  // once, instead of once per n_front.
  const int lanes = std::max(1, hw.lanes);
  const int qmax = (nc + lanes - 1) / lanes;
  std::vector<double> split_cost(qmax + 1);
  std::vector<int> split_arg(qmax + 1);
  std::vector<double> cost(mc + 1);
  for (int q = 0; q <= qmax; ++q) {
    for (int m = 0; m <= mc; ++m) cost[m] = cand.part(m, q * lanes);
    split_cost[q] = std::numeric_limits<double>::infinity();
    for (int m_up = 0; m_up <= mc; ++m_up) {
      const double c = cost[m_up] + cost[mc - m_up];
      if (c < split_cost[q]) {
        split_cost[q] = c;
        split_arg[q] = m_up;
      }
    }
  }

  // Given n_front, the front and back row splits are independent, so the
  // cubic search of Algorithm 1 factors into the two tabulated splits.
  double best = std::numeric_limits<double>::infinity();
  int best_nf = nc, best_mfu = mc, best_mbu = mc;
  for (int n_front = 0; n_front <= nc; ++n_front) {
    const int qf = (n_front + lanes - 1) / lanes;
    const int qb = (nc - n_front + lanes - 1) / lanes;
    const double total = split_cost[qf] + split_cost[qb];
    if (total < best) {
      best = total;
      best_nf = n_front;
      best_mfu = split_arg[qf];
      best_mbu = split_arg[qb];
    }
  }
  return materialize_dmt(mc, nc, kc, hw, opts, cand, best_nf, best_mfu,
                         best_mbu);
}

TilingResult tile_dmt_bruteforce(int mc, int nc, int kc,
                                 const hw::HardwareModel& hw,
                                 const model::KernelModelOptions& opts) {
  if (mc <= 0 || nc <= 0)
    throw std::invalid_argument("tile_dmt_bruteforce: empty block");
  const Candidates cand(kc, hw, opts);

  // Memoize T(m, n) for the n values visited (two per n_front).
  std::vector<double> cost_front(mc + 1), cost_back(mc + 1);
  double best = std::numeric_limits<double>::infinity();
  int best_nf = nc, best_mfu = mc, best_mbu = mc;
  for (int n_front = 0; n_front <= nc; ++n_front) {
    const int n_back = nc - n_front;
    for (int m = 0; m <= mc; ++m) {
      cost_front[m] = cand.part(m, n_front);
      cost_back[m] = cand.part(m, n_back);
    }
    for (int m_front_up = 0; m_front_up <= mc; ++m_front_up) {
      for (int m_back_up = 0; m_back_up <= mc; ++m_back_up) {
        const double p = cost_front[m_front_up] +
                         cost_front[mc - m_front_up] + cost_back[m_back_up] +
                         cost_back[mc - m_back_up];
        if (p < best) {
          best = p;
          best_nf = n_front;
          best_mfu = m_front_up;
          best_mbu = m_back_up;
        }
      }
    }
  }
  return materialize_dmt(mc, nc, kc, hw, opts, cand, best_nf, best_mfu,
                         best_mbu);
}

}  // namespace autogemm::tiling
