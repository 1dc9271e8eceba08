#include "codegen/tile_sizes.hpp"

#include <stdexcept>

namespace autogemm::codegen {

std::vector<TileSize> enumerate_feasible_tiles(int lanes,
                                               int max_registers) {
  std::vector<TileSize> tiles;
  // mr*vnr + mr + vnr <= R bounds both factors by R - 2.
  for (int mr = 1; mr <= max_registers - 2; ++mr) {
    for (int vnr = 1; vnr <= max_registers - 2; ++vnr) {
      const int nr = vnr * lanes;
      if (tile_feasible(mr, nr, lanes, max_registers))
        tiles.push_back({mr, nr});
    }
  }
  return tiles;
}

std::vector<TileSize> preferred_tiles(int lanes) {
  // Table II's blue cells for sigma_lane=4. For wider lanes (SVE) the same
  // register-count pattern applies with nr scaled: vnr in {2,3,4,5} paired
  // with the largest feasible mr.
  return {{8, 2 * lanes}, {6, 3 * lanes}, {5, 4 * lanes}, {4, 5 * lanes}};
}

int sve_groups(int nr, int vl_min) { return (nr + vl_min - 1) / vl_min; }

bool sve_tile_feasible(int mr, int nr, int vl_min, int max_registers) {
  if (mr < 1 || nr < 1 || vl_min < 1) return false;
  const int groups = sve_groups(nr, vl_min);
  if (groups > 7) return false;  // governing predicates p1..p7
  if (mr > 10) return false;     // row pointers + whilelt temps in GP file
  return mr * groups + mr + groups <= max_registers;
}

double ai_max(int mr, int nr) {
  if (mr <= 0 || nr <= 0) throw std::invalid_argument("ai_max: bad tile");
  return 2.0 * mr * nr / (mr + nr);
}

double ai_finite(int mr, int nr, int kc, int lanes) {
  if (mr <= 0 || nr <= 0 || kc <= 0 || lanes <= 0)
    throw std::invalid_argument("ai_finite: bad arguments");
  const double vnr = static_cast<double>(nr) / lanes;
  const double vkc = static_cast<double>(kc) / lanes;
  const double flops_vec = 2.0 * mr * vnr * kc;
  const double mem_vec = 2.0 * mr * vnr + mr * vkc + kc * vnr;
  return flops_vec / mem_vec;
}

}  // namespace autogemm::codegen
