// Register-tile size enumeration and arithmetic-intensity math
// (Section III-A, Table II, Eqns 2-3 of the paper).
#pragma once

#include <vector>

namespace autogemm::codegen {

/// One register-tile candidate: mr rows of C by nr columns, where nr is a
/// multiple of the SIMD lane count.
struct TileSize {
  int mr = 0;
  int nr = 0;

  bool operator==(const TileSize&) const = default;
};

/// Number of architectural vector registers on all modeled Arm chips.
inline constexpr int kVectorRegisters = 32;

/// Vector registers a (mr x nr) tile needs at lane width `lanes`:
/// mr*ceil(nr/lanes) accumulators + mr A registers + ceil(nr/lanes) B
/// registers. Feasible iff this fits in the register file (32 on the
/// modeled Arm chips). Reproduces exactly the dashes in Table II (e.g.
/// 4x24 and 5x20 are infeasible). constexpr so the compiled kernel tables
/// (kernels/wide_kernel.hpp) are derived from the same rule.
constexpr int registers_needed(int mr, int nr, int lanes) {
  const int vnr = (nr + lanes - 1) / lanes;
  return mr * vnr + mr + vnr;
}
constexpr bool tile_feasible(int mr, int nr, int lanes,
                             int max_registers = kVectorRegisters) {
  if (mr < 1 || nr < lanes || nr % lanes != 0) return false;
  return registers_needed(mr, nr, lanes) <= max_registers;
}

/// All feasible tiles with mr >= 1 and nr a positive multiple of `lanes`,
/// bounded by nr/lanes <= 30 (beyond which feasibility forces mr = 0).
/// The paper counts 58 feasible sizes for sigma_lane = 4 over the Table II
/// grid conventions; see tests for the exact enumeration.
std::vector<TileSize> enumerate_feasible_tiles(
    int lanes, int max_registers = kVectorRegisters);

/// The paper's first-choice shapes (blue cells of Table II) scaled to the
/// lane width: for lanes=4 these are 8x8, 6x12, 5x16 and 4x20.
std::vector<TileSize> preferred_tiles(int lanes);

/// Vector groups an SVE predicated tile spans at generation width `vl_min`:
/// ceil(nr / vl_min). Unlike the NEON vnr, nr need NOT be a lane multiple —
/// the trailing group is governed by a whilelt predicate.
int sve_groups(int nr, int vl_min);

/// Feasibility for the predicated SVE kernel shape: mr*groups accumulators
/// + mr A-broadcast registers + groups B registers in the 32-register z
/// file, groups <= 7 (governing predicates live in p1..p7; p0 stays ptrue
/// for broadcasts), and mr <= 10 (two row pointers per row plus the
/// whilelt temps x26..x28 and loop counter x29 in the GP file).
bool sve_tile_feasible(int mr, int nr, int vl_min,
                       int max_registers = kVectorRegisters);

/// Eqn 2: AI_max = 2*mr*nr / (mr + nr) — the kc->inf limit.
double ai_max(int mr, int nr);

/// Eqn 3: finite-kc arithmetic intensity, counting the C load+store, the A
/// loads (mr per unrolled block) and the B loads (one vector per lane step):
///   AI = 2*mr*vnr*kc / (2*mr*vnr + mr*vkc + kc*vnr)
/// with vnr = nr/lanes and vkc = kc/lanes (vector-instruction units).
double ai_finite(int mr, int nr, int kc, int lanes);

}  // namespace autogemm::codegen
