#include "core/plan.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "backend/backend.hpp"
#include "hw/chip_database.hpp"

namespace autogemm {

const char* loop_order_name(LoopOrder order) {
  switch (order) {
    case LoopOrder::kNKM: return "NKM";
    case LoopOrder::kNMK: return "NMK";
    case LoopOrder::kKNM: return "KNM";
    case LoopOrder::kKMN: return "KMN";
    case LoopOrder::kMNK: return "MNK";
    case LoopOrder::kMKN: return "MKN";
  }
  return "?";
}

const char* parallel_strategy_name(ParallelStrategy s) {
  switch (s) {
    case ParallelStrategy::kAuto: return "auto";
    case ParallelStrategy::kBlocksOnly: return "blocks-only";
    case ParallelStrategy::kKSplit: return "k-split";
  }
  return "?";
}

GemmConfig default_config(int m, int n, int k, backend::BackendId id) {
  GemmConfig cfg;
  cfg.backend = backend::resolve_backend(id);
  // Tiles sized for the kernels that will run: the executing tier's lanes
  // and register file on the machine we run on.
  const backend::KernelBackend& be = backend::host_backend(cfg.backend);
  cfg.hw = hw::host_model(be.caps().vl_default, be.caps().vector_registers);
  // The tier's widest register tile in working rows (mr + nr): 24 for the
  // 128-bit tier's 4x20, 84 for AVX-512's 4x80.
  int tile_rows = 1;
  for (const codegen::TileSize& t : be.preferred_tiles())
    tile_rows = std::max(tile_rows, t.mr + t.nr);
  // Goto's sizing rule derived from the actual cache hierarchy: the
  // streamed B panel rows (kc x nr) plus the A block (mc x kc) should
  // occupy about half of L1 so the C tile and the B stream never evict
  // each other, and the full B block (kc x nc) should fit comfortably in
  // L2. For the small/irregular shapes this library targets, clamping to
  // the problem dominates these ceilings anyway. The floor keeps a K block
  // long enough to amortize reloading the C tile: the 128-bit tier's rule
  // gives 170, while AVX-512's 84-row tiles would give 48 and AVX2's 34-row
  // ones 120, so on the host model's 32 KB L1 both wide tiers sit at the
  // floor of 128. Their blocks (mc 32, nc 256) then stay numerous enough
  // for the pool without k-split partials. On resnet50 (4-core AVX-512
  // Xeon, 10 alternating pairs) kc = 128 ran at 153 GFLOPS median against
  // 144 with the 128-bit tier's kc = 170 (faster in 10 of 10 pairs, peak
  // RSS 137 against 147 MB), and beat kc = 64 with mc 64, nc 512 too.
  const long l1 = cfg.hw.caches.empty() ? 32 * 1024
                                        : cfg.hw.caches.front().size_bytes;
  const long l2 = cfg.hw.caches.size() > 1 ? cfg.hw.caches[1].size_bytes
                                           : 8 * l1;
  const int kc_cap = static_cast<int>(
      std::clamp<long>(l1 / (2 * 4 * tile_rows), 128, 512));
  const int mc_cap = static_cast<int>(std::clamp<long>(
      l1 / (2 * 4 * kc_cap), 24, 256));
  const int nc_cap = static_cast<int>(std::clamp<long>(
      l2 / (2 * 4 * kc_cap), 64, 1024));
  cfg.kc = std::clamp(k, 1, kc_cap);
  cfg.nc = std::clamp(n, 1, nc_cap);
  cfg.mc = std::clamp(m, 1, mc_cap);
  // Packing pays off only when the streamed B block is revisited; for
  // small N the paper skips it.
  cfg.packing = (static_cast<long>(n) * k <= 64 * 64)
                    ? kernels::Packing::kNone
                    : kernels::Packing::kOnline;
  return cfg;
}

StatusOr<Plan> Plan::create(int m, int n, int k, GemmConfig config) {
  if (m <= 0 || n <= 0 || k <= 0)
    return InvalidArgumentError("Plan: dimensions must be positive (" +
                                std::to_string(m) + "x" + std::to_string(n) +
                                "x" + std::to_string(k) + ")");
  if (config.mc <= 0 || config.nc <= 0 || config.kc <= 0)
    return InvalidArgumentError("Plan: blocking parameters must be positive");
  if (config.hw.lanes < 1 || config.hw.vector_registers < 4)
    return InvalidArgumentError("Plan: implausible hardware model");
  try {
    return Plan(m, n, k, std::move(config));
  } catch (const std::exception& e) {
    // DMT / the kernel model choked on this configuration; a tuned record
    // transferred from another machine can do that, and it must degrade,
    // not abort.
    return InternalError(std::string("Plan: construction failed: ") +
                         e.what());
  }
}

Plan::Plan(int m, int n, int k, GemmConfig config)
    : m_(m), n_(n), k_(k), cfg_(std::move(config)) {
  if (m <= 0 || n <= 0 || k <= 0)
    throw std::invalid_argument("Plan: dimensions must be positive");
  cfg_.backend = backend::resolve_backend(cfg_.backend);
  cfg_.mc = std::clamp(cfg_.mc, 1, m);
  cfg_.nc = std::clamp(cfg_.nc, 1, n);
  cfg_.kc = std::clamp(cfg_.kc, 1, k);

  // Project the whole-problem cost: every cache block contributes its
  // tiling's projected cycles (edge blocks computed once per shape).
  projected_cycles_ = 0;
  for (int i0 = 0; i0 < m; i0 += cfg_.mc) {
    const int bm = std::min(cfg_.mc, m - i0);
    for (int j0 = 0; j0 < n; j0 += cfg_.nc) {
      const int bn = std::min(cfg_.nc, n - j0);
      for (int p0 = 0; p0 < k; p0 += cfg_.kc) {
        const int bk = std::min(cfg_.kc, k - p0);
        projected_cycles_ += block_tiling(bm, bn, bk).projected_cycles;
      }
    }
  }
}

const BlockTiling& Plan::block(int bm, int bn, int bk) const {
  const std::array<int, 3> key{bm, bn, bk};
  auto it = tilings_.find(key);
  if (it != tilings_.end()) return it->second;
  return tilings_.emplace(key, compute_block(bm, bn, bk)).first->second;
}

BlockTiling Plan::compute_block(int bm, int bn, int bk) const {
  BlockTiling block{compute_tiling(bm, bn, bk), {}};
  // Each placed tile runs the kernel for the rows and columns it covers:
  // the exact shape, else a column-masked kernel for a clipped edge, else
  // (both null) the generic loop.
  const backend::KernelBackend& be = backend::host_backend(cfg_.backend);
  block.kernels.reserve(block.tiling.tiles.size());
  for (const tiling::MicroTile& t : block.tiling.tiles) {
    kernels::TileKernel kernel;
    kernel.exact = be.find_microkernel(t.rows_used, t.cols_used);
    if (kernel.exact == nullptr)
      kernel.masked = be.find_masked_microkernel(t.rows_used, t.cols_used);
    block.kernels.push_back(kernel);
  }
  return block;
}

tiling::TilingResult Plan::compute_tiling(int bm, int bn, int bk) const {
  model::KernelModelOptions opts;
  opts.rotate_registers = true;  // autoGEMM always ships rotated kernels
  switch (cfg_.tiling) {
    case TilingMode::kDynamic:
      return tiling::tile_dmt(bm, bn, bk, cfg_.hw, opts);
    case TilingMode::kStaticOpenBLAS:
      return tiling::tile_openblas(bm, bn, bk, cfg_.hw, opts);
    case TilingMode::kStaticLIBXSMM:
      return tiling::tile_libxsmm(bm, bn, bk, cfg_.hw, opts);
  }
  throw std::logic_error("unknown tiling mode");
}

}  // namespace autogemm
