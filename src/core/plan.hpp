// autoGEMM execution plans.
//
// A Plan fixes, for one problem shape (M, N, K), every algorithm parameter
// of Table III: the cache block (mc, nc, kc), the loop order sigma_order,
// the packing mode sigma_packing, and — through the Dynamic Micro-Tiling
// algorithm — the register-tile decomposition of each distinct cache-block
// shape. Plans are immutable after construction and cheap to reuse across
// calls, which is the paper's deployment model (parameters are tuned ahead
// of time per shape, then baked into the generated library).
#pragma once

#include <array>
#include <map>
#include <vector>

#include "backend/backend_id.hpp"
#include "common/matrix.hpp"
#include "common/status.hpp"
#include "hw/hardware_model.hpp"
#include "kernels/packing.hpp"
#include "tiling/micro_tiling.hpp"

namespace autogemm {

/// Order of the three cache-blocking loops. The paper's sigma_order spans
/// all permutations of the five blocking parameters; the two register
/// loops are fixed by the micro-kernel itself, so the plan exposes the 3!
/// cache-loop permutations (named by outer-to-inner dimension letters).
enum class LoopOrder : int {
  kNKM = 0,  // jc outer, pc middle, ic inner (Goto's default)
  kNMK,
  kKNM,
  kKMN,
  kMNK,
  kMKN,
};

const char* loop_order_name(LoopOrder order);

/// Micro-tiling strategy selector (autoGEMM uses DMT; the static modes
/// exist so the baselines and the ablation benches share one executor).
enum class TilingMode { kDynamic, kStaticOpenBLAS, kStaticLIBXSMM };

/// How the multithreaded driver partitions the problem (see core/gemm.hpp).
/// kBlocksOnly schedules C cache blocks, each worker running the full K
/// loop — the paper's scheme, which starves the pool when mi*nj is small.
/// kKSplit additionally partitions the K block range into slices with
/// per-slice partial-C accumulation and a deterministic tree reduction —
/// the large-K, small-M·N rescue. kAuto picks per shape and pool size
/// (the heuristic lives in choose_parallel_strategy).
enum class ParallelStrategy : int { kAuto = 0, kBlocksOnly, kKSplit };

const char* parallel_strategy_name(ParallelStrategy s);

struct GemmConfig {
  int mc = 64;
  int nc = 256;
  int kc = 256;
  LoopOrder loop_order = LoopOrder::kNKM;
  kernels::Packing packing = kernels::Packing::kOnline;
  TilingMode tiling = TilingMode::kDynamic;
  ParallelStrategy parallel_strategy = ParallelStrategy::kAuto;
  /// Hardware model that steers DMT's compute/memory-bound classification
  /// and the model costs; defaults to a host-neutral profile.
  hw::HardwareModel hw{};
  /// Kernel backend the config is generated, verified and priced against
  /// (see backend/backend.hpp). Host execution always runs the backend's
  /// compiled kernels when it has them and the portable tile path
  /// otherwise, so the NEON default keeps legacy behavior bit-for-bit.
  backend::BackendId backend = backend::BackendId::kNeon;
};

/// Heuristic parameter choice for a problem shape (the fallback when no
/// tuned record exists): blocks sized to the hardware model's cache
/// hierarchy, clamped to the problem.
GemmConfig default_config(int m, int n, int k);

class Plan {
 public:
  /// Throwing constructor (std::invalid_argument on a bad shape/config);
  /// the Status-reporting path is create() below.
  Plan(int m, int n, int k, GemmConfig config);

  /// Validated construction: rejects non-positive dimensions and
  /// non-positive blocking parameters as kInvalidArgument, and converts
  /// any internal tiling/model failure into kInternal instead of
  /// propagating an exception. This is what Context uses, so a corrupted
  /// tuned record can never abort the process.
  static StatusOr<Plan> create(int m, int n, int k, GemmConfig config);

  int m() const { return m_; }
  int n() const { return n_; }
  int k() const { return k_; }
  const GemmConfig& config() const { return cfg_; }

  /// Micro-tile decomposition for a cache block of shape (bm x bn) at depth
  /// bk (memoized across the at-most-eight distinct edge combinations).
  /// The constructor visits every block of the problem, so all shapes the
  /// executors will request are precomputed and concurrent gemm calls
  /// sharing one Plan (e.g. through a Context's cache) only read the memo;
  /// requesting a *novel* block shape from multiple threads is not safe.
  const tiling::TilingResult& block_tiling(int bm, int bn, int bk) const;

  /// Model-projected cycles for the whole problem on the plan's hardware
  /// model (used by the tuner to rank candidate configurations).
  double projected_cycles() const { return projected_cycles_; }

 private:
  int m_, n_, k_;
  GemmConfig cfg_;
  mutable std::map<std::array<int, 3>, tiling::TilingResult> tilings_;
  double projected_cycles_ = 0;

  tiling::TilingResult compute_tiling(int bm, int bn, int bk) const;
};

}  // namespace autogemm
