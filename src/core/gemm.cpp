#include "core/gemm.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "core/context.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/packing.hpp"
#include "obs/trace.hpp"

namespace autogemm {
namespace {

using common::ConstMatrixView;
using common::MatrixView;

int ceil_div(int a, int b) { return (a + b - 1) / b; }

// Executes every micro-tile of one cache block. a/b point at the block
// origin (packed scratch or a window into the source matrices).
void run_block(const tiling::TilingResult& tiles, const float* a, long lda,
               const float* b, long ldb, float* c, long ldc, int bk) {
  // Phase span at cache-block granularity: one per run_block call, not per
  // micro-tile — coarse enough that a disabled-tracing check costs one
  // branch per block (see bench_obs_overhead).
  obs::SpanScope span("kernel", tiles.tiles.size(), static_cast<unsigned>(bk));
  for (const auto& t : tiles.tiles) {
    kernels::run_tile(t.rows_used, t.cols_used,
                      a + static_cast<long>(t.row) * lda, lda, b + t.col, ldb,
                      c + static_cast<long>(t.row) * ldc + t.col, ldc, bk);
  }
}

// Per-worker scratch for online packing, reused across blocks.
struct Scratch {
  common::AlignedBuffer a_buf;
  common::AlignedBuffer b_buf;
  int a_block_i = -1, a_block_p = -1;  // ids of currently packed blocks
  int b_block_p = -1, b_block_j = -1;

  Scratch(const Plan& plan)
      : a_buf(static_cast<std::size_t>(plan.config().mc) * plan.config().kc),
        b_buf(static_cast<std::size_t>(plan.config().kc) * plan.config().nc) {}
};

// One (i, j, p) cache-block step of the blocked loop nest. Either operand
// may come pre-packed (offline); the others fall back to the plan's
// sigma_packing (online scratch or direct strided views).
void block_step(ConstMatrixView a, ConstMatrixView b, const PackedA* packed_a,
                const PackedB* packed_b, MatrixView c, const Plan& plan,
                Scratch& scratch, int bi, int bj, int bp) {
  const GemmConfig& cfg = plan.config();
  const int i0 = bi * cfg.mc, j0 = bj * cfg.nc, p0 = bp * cfg.kc;
  const int bm = std::min(cfg.mc, a.rows - i0);
  const int bn = std::min(cfg.nc, b.cols - j0);
  const int bk = std::min(cfg.kc, a.cols - p0);

  const float* a_ptr;
  long lda;
  const float* b_ptr;
  long ldb;
  const bool pack = cfg.packing == kernels::Packing::kOnline;
  if (packed_a != nullptr) {
    a_ptr = packed_a->block(bi, bp);
    lda = packed_a->block_ld();
  } else if (pack) {
    if (scratch.a_block_i != bi || scratch.a_block_p != bp) {
      obs::SpanScope span("pack_a", static_cast<unsigned>(bi),
                          static_cast<unsigned>(bp));
      kernels::pack_block(a.block(i0, p0, bm, bk), scratch.a_buf.data(), bk);
      scratch.a_block_i = bi;
      scratch.a_block_p = bp;
    }
    a_ptr = scratch.a_buf.data();
    lda = bk;
  } else {
    a_ptr = a.data + static_cast<long>(i0) * a.ld + p0;
    lda = a.ld;
  }
  if (packed_b != nullptr) {
    b_ptr = packed_b->block(bp, bj);
    ldb = packed_b->block_ld();
  } else if (pack) {
    if (scratch.b_block_p != bp || scratch.b_block_j != bj) {
      obs::SpanScope span("pack_b", static_cast<unsigned>(bp),
                          static_cast<unsigned>(bj));
      kernels::pack_block(b.block(p0, j0, bk, bn), scratch.b_buf.data(), bn);
      scratch.b_block_p = bp;
      scratch.b_block_j = bj;
    }
    b_ptr = scratch.b_buf.data();
    ldb = bn;
  } else {
    b_ptr = b.data + static_cast<long>(p0) * b.ld + j0;
    ldb = b.ld;
  }

  float* c_ptr = c.data + static_cast<long>(i0) * c.ld + j0;
  run_block(plan.block_tiling(bm, bn, bk), a_ptr, lda, b_ptr, ldb, c_ptr, c.ld,
            bk);
}

// Maps the loop order to a (dim0, dim1, dim2) permutation of (M, N, K)
// block indices; dimension codes: 0 = i (M), 1 = j (N), 2 = p (K).
std::array<int, 3> order_permutation(LoopOrder order) {
  switch (order) {
    case LoopOrder::kNKM: return {1, 2, 0};
    case LoopOrder::kNMK: return {1, 0, 2};
    case LoopOrder::kKNM: return {2, 1, 0};
    case LoopOrder::kKMN: return {2, 0, 1};
    case LoopOrder::kMNK: return {0, 1, 2};
    case LoopOrder::kMKN: return {0, 2, 1};
  }
  return {1, 2, 0};
}

// Shared loop nest over one member, with a caller-owned scratch (the
// group path reuses it across members; see detail::gemm_group_serial).
void run_member(ConstMatrixView a, ConstMatrixView b, const PackedA* packed_a,
                const PackedB* packed_b, MatrixView c, const Plan& plan,
                Scratch& scratch) {
  const GemmConfig& cfg = plan.config();
  const int nblk[3] = {ceil_div(plan.m(), cfg.mc), ceil_div(plan.n(), cfg.nc),
                       ceil_div(plan.k(), cfg.kc)};
  const auto perm = order_permutation(cfg.loop_order);
  int idx[3];  // block index per dimension code
  for (int x = 0; x < nblk[perm[0]]; ++x) {
    for (int y = 0; y < nblk[perm[1]]; ++y) {
      for (int z = 0; z < nblk[perm[2]]; ++z) {
        idx[perm[0]] = x;
        idx[perm[1]] = y;
        idx[perm[2]] = z;
        block_step(a, b, packed_a, packed_b, c, plan, scratch, idx[0], idx[1],
                   idx[2]);
      }
    }
  }
}

void execute_single(ConstMatrixView a, ConstMatrixView b,
                    const PackedA* packed_a, const PackedB* packed_b,
                    MatrixView c, const Plan& plan) {
  obs::SpanScope span("gemm.serial", static_cast<unsigned>(plan.m()),
                      static_cast<unsigned>(plan.n()));
  Scratch scratch(plan);
  run_member(a, b, packed_a, packed_b, c, plan, scratch);
}

// Scratch slot for the current thread: workers map to [0, size()), the
// caller (which also runs chunks inside parallel_for) to size().
int worker_slot(const common::ThreadPool& pool) {
  const int idx = common::ThreadPool::worker_index();
  if (idx < 0 || idx > static_cast<int>(pool.size()))
    return static_cast<int>(pool.size());
  return idx;
}

// One packing scratch per participant, built up front so the parallel
// region itself never allocates (a per-block Scratch used to be created
// inside the loop body, costing two aligned allocations per C block).
std::vector<Scratch> make_scratch(const Plan& plan,
                                  const common::ThreadPool& pool) {
  std::vector<Scratch> scratch;
  scratch.reserve(pool.participants());
  for (unsigned s = 0; s < pool.participants(); ++s) scratch.emplace_back(plan);
  return scratch;
}

void execute_parallel_blocks(ConstMatrixView a, ConstMatrixView b,
                             const PackedA* packed_a, const PackedB* packed_b,
                             MatrixView c, const Plan& plan,
                             common::ThreadPool& pool) {
  const GemmConfig& cfg = plan.config();
  const int mi = ceil_div(plan.m(), cfg.mc);
  const int nj = ceil_div(plan.n(), cfg.nc);
  const int kp = ceil_div(plan.k(), cfg.kc);
  // C blocks are the scheduling unit; each worker runs the full K loop for
  // its blocks. When mi*nj is too small to feed the pool (the large-K,
  // small-M·N regime), execute() routes to the k-split path instead.
  obs::SpanScope span("gemm.blocks", static_cast<unsigned>(mi * nj),
                      static_cast<unsigned>(kp));
  std::vector<Scratch> scratch = make_scratch(plan, pool);
  const bool traced = obs::trace_enabled();
  pool.parallel_for(mi * nj, [&](int block) {
    const int bi = block / nj;
    const int bj = block % nj;
    const int slot = worker_slot(pool);
    if (traced) obs::name_this_lane_worker(slot, pool.participants());
    Scratch& sc = scratch[slot];
    for (int bp = 0; bp < kp; ++bp)
      block_step(a, b, packed_a, packed_b, c, plan, sc, bi, bj, bp);
  });
}

// K-split path: the K block range [0, kp) is partitioned into `slices`
// contiguous ranges, each accumulating into its own zero-initialized
// partial-C buffer, and every (slice, C block) pair is a schedulable
// task. A fixed-order pairwise tree reduction then folds the partials
// into C. The task -> output mapping and the reduction order depend only
// on the plan and the slice count — never on which thread ran what — so
// the result is bitwise-stable for a fixed pool size.
void execute_parallel_ksplit(ConstMatrixView a, ConstMatrixView b,
                             const PackedA* packed_a, const PackedB* packed_b,
                             MatrixView c, const Plan& plan,
                             common::ThreadPool& pool) {
  const GemmConfig& cfg = plan.config();
  const int mi = ceil_div(plan.m(), cfg.mc);
  const int nj = ceil_div(plan.n(), cfg.nc);
  const int kp = ceil_div(plan.k(), cfg.kc);
  const int slices = std::min(static_cast<int>(pool.participants()), kp);
  const int m = plan.m(), n = plan.n();
  const std::size_t csize = static_cast<std::size_t>(m) * n;
  common::AlignedBuffer partials(csize * static_cast<std::size_t>(slices));
  std::vector<Scratch> scratch = make_scratch(plan, pool);

  // Slice s owns K blocks [s*kp/slices, (s+1)*kp/slices).
  const auto slice_begin = [kp, slices](int s) {
    return static_cast<int>(static_cast<long>(s) * kp / slices);
  };

  const int blocks = mi * nj;
  obs::SpanScope span("gemm.ksplit", static_cast<unsigned>(slices),
                      static_cast<unsigned>(kp));
  const bool traced = obs::trace_enabled();
  pool.parallel_for(slices * blocks, [&](int task) {
    const int s = task / blocks;
    const int bi = (task % blocks) / nj;
    const int bj = (task % blocks) % nj;
    MatrixView partial{partials.data() + csize * s, m, n, n};
    const int slot = worker_slot(pool);
    if (traced) obs::name_this_lane_worker(slot, pool.participants());
    obs::SpanScope slice_span("ksplit.slice", static_cast<unsigned>(s),
                              static_cast<unsigned>(task % blocks));
    Scratch& sc = scratch[slot];
    for (int bp = slice_begin(s); bp < slice_begin(s + 1); ++bp)
      block_step(a, b, packed_a, packed_b, partial, plan, sc, bi, bj, bp);
  });

  // Reduction, parallel over C rows: partials fold pairwise with stride
  // doubling (0 += 1, 2 += 3, ..., then 0 += 2, ...), then C += partial 0.
  // The fold order is fixed by `slices` alone.
  pool.parallel_for(m, [&](int r) {
    if (traced) obs::name_this_lane_worker(worker_slot(pool),
                                           pool.participants());
    obs::SpanScope reduce_span("reduce", static_cast<unsigned>(r),
                               static_cast<unsigned>(slices));
    const std::size_t row = static_cast<std::size_t>(r) * n;
    for (int stride = 1; stride < slices; stride *= 2) {
      for (int s = 0; s + stride < slices; s += 2 * stride) {
        float* dst = partials.data() + csize * s + row;
        const float* src = partials.data() + csize * (s + stride) + row;
        for (int j = 0; j < n; ++j) dst[j] += src[j];
      }
    }
    float* crow = c.data + static_cast<long>(r) * c.ld;
    const float* prow = partials.data() + row;
    for (int j = 0; j < n; ++j) crow[j] += prow[j];
  });
}

void execute(ConstMatrixView a, ConstMatrixView b, const PackedA* packed_a,
             const PackedB* packed_b, MatrixView c, const Plan& plan,
             common::ThreadPool* pool) {
  if (pool == nullptr || pool->size() <= 1) {
    execute_single(a, b, packed_a, packed_b, c, plan);
    return;
  }
  if (choose_parallel_strategy(plan, pool->size()) ==
      ParallelStrategy::kKSplit) {
    try {
      execute_parallel_ksplit(a, b, packed_a, packed_b, c, plan, *pool);
      return;
    } catch (const std::bad_alloc&) {
      // The per-slice partial-C accumulators did not fit in memory; the
      // blocks-only schedule needs no extra C storage. Falling back is
      // safe because k-split touches C only in its reduction phase, which
      // runs strictly after the (allocating) setup succeeded.
    }
  }
  execute_parallel_blocks(a, b, packed_a, packed_b, c, plan, *pool);
}

void check_shapes(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                  const Plan& plan) {
  if (a.rows != plan.m() || a.cols != plan.k() || b.rows != plan.k() ||
      b.cols != plan.n() || c.rows != plan.m() || c.cols != plan.n())
    throw std::invalid_argument("gemm: views do not match the plan's shape");
}

}  // namespace

ParallelStrategy choose_parallel_strategy(const Plan& plan, unsigned workers) {
  const GemmConfig& cfg = plan.config();
  const int mi = ceil_div(plan.m(), cfg.mc);
  const int nj = ceil_div(plan.n(), cfg.nc);
  const int kp = ceil_div(plan.k(), cfg.kc);
  // With a single K block there is nothing to slice — even a forced
  // k-split degrades to the blocks schedule rather than spending a
  // partial-C buffer on a no-op reduction.
  if (kp < 2) return ParallelStrategy::kBlocksOnly;
  if (cfg.parallel_strategy != ParallelStrategy::kAuto)
    return cfg.parallel_strategy;
  const int participants = static_cast<int>(workers) + 1;  // pool + caller
  // Enough C blocks to keep every lane busy with slack for load imbalance:
  // the paper's scheme is strictly cheaper (no partial buffers, no
  // reduction pass), so prefer it whenever it can saturate the pool.
  if (mi * nj >= 2 * participants) return ParallelStrategy::kBlocksOnly;
  const int slices = std::min(participants, kp);
  // The partial-C accumulators are the price of k-split; if they overflow
  // the last-level cache the reduction traffic eats the win.
  const std::size_t footprint =
      static_cast<std::size_t>(plan.m()) * plan.n() * sizeof(float) * slices;
  const long budget =
      cfg.hw.caches.empty() ? (32l << 20) : cfg.hw.caches.back().size_bytes;
  if (footprint > static_cast<std::size_t>(budget))
    return ParallelStrategy::kBlocksOnly;
  return ParallelStrategy::kKSplit;
}

PackedB::PackedB(ConstMatrixView b, const Plan& plan) {
  const GemmConfig& cfg = plan.config();
  kblocks_ = ceil_div(plan.k(), cfg.kc);
  nblocks_ = ceil_div(plan.n(), cfg.nc);
  ld_ = cfg.nc;
  // Uninitialized storage: pack_block overwrites every interior element,
  // so only the padding edges of partial blocks need explicit zeroing
  // (a whole-buffer zero-fill wrote the packed size twice).
  data_ = common::AlignedBuffer(
      common::kUninitialized,
      static_cast<std::size_t>(kblocks_) * nblocks_ * cfg.kc * cfg.nc);
  offsets_.resize(static_cast<std::size_t>(kblocks_) * nblocks_);
  std::size_t off = 0;
  for (int bp = 0; bp < kblocks_; ++bp) {
    for (int bj = 0; bj < nblocks_; ++bj) {
      const int p0 = bp * cfg.kc, j0 = bj * cfg.nc;
      const int bk = std::min(cfg.kc, b.rows - p0);
      const int bn = std::min(cfg.nc, b.cols - j0);
      offsets_[static_cast<std::size_t>(bp) * nblocks_ + bj] = off;
      float* dst = data_.data() + off;
      kernels::pack_block(b.block(p0, j0, bk, bn), dst, ld_);
      if (bn < cfg.nc)
        for (int r = 0; r < bk; ++r)
          std::memset(dst + static_cast<long>(r) * ld_ + bn, 0,
                      static_cast<std::size_t>(cfg.nc - bn) * sizeof(float));
      if (bk < cfg.kc)
        std::memset(dst + static_cast<long>(bk) * ld_, 0,
                    static_cast<std::size_t>(cfg.kc - bk) * cfg.nc *
                        sizeof(float));
      off += static_cast<std::size_t>(cfg.kc) * cfg.nc;
    }
  }
}

const float* PackedB::block(int p_idx, int j_idx) const {
  return data_.data() +
         offsets_[static_cast<std::size_t>(p_idx) * nblocks_ + j_idx];
}

PackedA::PackedA(ConstMatrixView a, const Plan& plan) {
  const GemmConfig& cfg = plan.config();
  mblocks_ = ceil_div(plan.m(), cfg.mc);
  kblocks_ = ceil_div(plan.k(), cfg.kc);
  ld_ = cfg.kc;
  // Same padding-only zeroing as PackedB (see the note there).
  data_ = common::AlignedBuffer(
      common::kUninitialized,
      static_cast<std::size_t>(mblocks_) * kblocks_ * cfg.mc * cfg.kc);
  offsets_.resize(static_cast<std::size_t>(mblocks_) * kblocks_);
  std::size_t off = 0;
  for (int bi = 0; bi < mblocks_; ++bi) {
    for (int bp = 0; bp < kblocks_; ++bp) {
      const int i0 = bi * cfg.mc, p0 = bp * cfg.kc;
      const int bm = std::min(cfg.mc, a.rows - i0);
      const int bk = std::min(cfg.kc, a.cols - p0);
      offsets_[static_cast<std::size_t>(bi) * kblocks_ + bp] = off;
      float* dst = data_.data() + off;
      kernels::pack_block(a.block(i0, p0, bm, bk), dst, ld_);
      if (bk < cfg.kc)
        for (int r = 0; r < bm; ++r)
          std::memset(dst + static_cast<long>(r) * ld_ + bk, 0,
                      static_cast<std::size_t>(cfg.kc - bk) * sizeof(float));
      if (bm < cfg.mc)
        std::memset(dst + static_cast<long>(bm) * ld_, 0,
                    static_cast<std::size_t>(cfg.mc - bm) * cfg.kc *
                        sizeof(float));
      off += static_cast<std::size_t>(cfg.mc) * cfg.kc;
    }
  }
}

const float* PackedA::block(int i_idx, int p_idx) const {
  return data_.data() +
         offsets_[static_cast<std::size_t>(i_idx) * kblocks_ + p_idx];
}

namespace {

Status check_packable(common::ConstMatrixView v, int want_rows, int want_cols,
                      const char* who) {
  if (v.rows != want_rows || v.cols != want_cols)
    return InvalidArgumentError(std::string(who) +
                                ": view shape does not match the plan");
  if (v.ld < v.cols)
    return InvalidArgumentError(std::string(who) +
                                ": leading dimension below row width");
  if (v.data == nullptr && v.rows > 0 && v.cols > 0)
    return InvalidArgumentError(std::string(who) + ": null data pointer");
  return Status::OK();
}

}  // namespace

StatusOr<PackedB> PackedB::create(ConstMatrixView b, const Plan& plan) {
  AUTOGEMM_RETURN_IF_ERROR(check_packable(b, plan.k(), plan.n(), "PackedB"));
  try {
    return PackedB(b, plan);
  } catch (const std::bad_alloc&) {
    return ResourceExhaustedError("PackedB: allocation failed");
  }
}

StatusOr<PackedA> PackedA::create(ConstMatrixView a, const Plan& plan) {
  AUTOGEMM_RETURN_IF_ERROR(check_packable(a, plan.m(), plan.k(), "PackedA"));
  try {
    return PackedA(a, plan);
  } catch (const std::bad_alloc&) {
    return ResourceExhaustedError("PackedA: allocation failed");
  }
}

void gemm(ConstMatrixView a, ConstMatrixView b, MatrixView c, const Plan& plan,
          common::ThreadPool* pool) {
  check_shapes(a, b, c, plan);
  execute(a, b, nullptr, nullptr, c, plan, pool);
}

void gemm(ConstMatrixView a, const PackedB& packed_b,
          ConstMatrixView b_shape, MatrixView c, const Plan& plan,
          common::ThreadPool* pool) {
  check_shapes(a, b_shape, c, plan);
  execute(a, b_shape, nullptr, &packed_b, c, plan, pool);
}

void gemm(const PackedA& packed_a, ConstMatrixView a_shape, ConstMatrixView b,
          MatrixView c, const Plan& plan, common::ThreadPool* pool) {
  check_shapes(a_shape, b, c, plan);
  execute(a_shape, b, &packed_a, nullptr, c, plan, pool);
}

Status gemm(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  return default_context().run(a, b, c);
}

Status gemm_overwrite(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  GemmExParams params;
  params.beta = 0.0f;  // overwrite == the BLAS beta = 0 case, defined once
  return default_context().run(a, b, c, params);
}

namespace detail {

void gemm_group_serial(const GroupMember* members, std::size_t count,
                       const PackedA* packed_a, const PackedB* packed_b,
                       const Plan& plan, std::size_t* began) {
  if (began != nullptr) *began = 0;
  if (count == 0) return;
  obs::SpanScope span("gemm.group", static_cast<unsigned>(count),
                      static_cast<unsigned>(plan.m()));
  Scratch scratch(plan);
  for (std::size_t i = 0; i < count; ++i) {
    const GroupMember& m = members[i];
    check_shapes(m.a, m.b, m.c, plan);
    if (began != nullptr) *began = i + 1;
    // The scratch's packed-block ids describe the previous member's
    // operand buffers; invalidate them so a block packed from member
    // i-1's matrix is never reused for member i.
    scratch.a_block_i = scratch.a_block_p = -1;
    scratch.b_block_p = scratch.b_block_j = -1;
    run_member(m.a, m.b, packed_a, packed_b, m.c, plan, scratch);
  }
}

}  // namespace detail

}  // namespace autogemm
