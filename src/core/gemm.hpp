// autoGEMM free-function entry points.
//
// ## Accumulate vs. overwrite — the one place these semantics are defined
//
// Every entry point in this library is a special case of the BLAS form
//
//     C = alpha * op(A) * op(B) + beta * C
//
// (see core/gemm_ex.hpp). The two common cases get names:
//
//   * `gemm(...)`            == alpha = 1, beta = 1:  C += A * B
//   * `gemm_overwrite(...)`  == alpha = 1, beta = 0:  C  = A * B
//
// `gemm_overwrite` routes through the same beta handling as `gemm_ex`
// (beta = 0 means C's prior contents are ignored, never read — NaNs and
// uninitialized storage in C are fine). Shapes: op(A) is M x K, op(B) is
// K x N, C is M x N, all row-major views with arbitrary leading dimensions.
//
// These free functions are thin wrappers over a process-wide
// `autogemm::Context` (core/context.hpp), which is the primary API: it
// caches one Plan per shape and packed constant operands across calls.
// Construct your own Context to control cache sizes, threading, and tuned
// parameter records.
#pragma once

#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/matrix.hpp"
#include "common/status.hpp"
#include "common/threadpool.hpp"
#include "core/gemm_ex.hpp"
#include "core/plan.hpp"

namespace autogemm {

/// B packed offline into cache-block-contiguous layout (sigma_packing =
/// offline). Built once per (B, plan) pair and reused across gemm calls —
/// the mode the ResNet-50 evaluation uses for constant weight matrices.
class PackedB {
 public:
  PackedB() = default;
  PackedB(common::ConstMatrixView b, const Plan& plan);

  /// Validated construction: rejects a view that does not match the plan's
  /// (K, N) or has a bad leading dimension / null data (kInvalidArgument),
  /// and reports allocation failure as kResourceExhausted instead of
  /// throwing.
  static StatusOr<PackedB> create(common::ConstMatrixView b, const Plan& plan);

  const float* block(int p_idx, int j_idx) const;
  long block_ld() const { return ld_; }
  bool empty() const { return data_.empty(); }

 private:
  common::AlignedBuffer data_;  // uninitialized; padding edges zeroed by ctor
  std::vector<std::size_t> offsets_;
  int kblocks_ = 0, nblocks_ = 0;
  long ld_ = 0;
};

/// A packed offline the same way — the mirror of PackedB for workloads
/// whose *left* operand is the constant one (conv-as-GEMM puts the weight
/// matrix in A: output = weights x im2col). Built once per (A, plan) pair.
class PackedA {
 public:
  PackedA() = default;
  PackedA(common::ConstMatrixView a, const Plan& plan);

  /// Validated construction mirroring PackedB::create (view must be the
  /// plan's (M, K)).
  static StatusOr<PackedA> create(common::ConstMatrixView a, const Plan& plan);

  const float* block(int i_idx, int p_idx) const;
  long block_ld() const { return ld_; }
  bool empty() const { return data_.empty(); }

 private:
  common::AlignedBuffer data_;  // uninitialized; padding edges zeroed by ctor
  std::vector<std::size_t> offsets_;
  int mblocks_ = 0, kblocks_ = 0;
  long ld_ = 0;
};

/// Resolves the plan's parallel strategy against a pool of `workers`
/// threads (the caller participates too, so `workers + 1` lanes run).
/// A forced strategy in the plan's config wins, except that k-split
/// degrades to blocks-only when there are fewer than two K blocks.
/// kAuto picks k-split only when C blocks alone would starve the pool
/// (mi*nj < 2x the participant count), K is deep enough to slice, and
/// the partial-C footprint fits the last-level cache budget.
ParallelStrategy choose_parallel_strategy(const Plan& plan, unsigned workers);

/// C += A * B following the plan. `pool` enables the multithreaded path.
/// Scheduling follows the plan's ParallelStrategy: blocks-only treats
/// cache blocks of C as the work unit (the paper's scheme); k-split also
/// partitions the K block range across workers with per-slice partial-C
/// accumulation and a deterministic tree reduction, rescuing large-K
/// shapes whose mi*nj cannot feed the pool. Runs detail::execute on a
/// call-local workspace, so every call allocates its scratch (a Context
/// keeps it); a scratch allocation failure throws std::bad_alloc with C
/// untouched.
void gemm(common::ConstMatrixView a, common::ConstMatrixView b,
          common::MatrixView c, const Plan& plan,
          common::ThreadPool* pool = nullptr);

/// Convenience: C += A * B through the process-default Context (cached
/// per-shape plan, serial execution); returns its run() Status.
[[nodiscard]] Status gemm(common::ConstMatrixView a, common::ConstMatrixView b,
                          common::MatrixView c);

/// Convenience: C = A * B (beta = 0; see the semantics note above).
[[nodiscard]] Status gemm_overwrite(common::ConstMatrixView a,
                                    common::ConstMatrixView b,
                                    common::MatrixView c);

namespace detail {

/// One member of a same-shape group; every member matches the group
/// plan's logical (M, N, K).
struct GroupMember {
  common::ConstMatrixView a;
  common::ConstMatrixView b;
  common::MatrixView c;
};

/// The library's one fp32 executor — the blocked loop nest every entry
/// point runs: C_i += alpha * op(A_i) * op(B_i) for `count` members sharing
/// `plan` (beta is the caller's: apply it to C first, as gemm_ex and
/// Context do). Views are the stored operands, so with trans_a == kYes a
/// member's `a` is K x M. Transposition and alpha are applied while
/// packing, so a non-canonical call packs online whatever the plan's
/// sigma_packing; `packed_a`/`packed_b` (either may be null) carry an
/// offline-packed operand shared by every member and need a canonical
/// call. With a pool of more than one worker a single member is split
/// over the pool per choose_parallel_strategy, and several members run
/// member-parallel: each whole, through the serial loop nest, on one
/// participant. Without such a pool the members run back-to-back on the
/// calling thread. Either way one packing scratch per participant serves
/// every member, so the per-call fixed costs (span setup, scratch layout)
/// are paid once per call — the batched path's amortization. All scratch
/// (packing blocks, their records, k-split's partial Cs) is cut from `ws`,
/// grown once at the top, before any C is written; nothing else in the
/// call allocates. So a std::bad_alloc from execute always means no C was
/// touched, and a warm workspace makes the call allocation-free. A member
/// whose op(A) is not M x K, op(B) not K x N or C not M x N for the plan
/// throws std::invalid_argument; any other throw (a worker fault) may
/// leave C partial.
void execute(const GroupMember* members, std::size_t count,
             const PackedA* packed_a, const PackedB* packed_b,
             const GemmExParams& params, const Plan& plan,
             common::ThreadPool* pool, common::Workspace& ws);

}  // namespace detail

}  // namespace autogemm
