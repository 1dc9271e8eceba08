// Batched GEMM.
//
// DL inference issues many small GEMMs per step (the paper's motivating
// workload); batching lets the thread pool parallelize *across* problems
// — parallelism that is available even when each problem is too small to
// split on its own (single problems large enough in K go through the
// k-split path instead; see core/gemm.hpp).
//
// Two callers share this path: dnn::graph batched model execution and the
// serve engine's shape-bucketed dispatch (src/serve/). Both route through
// Context::run_batched, which validates the whole batch (including
// cross-member aliasing, via validate_batch below) before any C is
// written and reports through Status instead of asserting.
#pragma once

#include <vector>

#include "common/dtype.hpp"
#include "common/matrix.hpp"
#include "common/status.hpp"
#include "core/gemm_ex.hpp"

namespace autogemm {

/// One member: C += A * B at `dtype`. An int8 member is
/// C += deq(q(A) * q(B)) with B promised constant, exactly as
/// Context::run_const_b_i8 at alpha = beta = 1.
struct BatchItem {
  common::ConstMatrixView a;
  common::ConstMatrixView b;
  common::MatrixView c;
  common::DType dtype = common::DType::kF32;
};

/// True when the two views' element ranges can overlap in memory. The
/// check is conservative: a view's range is the contiguous span from its
/// first to its last addressable element, so the ld gap between rows
/// counts as part of the span (two interleaved column blocks of one
/// parent matrix report overlap even though their elements are disjoint).
/// Row blocks of a shared parent are correctly seen as disjoint. Views
/// with a zero extent or a null pointer never overlap anything.
bool views_overlap(common::ConstMatrixView x, common::ConstMatrixView y);

/// The one operand validator for C = alpha * op(A) * op(B) + beta * C,
/// behind every Context entry point and every batch member: finite alpha
/// and beta, non-negative dims, leading dims at least the row width, no
/// null pointer with nonzero extent, op(A) and op(B) agreeing on K, C
/// matching op(A)*op(B), and C not overlapping A or B (views_overlap's
/// range rule: a C that shares even one row with an input would read
/// operand data it has already overwritten). A non-negative `item`
/// prefixes each message with "batch item <item>: ". Writes nothing and
/// allocates nothing on the OK path.
Status validate_operands(common::ConstMatrixView a, common::ConstMatrixView b,
                         common::MatrixView c, const GemmExParams& params = {},
                         long item = -1);

/// validate_operands for one canonical batch member (no transposes,
/// alpha = beta = 1), plus its dtype: only f32 and i8 have an execution
/// path. What the serve engine checks at admission; a non-negative
/// `index` prefixes messages as validate_operands' `item` does.
Status validate_batch_item(const BatchItem& item, long index = -1);

/// Validates a whole batch: every member individually, then cross-member
/// aliasing — no member's C may overlap another member's A, B or C
/// (members run concurrently and in unspecified order). Shared *read*
/// operands (the same A or B view appearing in many members) are legal
/// and are what the serve engine's shape buckets exploit. Returns the
/// first violation found, naming the item index; nothing is written by
/// validation.
Status validate_batch(const std::vector<BatchItem>& items);

/// Indices of members whose C overlaps another member's A, B or C — the
/// set validate_batch's cross-member pass would reject (both sides of
/// each overlapping pair are reported). The serve engine uses this to
/// demote conflicting members to single-shot dispatches instead of
/// failing the whole batch. O(B log B) in the batch size.
std::vector<std::size_t> find_cross_member_conflicts(
    const std::vector<BatchItem>& items);

}  // namespace autogemm
