#include "core/batched.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

namespace autogemm {

namespace {

using common::ConstMatrixView;

/// Half-open element range [begin, end) covered by a view, nullptr/0 for
/// empty views. The end is the address one past the last element of the
/// last row, so ld gaps inside the span are (conservatively) included.
std::pair<const float*, const float*> view_range(ConstMatrixView v) {
  if (v.data == nullptr || v.rows <= 0 || v.cols <= 0)
    return {nullptr, nullptr};
  return {v.data, v.data + static_cast<std::ptrdiff_t>(v.rows - 1) * v.ld +
                      v.cols};
}

/// One cross-member overlap: member `c_item`'s C against member
/// `other_item`'s C (other_is_c) or input operand.
struct Conflict {
  std::size_t c_item;
  std::size_t other_item;
  bool other_is_c;
};

/// All cross-member overlaps involving a C, found by sorting the C
/// element ranges and sweeping — O(B log B) instead of the quadratic
/// pair scan, which dominated dispatch cost at serve-engine batch sizes.
std::vector<Conflict> cross_member_conflicts(
    const std::vector<BatchItem>& items) {
  std::vector<Conflict> out;
  struct CRange {
    const float* b;
    const float* e;
    std::size_t item;
  };
  std::vector<CRange> cs;
  cs.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto [b, e] = view_range(ConstMatrixView(items[i].c));
    if (b != nullptr) cs.push_back({b, e, i});
  }
  std::sort(cs.begin(), cs.end(),
            [](const CRange& x, const CRange& y) { return x.b < y.b; });

  // C-vs-C: after the sort, an overlap shows up against the running
  // max-end range.
  bool cc_conflict = false;
  for (std::size_t k = 1, widest = 0; k < cs.size(); ++k) {
    if (cs[k].b < cs[widest].e) {
      out.push_back({cs[widest].item, cs[k].item, true});
      cc_conflict = true;
    }
    if (cs[k].e > cs[widest].e) widest = k;
  }

  // Inputs vs C. With pairwise-disjoint Cs the sorted begins imply
  // sorted ends, so the overlapping run is found by binary search; on
  // the (already failing) C-C conflict path fall back to a linear scan.
  for (std::size_t j = 0; j < items.size(); ++j) {
    for (const ConstMatrixView* v : {&items[j].a, &items[j].b}) {
      const auto [qb, qe] = view_range(*v);
      if (qb == nullptr) continue;
      auto it = cc_conflict
                    ? cs.begin()
                    : std::upper_bound(
                          cs.begin(), cs.end(), qb,
                          [](const float* p, const CRange& r) { return p < r.e; });
      for (; it != cs.end(); ++it) {
        if (!cc_conflict && it->b >= qe) break;
        if (it->item != j && it->b < qe && it->e > qb)
          out.push_back({it->item, j, false});
      }
    }
  }
  return out;
}

}  // namespace

bool views_overlap(ConstMatrixView x, ConstMatrixView y) {
  const auto [xb, xe] = view_range(x);
  const auto [yb, ye] = view_range(y);
  if (xb == nullptr || yb == nullptr) return false;
  return xb < ye && yb < xe;
}

Status validate_operands(ConstMatrixView a, ConstMatrixView b,
                         common::MatrixView c, const GemmExParams& params,
                         long item) {
  const auto fail = [item](const std::string& what) {
    return InvalidArgumentError(
        item < 0 ? what
                 : "batch item " + std::to_string(item) + ": " + what);
  };
  if (!std::isfinite(params.alpha) || !std::isfinite(params.beta))
    return fail(
        "non-finite alpha/beta would poison all of C (matrix contents are "
        "never scanned; scalar parameters are — see common/status.hpp)");
  const ConstMatrixView c_read(c);
  const std::pair<ConstMatrixView, const char*> views[] = {
      {a, "A"}, {b, "B"}, {c_read, "C"}};
  for (const auto& [v, who] : views) {
    if (v.rows < 0 || v.cols < 0)
      return fail(std::string(who) + ": negative dimension");
    if (v.data == nullptr && v.rows > 0 && v.cols > 0)
      return fail(std::string(who) + ": null data pointer with nonzero extent");
    if (v.rows > 1 && v.ld < v.cols)
      return fail(std::string(who) + ": leading dimension below row width");
  }
  const int m = params.trans_a == Trans::kNo ? a.rows : a.cols;
  const int ka = params.trans_a == Trans::kNo ? a.cols : a.rows;
  const int kb = params.trans_b == Trans::kNo ? b.rows : b.cols;
  const int n = params.trans_b == Trans::kNo ? b.cols : b.rows;
  if (ka != kb)
    return fail("inner dimensions disagree (op(A) is " + std::to_string(m) +
                "x" + std::to_string(ka) + ", op(B) is " + std::to_string(kb) +
                "x" + std::to_string(n) + ")");
  if (c.rows != m || c.cols != n)
    return fail("C is " + std::to_string(c.rows) + "x" +
                std::to_string(c.cols) + " but op(A)*op(B) is " +
                std::to_string(m) + "x" + std::to_string(n));
  if (views_overlap(c_read, a) || views_overlap(c_read, b))
    return fail("C overlaps an input operand (in-place GEMM is not supported)");
  return Status::OK();
}

Status validate_batch_item(const BatchItem& item, long index) {
  AUTOGEMM_RETURN_IF_ERROR(
      validate_operands(item.a, item.b, item.c, {}, index));
  if (item.dtype == common::DType::kF32 || item.dtype == common::DType::kI8)
    return Status::OK();
  return InvalidArgumentError(
      (index < 0 ? "" : "batch item " + std::to_string(index) + ": ") +
      "dtype \"" + common::dtype_name(item.dtype) +
      "\" has no execution path (executable: f32, i8)");
}

Status validate_batch(const std::vector<BatchItem>& items) {
  for (std::size_t i = 0; i < items.size(); ++i)
    AUTOGEMM_RETURN_IF_ERROR(
        validate_batch_item(items[i], static_cast<long>(i)));
  // Cross-member aliasing: every C must be disjoint from every *other*
  // member's operands. Shared read operands (the common case the batched
  // path optimizes for) are explicitly legal.
  const std::vector<Conflict> conflicts = cross_member_conflicts(items);
  if (!conflicts.empty()) {
    const Conflict& c = conflicts.front();
    if (c.other_is_c) {
      const std::size_t lo = std::min(c.c_item, c.other_item);
      const std::size_t hi = std::max(c.c_item, c.other_item);
      return InvalidArgumentError(
          "batch items " + std::to_string(lo) + " and " + std::to_string(hi) +
          ": C outputs overlap (each C must be written by exactly one "
          "member)");
    }
    return InvalidArgumentError(
        "batch item " + std::to_string(c.c_item) + ": C overlaps item " +
        std::to_string(c.other_item) +
        "'s input operand (members run concurrently; a C that feeds "
        "another member must go in a later batch)");
  }
  return Status::OK();
}

std::vector<std::size_t> find_cross_member_conflicts(
    const std::vector<BatchItem>& items) {
  std::vector<std::size_t> out;
  for (const Conflict& c : cross_member_conflicts(items)) {
    out.push_back(c.c_item);
    out.push_back(c.other_item);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace autogemm
