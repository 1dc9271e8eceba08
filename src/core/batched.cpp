#include "core/batched.hpp"

#include <algorithm>
#include <string>


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

Status check_member_view(ConstMatrixView v, const char* who, std::size_t i) {
  const std::string where =
      std::string("batch item ") + std::to_string(i) + ": " + who;
  if (v.rows < 0 || v.cols < 0)
    return InvalidArgumentError(where + ": negative dimension");
  if (v.data == nullptr && v.rows > 0 && v.cols > 0)
    return InvalidArgumentError(where + ": null data pointer with nonzero extent");
  if (v.rows > 1 && v.ld < v.cols)
    return InvalidArgumentError(where + ": leading dimension below row width");
  return Status::OK();
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

namespace {

/// The per-member half of validate_batch, allocation-free on the OK path
/// (the serve engine runs this on every admission).
Status check_item(const BatchItem& it, std::size_t i) {
  AUTOGEMM_RETURN_IF_ERROR(check_member_view(it.a, "A", i));
  AUTOGEMM_RETURN_IF_ERROR(check_member_view(it.b, "B", i));
  AUTOGEMM_RETURN_IF_ERROR(check_member_view(ConstMatrixView(it.c), "C", i));
  if (it.a.cols != it.b.rows)
    return InvalidArgumentError(
        "batch item " + std::to_string(i) + ": inner dimensions disagree (A is " +
        std::to_string(it.a.rows) + "x" + std::to_string(it.a.cols) +
        ", B is " + std::to_string(it.b.rows) + "x" +
        std::to_string(it.b.cols) + ")");
  if (it.c.rows != it.a.rows || it.c.cols != it.b.cols)
    return InvalidArgumentError(
        "batch item " + std::to_string(i) + ": C is " +
        std::to_string(it.c.rows) + "x" + std::to_string(it.c.cols) +
        " but A*B is " + std::to_string(it.a.rows) + "x" +
        std::to_string(it.b.cols));
  const ConstMatrixView c_read(it.c);
  if (views_overlap(c_read, it.a) || views_overlap(c_read, it.b))
    return InvalidArgumentError(
        "batch item " + std::to_string(i) +
        ": C overlaps an input operand (in-place GEMM is not supported)");
  return Status::OK();
}

}  // namespace

Status validate_batch_item(const BatchItem& item) {
  return check_item(item, 0);
}

Status validate_batch(const std::vector<BatchItem>& items) {
  for (std::size_t i = 0; i < items.size(); ++i)
    AUTOGEMM_RETURN_IF_ERROR(check_item(items[i], i));
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
