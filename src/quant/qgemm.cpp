#include "quant/qgemm.hpp"

#include <algorithm>
#include <new>

#include "kernels/qkernel.hpp"
#include "kernels/qwide.hpp"
#include "obs/trace.hpp"
#include "quant/quantize.hpp"

namespace autogemm::quant {

namespace {

using kernels::QWideIsa;

Status validate_call(int m, int n, int k, const void* a_data, long a_ld,
                     const void* b_data, common::MatrixView c) {
  if (a_data == nullptr || b_data == nullptr || c.data == nullptr)
    return InvalidArgumentError("qgemm: null operand data");
  if (m <= 0 || n <= 0 || k <= 0)
    return InvalidArgumentError("qgemm: non-positive extent");
  if (c.rows != m || c.cols != n)
    return InvalidArgumentError("qgemm: C shape does not match A x B");
  if (a_ld < k || c.ld < c.cols)
    return InvalidArgumentError("qgemm: leading dimension < cols");
  return {};
}

/// How many C rows one task covers — bounds the SSE2 and portable tiers'
/// int32 accumulator so it stays cache-resident for large M.
constexpr int kRowBlock = 64;
constexpr int kPanel = kernels::kQWidePanel;

int ceil_div(int x, int y) { return (x + y - 1) / y; }

/// The kernels that run a call: the wide tier's (kernels/qwide.hpp) on
/// `isa`, the SSE2 int16 block kernel, or the portable reference
/// (force_portable).
enum class Tier { kWide, kSse2, kPortable };

}  // namespace

Status qgemm(common::ConstMatrixView a, common::ConstMatrixView b,
             common::MatrixView c, const QGemmOptions& opts,
             common::ThreadPool* pool) {
  if (Status s = validate_call(a.rows, b.cols, a.cols, a.data, a.ld, b.data, c);
      !s.ok())
    return s;
  if (a.cols != b.rows)
    return InvalidArgumentError("qgemm: inner dimensions disagree");
  auto qb = QPackedB::create(b, opts.granularity);
  if (!qb.ok()) return qb.status();
  return qgemm(a, *qb, c, opts, pool);
}

Status qgemm(common::ConstMatrixView a, const QPackedB& qb,
             common::MatrixView c, const QGemmOptions& opts,
             common::ThreadPool* pool) {
  common::Workspace ws;  // this entry keeps nothing between calls
  try {
    return qgemm(a, qb, c, opts, pool, ws);
  } catch (const std::bad_alloc&) {
    return ResourceExhaustedError("qgemm: scratch allocation failed");
  }
}

Status qgemm(common::ConstMatrixView a, const QPackedB& qb,
             common::MatrixView c, const QGemmOptions& opts,
             common::ThreadPool* pool, common::Workspace& ws) {
  if (qb.empty()) return InvalidArgumentError("qgemm: empty QPackedB");
  if (Status s = validate_call(a.rows, qb.cols(), a.cols, a.data, a.ld,
                               qb.panel_image(), c);
      !s.ok())
    return s;
  if (a.cols != qb.rows())
    return InvalidArgumentError("qgemm: A cols != packed B rows");
  const QWideIsa isa = opts.force_portable ? QWideIsa::kNone
                                           : kernels::detect_qwide_isa();
  const Tier tier = opts.force_portable     ? Tier::kPortable
                    : isa != QWideIsa::kNone ? Tier::kWide
                                             : Tier::kSse2;
  const bool sse2 = tier == Tier::kSse2;

  // Tasks of (up to kRowBlock rows) x (run_cols, whole panels). A pooled
  // call gets about four tasks per lane, so the pool's chunking can
  // balance them; a serial one runs each row block as one task.
  const int m = c.rows, n = c.cols, k = qb.rows();
  const bool pooled = pool != nullptr && pool->size() > 0;
  const int lanes = pooled ? static_cast<int>(pool->participants()) : 1;
  const int row_blocks = ceil_div(m, kRowBlock);
  const int panels = ceil_div(n, kPanel);
  const int runs =
      pooled ? std::clamp(ceil_div(4 * lanes, row_blocks), 1, panels) : 1;
  const int run_cols = ceil_div(panels, runs) * kPanel;
  const int col_tasks = ceil_div(n, run_cols);
  const int tasks = row_blocks * col_tasks;

  // The workspace grows here, before any C is written, and nowhere else:
  // A's per-row scales, A quantized for the call in the tier's format
  // (uint8 plus qwide_a_offset(isa), int16, or int8; rows k-contiguous at
  // lda) and, off the wide tier, one int32 accumulator per lane. Nothing
  // is zeroed: the quantizers write whole rows, padding included, and the
  // block kernels overwrite their accumulators.
  const long lda = kernels::qpacked_ld(a.cols);
  const std::size_t count =
      static_cast<std::size_t>(m) * static_cast<std::size_t>(lda);
  const std::size_t acc_size =
      tier == Tier::kWide ? 0
                          : static_cast<std::size_t>(std::min(kRowBlock, m)) *
                                static_cast<std::size_t>(std::min(run_cols, n));
  common::WorkspaceLayout layout;
  const std::size_t scales_at = layout.add<float>(static_cast<std::size_t>(m));
  const std::size_t image_at = sse2 ? layout.add<std::int16_t>(count)
                                    : layout.add<std::uint8_t>(count);
  const std::size_t acc_at =
      layout.add<std::int32_t>(acc_size * static_cast<std::size_t>(lanes));
  ws.grow(layout.bytes);
  float* scales = ws.region<float>(scales_at, static_cast<std::size_t>(m));
  auto* u8 = sse2 ? nullptr : ws.region<std::uint8_t>(image_at, count);
  auto* i8 = reinterpret_cast<std::int8_t*>(u8);  // the portable image
  auto* i16 = sse2 ? ws.region<std::int16_t>(image_at, count) : nullptr;
  std::int32_t* acc = ws.region<std::int32_t>(
      acc_at, acc_size * static_cast<std::size_t>(lanes));

  // Each row's scale is taken just before the row is quantized, so the
  // quantizer reads it from cache: one pass over A from memory.
  const bool per_tensor = opts.granularity == Granularity::kPerTensor;
  const float tensor_scale = per_tensor ? per_tensor_scale(a) : 0.0f;
  for (int r = 0; r < m; ++r) {
    const common::ConstMatrixView row = a.block(r, 0, 1, a.cols);
    float& s = scales[r];
    s = per_tensor ? tensor_scale
                   : compute_scale(row_max_abs(row.data, a.cols));
    const long at = r * lda;
    if (tier == Tier::kWide)
      kernels::qwide_quantize_a(isa, row, &s, u8 + at, lda);
    else if (sse2)
      kernels::qpack_rows_i16(row, &s, i16 + at, lda);
    else
      kernels::qpack_rows(row, &s, i8 + at, lda);
  }

  const long panel_bytes = kernels::qwide_panel_bytes(k);
  const auto task = [&](int t, int lane) {
    const int r0 = t / col_tasks * kRowBlock;
    const int c0 = t % col_tasks * run_cols;
    const int rows = std::min(kRowBlock, m - r0);
    const int cols = std::min(run_cols, n - c0);
    const common::MatrixView block = c.block(r0, c0, rows, cols);
    const std::int8_t* panel = qb.panel_image() + c0 / kPanel * panel_bytes;
    const float* sa = scales + r0;
    const float* sb = qb.scales() + c0;
    const long a_at = r0 * lda;
    if (tier == Tier::kWide)
      return kernels::qwide_gemm(
          isa, {.m = rows, .n = cols, .k = k, .a = u8 + a_at, .lda = lda,
                .b_image = panel, .b_offset_sums = qb.offset_sums() + c0,
                .a_scales = sa, .b_scales = sb, .alpha = opts.alpha,
                .beta = opts.beta, .c = block});
    std::int32_t* lane_acc = acc + acc_size * lane;
    if (tier == Tier::kPortable)
      kernels::qgemm_block_portable(rows, cols, k, i8 + a_at, lda, panel,
                                    lane_acc, cols);
    else
      kernels::qgemm_block_i16(rows, cols, k, i16 + a_at, lda, qb.col16(c0),
                               qb.col_ld(), lane_acc, cols);
    kernels::requantize_block(block, lane_acc, cols, sa, sb, opts.alpha,
                              opts.beta);
  };

  obs::SpanScope span("qgemm.tasks", static_cast<unsigned>(tasks),
                      static_cast<unsigned>(lanes));
  if (!pooled) {
    for (int t = 0; t < tasks; ++t) task(t, 0);
    return {};
  }
  const bool traced = obs::trace_enabled();
  pool->parallel_for(tasks, [&](int t) {
    // Inside the region worker_index() is this thread's slot: workers
    // [0, size()), the caller size().
    const int lane = common::ThreadPool::worker_index();
    if (traced) obs::name_this_lane_worker(lane, pool->participants());
    obs::SpanScope task_span("qgemm.task", static_cast<unsigned>(t));
    task(t, lane);
  });
  return {};
}

}  // namespace autogemm::quant
