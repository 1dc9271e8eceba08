#include "quant/qgemm.hpp"

#include <algorithm>
#include <new>
#include <vector>

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
/// (force_portable). `data` is A quantized for the call in that tier's
/// format, rows k-contiguous at lda: uint8 plus qwide_a_offset(isa),
/// int16, or int8; `scales` are its per-row scales.
enum class Tier { kWide, kSse2, kPortable };
struct TierA {
  Tier tier;
  QWideIsa isa;
  long lda;
  const float* scales;
  const void* data;
};

/// The int8 driver (qgemm.hpp, "How a call runs"). A pooled call gets about
/// four tasks per lane, so the pool's chunking can balance them; a serial
/// one runs each row block as one task.
Status run_tasks(const TierA& a, const QPackedB& qb, common::MatrixView c,
                 const QGemmOptions& opts, common::ThreadPool* pool) {
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

  // One accumulator per lane, allocated before any C is written.
  const int acc_elems = std::min(kRowBlock, m) * std::min(run_cols, n);
  const std::size_t acc_size =
      a.tier == Tier::kWide ? 0 : static_cast<std::size_t>(acc_elems);
  std::vector<std::int32_t> acc;
  try {
    acc.resize(acc_size * static_cast<std::size_t>(lanes));
  } catch (const std::bad_alloc&) {
    return ResourceExhaustedError("qgemm: accumulator allocation failed");
  }

  const long panel_bytes = kernels::qwide_panel_bytes(k);
  const auto task = [&](int t, int lane) {
    const int r0 = t / col_tasks * kRowBlock;
    const int c0 = t % col_tasks * run_cols;
    const int rows = std::min(kRowBlock, m - r0);
    const int cols = std::min(run_cols, n - c0);
    const common::MatrixView block = c.block(r0, c0, rows, cols);
    const std::int8_t* panel = qb.panel_image() + c0 / kPanel * panel_bytes;
    const float* sa = a.scales + r0;
    const float* sb = qb.scales() + c0;
    const long a_at = r0 * a.lda;
    if (a.tier == Tier::kWide)
      return kernels::qwide_gemm(
          a.isa, {.m = rows, .n = cols, .k = k,
                  .a = static_cast<const std::uint8_t*>(a.data) + a_at,
                  .lda = a.lda, .b_image = panel,
                  .b_offset_sums = qb.offset_sums() + c0, .a_scales = sa,
                  .b_scales = sb, .alpha = opts.alpha, .beta = opts.beta,
                  .c = block});
    std::int32_t* lane_acc = acc.data() + acc_size * lane;
    if (a.tier == Tier::kPortable)
      kernels::qgemm_block_portable(
          rows, cols, k, static_cast<const std::int8_t*>(a.data) + a_at,
          a.lda, panel, lane_acc, cols);
    else
      kernels::qgemm_block_i16(
          rows, cols, k, static_cast<const std::int16_t*>(a.data) + a_at,
          a.lda, qb.col16(c0), qb.col_ld(), lane_acc, cols);
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
  if (qb.empty()) return InvalidArgumentError("qgemm: empty QPackedB");
  if (Status s = validate_call(a.rows, qb.cols(), a.cols, a.data, a.ld,
                               qb.panel_image(), c);
      !s.ok())
    return s;
  if (a.cols != qb.rows())
    return InvalidArgumentError("qgemm: A cols != packed B rows");
  // Activations quantize per call straight into the tier's operand: an
  // M x padded-K scratch, small next to the cached weight pack.
  const QWideIsa isa = opts.force_portable ? QWideIsa::kNone
                                           : kernels::detect_qwide_isa();
  const Tier tier = opts.force_portable     ? Tier::kPortable
                    : isa != QWideIsa::kNone ? Tier::kWide
                                             : Tier::kSse2;
  const bool sse2 = tier == Tier::kSse2;
  const long lda = kernels::qpacked_ld(a.cols);
  const std::size_t count =
      static_cast<std::size_t>(a.rows) * static_cast<std::size_t>(lda);
  std::vector<float> scales;
  std::vector<std::uint8_t> bytes;  // the wide operand or portable int8
  std::vector<std::int16_t> words;  // the SSE2 image
  try {
    scales.resize(static_cast<std::size_t>(a.rows));
    bytes.resize(sse2 ? 0 : count);
    words.resize(sse2 ? count : 0);
  } catch (const std::bad_alloc&) {
    return ResourceExhaustedError("qgemm: activation pack allocation failed");
  }
  // Each row's scale is taken just before the row is quantized, so the
  // quantizer reads it from cache: one pass over A from memory.
  const bool per_tensor = opts.granularity == Granularity::kPerTensor;
  const float tensor_scale = per_tensor ? per_tensor_scale(a) : 0.0f;
  auto* i8 = reinterpret_cast<std::int8_t*>(bytes.data());
  for (int r = 0; r < a.rows; ++r) {
    const common::ConstMatrixView row = a.block(r, 0, 1, a.cols);
    float& s = scales[static_cast<std::size_t>(r)];
    s = per_tensor ? tensor_scale
                   : compute_scale(row_max_abs(row.data, a.cols));
    const long at = r * lda;
    if (tier == Tier::kWide)
      kernels::qwide_quantize_a(isa, row, &s, bytes.data() + at, lda);
    else if (sse2)
      kernels::qpack_rows_i16(row, &s, words.data() + at, lda);
    else
      kernels::qpack_rows(row, &s, i8 + at, lda);
  }
  const void* data =
      sse2 ? static_cast<const void*>(words.data()) : bytes.data();
  return run_tasks({tier, isa, lda, scales.data(), data}, qb, c, opts, pool);
}

}  // namespace autogemm::quant
