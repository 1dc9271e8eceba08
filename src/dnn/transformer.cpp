#include "dnn/transformer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/aligned_buffer.hpp"
#include "core/context.hpp"
#include "kernels/vmath.hpp"
#include "obs/trace.hpp"

namespace autogemm::dnn {

namespace {

using common::ConstMatrixView;
using common::Matrix;
using common::MatrixView;

/// splitmix64 — same deterministic weight-fill source as models.hpp's
/// builders and the serve fixtures.
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }
};

/// Uniform in +-1/sqrt(fan_in): keeps activations O(1) through arbitrarily
/// many blocks, so the int8 accuracy contract is exercised on data with a
/// realistic dynamic range rather than on exploding magnitudes.
void fill_weight(Matrix& w, Rng& rng) {
  const float scale =
      1.0f / std::sqrt(static_cast<float>(w.rows() > 0 ? w.rows() : 1));
  for (int r = 0; r < w.rows(); ++r)
    for (int c = 0; c < w.cols(); ++c)
      w.at(r, c) = static_cast<float>(rng.uniform() * 2.0 - 1.0) * scale;
}

/// Pre-norm layernorm, eps 1e-5, no learned affine (gamma=1, beta=0 — the
/// GEMM census, not the normalization parameters, is what this model
/// exists to exercise).
void layernorm(ConstMatrixView x, MatrixView out) {
  obs::SpanScope span("dnn.layernorm");
  for (int r = 0; r < x.rows; ++r)
    kernels::vmath::layernorm(&x.at(r, 0), &out.at(r, 0), x.cols, 1e-5f);
}

/// tanh-approximation GELU (the GPT-2 activation), applied in place.
void gelu_inplace(MatrixView z) {
  obs::SpanScope span("dnn.gelu");
  for (int r = 0; r < z.rows; ++r) kernels::vmath::gelu(&z.at(r, 0), z.cols);
}

/// Causal-masked row softmax over a (tokens x tokens) score matrix: row r
/// attends to columns [0, r] only and writes 0 to the rest.
void causal_softmax(MatrixView scores) {
  obs::SpanScope span("dnn.softmax");
  for (int r = 0; r < scores.rows; ++r) {
    float* row = &scores.at(r, 0);
    kernels::vmath::softmax(row, r + 1);
    std::fill(row + r + 1, row + scores.cols, 0.0f);
  }
}

/// One weight-bearing GEMM at the family's configured precision. Both
/// tiers overwrite C (beta = 0) and route through the const-B cache, so
/// the decode loop re-packs nothing.
Status weight_gemm(Context& ctx, ConstMatrixView a, ConstMatrixView b,
                   MatrixView c, common::DType dtype) {
  if (dtype == common::DType::kI8)
    return ctx.run_const_b_i8(a, b, c, /*alpha=*/1.0f, /*beta=*/0.0f);
  GemmExParams p;
  p.beta = 0.0f;
  return ctx.run_const_b(a, b, c, p);
}

Status validate_config(const TransformerConfig& cfg) {
  if (cfg.d_model <= 0 || cfg.n_heads <= 0 || cfg.d_ff <= 0 ||
      cfg.d_model % cfg.n_heads != 0)
    return InvalidArgumentError(
        "transformer: need d_model > 0, d_ff > 0 and n_heads dividing "
        "d_model (got d_model=" +
        std::to_string(cfg.d_model) + " n_heads=" +
        std::to_string(cfg.n_heads) + " d_ff=" + std::to_string(cfg.d_ff) +
        ")");
  for (const common::DType dt :
       {cfg.qkv_dtype, cfg.attn_out_dtype, cfg.ff_dtype}) {
    if (dt != common::DType::kF32 && dt != common::DType::kI8)
      return InvalidArgumentError(
          std::string("transformer: weight GEMMs run fp32 or int8; dtype \"") +
          common::dtype_name(dt) + "\" has no Context entry point");
  }
  return Status::OK();
}

}  // namespace

TransformerBlock::TransformerBlock(const TransformerConfig& cfg)
    : cfg_(cfg),
      w_{Matrix(cfg.d_model, 3 * cfg.d_model), Matrix(cfg.d_model, cfg.d_model),
         Matrix(cfg.d_model, cfg.d_ff), Matrix(cfg.d_ff, cfg.d_model)} {
  Rng rng(static_cast<std::uint64_t>(cfg.seed) * 0x9E3779B97F4A7C15ull + 7ull);
  fill_weight(w_.qkv, rng);
  fill_weight(w_.out, rng);
  fill_weight(w_.fc1, rng);
  fill_weight(w_.fc2, rng);
}

Status TransformerBlock::forward(ConstMatrixView x, MatrixView y,
                                 Context& ctx) const {
  AUTOGEMM_RETURN_IF_ERROR(validate_config(cfg_));
  const int tokens = x.rows;
  const int d = cfg_.d_model;
  if (x.cols != d || y.rows != tokens || y.cols != d)
    return InvalidArgumentError(
        "transformer: x must be tokens x d_model and y must match (x is " +
        std::to_string(x.rows) + "x" + std::to_string(x.cols) + ", y is " +
        std::to_string(y.rows) + "x" + std::to_string(y.cols) +
        ", d_model=" + std::to_string(d) + ")");
  if (tokens == 0) return Status::OK();
  const int hd = d / cfg_.n_heads;

  // The activations, each allocated uninitialized where it is first
  // written: every element is written before it is read, by the beta = 0
  // GEMMs, layernorm, softmax (the masked half too) and the residual
  // loops. One buffer for all of them, or these allocations moved ahead of
  // the first GEMM, raised perfbench gpt2_block's peak RSS by 2-15 MB on a
  // 4-vCPU AVX-512 Xeon: glibc's dynamic mmap threshold then placed later
  // allocations differently.
  std::array<common::AlignedBuffer, 8> storage;
  std::size_t used = 0;
  auto activation = [&](int rows, int cols) -> MatrixView {
    common::AlignedBuffer& buf = storage[used++];
    buf = common::AlignedBuffer(common::kUninitialized,
                                static_cast<std::size_t>(rows) * cols);
    return {buf.data(), rows, cols, cols};
  };
  const MatrixView ln = activation(tokens, d);

  // ---- attention half: h = x + W_out . Attn(LN1(x)) ----
  layernorm(x, ln);
  const MatrixView qkv = activation(tokens, 3 * d);  // [Q | K | V]
  AUTOGEMM_RETURN_IF_ERROR(  // one fused QKV projection
      weight_gemm(ctx, ln, w_.qkv.view(), qkv, cfg_.qkv_dtype));

  // Per-head GEMMs stay fp32: Q, K and V change every call, so nothing
  // amortizes quantizing them, and softmax output is the worst case for a
  // symmetric int8 grid (header). scores is reused across heads.
  const MatrixView attn = activation(tokens, d);
  const MatrixView scores = activation(tokens, tokens);
  const float inv_sqrt_hd = 1.0f / std::sqrt(static_cast<float>(hd));
  for (int h = 0; h < cfg_.n_heads; ++h) {
    const ConstMatrixView q = qkv.block(0, h * hd, tokens, hd);
    const ConstMatrixView k = qkv.block(0, d + h * hd, tokens, hd);
    const ConstMatrixView v = qkv.block(0, 2 * d + h * hd, tokens, hd);
    // scores = (1/sqrt(hd)) . Q . K^T — the trans_b GEMM the gemm_ex layer
    // exists for, at the skinny-K (K = head_dim) shape class.
    GemmExParams sp;
    sp.trans_b = Trans::kYes;
    sp.alpha = inv_sqrt_hd;
    sp.beta = 0.0f;
    AUTOGEMM_RETURN_IF_ERROR(ctx.run(q, k, scores, sp));
    causal_softmax(scores);
    GemmExParams pv;
    pv.beta = 0.0f;
    AUTOGEMM_RETURN_IF_ERROR(
        ctx.run(scores, v, attn.block(0, h * hd, tokens, hd), pv));
  }

  const MatrixView proj = activation(tokens, d);
  AUTOGEMM_RETURN_IF_ERROR(weight_gemm(ctx, attn, w_.out.view(), proj,
                                       cfg_.attn_out_dtype));
  const MatrixView res = activation(tokens, d);
  for (int r = 0; r < tokens; ++r)  // h = x + attention output
    for (int c = 0; c < d; ++c) res.at(r, c) = x.at(r, c) + proj.at(r, c);

  // ---- FFN half: y = h + W_fc2 . gelu(W_fc1 . LN2(h)) ----
  layernorm(res, ln);
  const MatrixView ff1 = activation(tokens, cfg_.d_ff);
  AUTOGEMM_RETURN_IF_ERROR(
      weight_gemm(ctx, ln, w_.fc1.view(), ff1, cfg_.ff_dtype));
  gelu_inplace(ff1);
  const MatrixView ff2 = activation(tokens, d);
  AUTOGEMM_RETURN_IF_ERROR(
      weight_gemm(ctx, ff1, w_.fc2.view(), ff2, cfg_.ff_dtype));
  for (int r = 0; r < tokens; ++r)
    for (int c = 0; c < d; ++c) y.at(r, c) = res.at(r, c) + ff2.at(r, c);
  return Status::OK();
}

std::vector<std::array<int, 3>> TransformerBlock::gemm_shapes(
    int tokens, const TransformerConfig& cfg) {
  std::vector<std::array<int, 3>> out;
  if (tokens <= 0 || !validate_config(cfg).ok()) return out;
  const int d = cfg.d_model;
  const int hd = d / cfg.n_heads;
  out.push_back({tokens, 3 * d, d});  // QKV projection
  for (int h = 0; h < cfg.n_heads; ++h) {
    out.push_back({tokens, tokens, hd});  // Q . K^T scores
    out.push_back({tokens, hd, tokens});  // P . V mix
  }
  out.push_back({tokens, d, d});       // attention out-projection
  out.push_back({tokens, cfg.d_ff, d});  // FC1
  out.push_back({tokens, d, cfg.d_ff});  // FC2
  return out;
}

}  // namespace autogemm::dnn
