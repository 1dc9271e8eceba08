// GPT-2-style decoder block — the transformer counterpart of the CNN
// builders in models.hpp, and the source of the serving layer's
// token-generation trace.
//
// LLM inference is the ROADMAP's second irregular-GEMM workload: a decoder
// block is six GEMM families whose M dimension is the *token count* — a
// few hundred at prefill, exactly 1 per decode step — while N and K are
// the model's wide hidden dimensions. That skinny-M irregularity is the
// shape class the paper's DMT tiling targets, and the per-layer dtype
// choice below is where the int8 tier earns its keep: weight matrices are
// constant across calls, so Context caches their quantized packed form
// (run_const_b_i8) and each token pays only activation-quantize plus the
// widening kernel.
//
// The block follows the standard pre-norm GPT-2 layout
// (Arm-Total-Performance tutorial_3's GPT-2-on-KleidiAI is the reference
// deployment shape):
//
//   h = x + W_out · Attn(LN1(x))        Attn: QKV proj, causal scores,
//   y = h + FFN(LN2(h))                 softmax, value mix, out proj
//   FFN(z) = gelu(z · W_fc1) · W_fc2
//
// Weight-bearing GEMMs (QKV, out-proj, FC1, FC2) honor the per-family
// dtype in TransformerConfig; attention's activation-activation GEMMs
// (Q·K^T and P·V) always run fp32 — their operands change every call, so
// nothing amortizes the quantization, and softmax'd probabilities are
// exactly the near-zero-heavy data int8 represents worst.
//
// The glue between the GEMMs — layernorm, causal softmax and GELU — runs
// serially on the vector-math tier (kernels/vmath.hpp: AVX-512, AVX2 or
// its bit-identical portable twin), each under an obs span (dnn.layernorm,
// dnn.softmax, dnn.gelu) so a trace splits glue time from GEMM time. A
// forward allocates its activations uninitialized; every element is
// written before it is read.
#pragma once

#include <array>
#include <vector>

#include "common/dtype.hpp"
#include "common/matrix.hpp"
#include "common/status.hpp"

namespace autogemm {
class Context;
}

namespace autogemm::dnn {

/// GPT-2 small dimensions by default (d_model 768, 12 heads, 4x FFN).
struct TransformerConfig {
  int d_model = 768;
  int n_heads = 12;
  int d_ff = 3072;
  /// Dtype of each weight-bearing GEMM family: kF32 runs the tuned plan
  /// path, kI8 the quantized const-B path. Anything else is rejected at
  /// construction-time validation in forward().
  common::DType qkv_dtype = common::DType::kF32;
  common::DType attn_out_dtype = common::DType::kF32;
  common::DType ff_dtype = common::DType::kF32;
  unsigned seed = 1;
};

/// One decoder block with owned random weights. Weights are constant for
/// the block's lifetime, which is exactly the Context packed-cache
/// contract — forward() routes every weight GEMM through run_const_b /
/// run_const_b_i8 so repeated calls (the decode loop) stop re-packing.
class TransformerBlock {
 public:
  explicit TransformerBlock(const TransformerConfig& cfg = {});

  /// x: (tokens x d_model) activations, y: (tokens x d_model) output.
  /// Returns kInvalidArgument on shape mismatch or an unsupported dtype
  /// in the config; otherwise the first non-OK Status any GEMM reports.
  Status forward(common::ConstMatrixView x, common::MatrixView y,
                 Context& ctx) const;

  const TransformerConfig& config() const { return cfg_; }

  /// The (m, n, k) census of one forward pass at `tokens` tokens — the
  /// weight GEMMs plus the per-head attention GEMMs. The serve trace
  /// generator and bench_quant_serve derive the prefill/decode shape mix
  /// from this instead of hard-coding GPT-2's dimensions twice.
  static std::vector<std::array<int, 3>> gemm_shapes(
      int tokens, const TransformerConfig& cfg = {});

  struct Weights {
    common::Matrix qkv;  // d_model x 3*d_model, [Q | K | V]
    common::Matrix out;  // d_model x d_model
    common::Matrix fc1;  // d_model x d_ff
    common::Matrix fc2;  // d_ff x d_model
  };
  /// The block's fp32 weights, for references that recompute forward().
  const Weights& weights() const { return w_; }

 private:
  TransformerConfig cfg_;
  Weights w_;
};

}  // namespace autogemm::dnn
