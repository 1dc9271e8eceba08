// Mini inference-graph executor — the TNN substitute for Fig 12.
//
// A sequential network of operators over CHW tensors. Convolution and
// fully-connected layers lower to GEMM through a swappable backend (the
// Fig 12 experiment runs the same graph twice, once with the OpenBLAS
// baseline and once with autoGEMM); everything else (ReLU, batch-norm,
// pooling) is the "Other" bucket. The executor reports the T_GEMM /
// T_other wall-clock split per run.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "dnn/im2col.hpp"

namespace autogemm {
class Context;
}

namespace autogemm::dnn {

/// CHW tensor (batch size 1 throughout, as in the paper's latency runs).
struct Tensor {
  int c = 0, h = 0, w = 0;
  std::vector<float> data;

  Tensor() = default;
  Tensor(int c_, int h_, int w_)
      : c(c_), h(h_), w(w_),
        data(static_cast<std::size_t>(c_) * h_ * w_, 0.0f) {}
  long size() const { return static_cast<long>(c) * h * w; }
  float& at(int ci, int y, int x) {
    return data[(static_cast<std::size_t>(ci) * h + y) * w + x];
  }
  float at(int ci, int y, int x) const {
    return data[(static_cast<std::size_t>(ci) * h + y) * w + x];
  }
};

/// GEMM backend: C = A * B (overwrite semantics; the executor zeroes C).
using GemmBackend =
    std::function<void(common::ConstMatrixView, common::ConstMatrixView,
                       common::MatrixView)>;

/// A GEMM backend built on autogemm::gemm, and one on the OpenBLAS-style
/// baseline — the two Fig 12 configurations.
GemmBackend autogemm_backend();
GemmBackend openblas_backend();
GemmBackend naive_backend();

/// Backend over an autogemm::Context: every layer's constant weight matrix
/// (the GEMM's left operand in conv-as-GEMM) keeps its offline-packed form
/// cached in the context, so repeated inferences stop re-packing weights —
/// the paper's ResNet-50 deployment mode. The context must outlive the
/// backend, and its packed cache must be invalidated if weights mutate.
/// Like autogemm_backend, it throws std::runtime_error on a non-OK Status.
GemmBackend context_backend(Context& ctx);

class Op {
 public:
  virtual ~Op() = default;
  virtual std::string name() const = 0;
  virtual bool is_gemm() const { return false; }
  virtual Tensor forward(const Tensor& in, const GemmBackend& gemm) = 0;
  /// Advances every member of `tensors` through this op in place. The
  /// default runs members one at a time over context_backend(ctx);
  /// GEMM-lowering ops (Conv, FullyConnected) override it to coalesce
  /// the members' GEMMs into one Context::run_batched group, so the
  /// shared weight matrix is packed once per batch — the same batched
  /// path the serve engine dispatches through.
  virtual void forward_batch(std::vector<Tensor>& tensors, Context& ctx);
};

/// Convolution via im2col + GEMM. Weights are (cout x cin*kh*kw).
class Conv : public Op {
 public:
  Conv(std::string name, ConvGeometry geometry, unsigned seed);
  std::string name() const override { return name_; }
  bool is_gemm() const override { return true; }
  Tensor forward(const Tensor& in, const GemmBackend& gemm) override;
  void forward_batch(std::vector<Tensor>& tensors, Context& ctx) override;
  const ConvGeometry& geometry() const { return geometry_; }

 private:
  std::string name_;
  ConvGeometry geometry_;
  common::Matrix weights_;
};

/// Fully connected: flattens input, y = W x.
class FullyConnected : public Op {
 public:
  FullyConnected(std::string name, int in_features, int out_features,
                 unsigned seed);
  std::string name() const override { return name_; }
  bool is_gemm() const override { return true; }
  Tensor forward(const Tensor& in, const GemmBackend& gemm) override;
  void forward_batch(std::vector<Tensor>& tensors, Context& ctx) override;

 private:
  std::string name_;
  common::Matrix weights_;  // out x in
};

class Relu : public Op {
 public:
  std::string name() const override { return "relu"; }
  Tensor forward(const Tensor& in, const GemmBackend&) override;
};

/// Per-channel scale + shift (inference-time batch norm).
class BatchNorm : public Op {
 public:
  BatchNorm(int channels, unsigned seed);
  std::string name() const override { return "batchnorm"; }
  Tensor forward(const Tensor& in, const GemmBackend&) override;

 private:
  std::vector<float> scale_, shift_;
};

class MaxPool : public Op {
 public:
  MaxPool(int window, int stride) : window_(window), stride_(stride) {}
  std::string name() const override { return "maxpool"; }
  Tensor forward(const Tensor& in, const GemmBackend&) override;

 private:
  int window_, stride_;
};

class GlobalAvgPool : public Op {
 public:
  std::string name() const override { return "gap"; }
  Tensor forward(const Tensor& in, const GemmBackend&) override;
};

class Softmax : public Op {
 public:
  std::string name() const override { return "softmax"; }
  Tensor forward(const Tensor& in, const GemmBackend&) override;
};

/// Residual block: out = relu(body(x) + shortcut(x)). `shortcut` may be
/// empty (identity) — the two ResNet bottleneck variants. The inner ops'
/// GEMM time is attributed to the T_GEMM bucket through the shared
/// backend, matching how TNN profiles fused blocks.
class Residual : public Op {
 public:
  Residual(std::vector<std::unique_ptr<Op>> body,
           std::vector<std::unique_ptr<Op>> shortcut = {});
  std::string name() const override { return "residual"; }
  Tensor forward(const Tensor& in, const GemmBackend& gemm) override;

 private:
  std::vector<std::unique_ptr<Op>> body_;
  std::vector<std::unique_ptr<Op>> shortcut_;
};

/// Channel concatenation of per-branch outputs (Inception/SqueezeNet fire
/// modules). All branches must agree on spatial dimensions.
class Concat : public Op {
 public:
  explicit Concat(std::vector<std::vector<std::unique_ptr<Op>>> branches);
  std::string name() const override { return "concat"; }
  Tensor forward(const Tensor& in, const GemmBackend& gemm) override;

 private:
  std::vector<std::vector<std::unique_ptr<Op>>> branches_;
};

/// Sequential network with per-bucket timing.
class Net {
 public:
  void add(std::unique_ptr<Op> op) { ops_.push_back(std::move(op)); }
  std::size_t size() const { return ops_.size(); }

  struct RunResult {
    Tensor output;
    double gemm_seconds = 0;
    double other_seconds = 0;
    double total_seconds() const { return gemm_seconds + other_seconds; }
  };
  RunResult run(const Tensor& input, const GemmBackend& gemm) const;

  struct BatchRunResult {
    std::vector<Tensor> outputs;
    double gemm_seconds = 0;
    double other_seconds = 0;
    double total_seconds() const { return gemm_seconds + other_seconds; }
  };
  /// Runs every input through the net, advancing all members one op at a
  /// time so each GEMM layer dispatches its members as a single
  /// Context::run_batched group (Op::forward_batch) — the serve engine's
  /// same-shape coalescing applied to model execution. Timing buckets
  /// are per-op here, coarser than run()'s backend-boundary split:
  /// is_gemm() ops land in gemm_seconds; composite ops (Residual,
  /// Concat) land in other_seconds even though they contain GEMMs.
  BatchRunResult run_many(const std::vector<Tensor>& inputs,
                          Context& ctx) const;

 private:
  std::vector<std::unique_ptr<Op>> ops_;
};

}  // namespace autogemm::dnn
