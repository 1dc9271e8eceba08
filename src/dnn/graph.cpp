#include "dnn/graph.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>

#include "baselines/host_baselines.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/batched.hpp"
#include "core/context.hpp"
#include "core/gemm.hpp"

namespace autogemm::dnn {

GemmBackend autogemm_backend() {
  return [](common::ConstMatrixView a, common::ConstMatrixView b,
            common::MatrixView c) {
    const Status s = autogemm::gemm_overwrite(a, b, c);
    if (!s.ok()) throw std::runtime_error("autogemm backend: " + s.to_string());
  };
}

GemmBackend openblas_backend() {
  return [](common::ConstMatrixView a, common::ConstMatrixView b,
            common::MatrixView c) {
    for (int r = 0; r < c.rows; ++r)
      std::memset(c.data + static_cast<long>(r) * c.ld, 0,
                  static_cast<std::size_t>(c.cols) * sizeof(float));
    baselines::openblas_like_gemm(a, b, c);
  };
}

GemmBackend context_backend(Context& ctx) {
  return [&ctx](common::ConstMatrixView a, common::ConstMatrixView b,
                common::MatrixView c) {
    // The executor's contract is overwrite (beta = 0). A is the layer's
    // weight matrix — constant across runs — so its packed form is cached.
    GemmExParams params;
    params.beta = 0.0f;
    const Status s = ctx.run_const_a(a, b, c, params);
    if (!s.ok()) throw std::runtime_error("context backend: " + s.to_string());
  };
}

GemmBackend naive_backend() {
  return [](common::ConstMatrixView a, common::ConstMatrixView b,
            common::MatrixView c) {
    for (int r = 0; r < c.rows; ++r)
      std::memset(c.data + static_cast<long>(r) * c.ld, 0,
                  static_cast<std::size_t>(c.cols) * sizeof(float));
    baselines::naive_gemm(a, b, c);
  };
}

void Op::forward_batch(std::vector<Tensor>& tensors, Context& ctx) {
  const GemmBackend backend = context_backend(ctx);
  for (Tensor& t : tensors) t = forward(t, backend);
}

Conv::Conv(std::string name, ConvGeometry geometry, unsigned seed)
    : name_(std::move(name)), geometry_(geometry),
      weights_(static_cast<int>(geometry.gemm_m()),
               static_cast<int>(geometry.gemm_k())) {
  common::fill_random(weights_.view(), seed);
  // Scale down so deep stacks stay numerically tame.
  for (int r = 0; r < weights_.rows(); ++r)
    for (int c = 0; c < weights_.cols(); ++c)
      weights_.at(r, c) *= 0.05f;
}

Tensor Conv::forward(const Tensor& in, const GemmBackend& gemm) {
  if (in.c != geometry_.cin || in.h != geometry_.h || in.w != geometry_.w)
    throw std::invalid_argument("Conv " + name_ + ": input shape mismatch");
  common::Matrix col(static_cast<int>(geometry_.gemm_k()),
                     static_cast<int>(geometry_.gemm_n()));
  im2col(geometry_, in.data.data(), col.view());
  Tensor out(geometry_.cout, geometry_.out_h(), geometry_.out_w());
  common::MatrixView out_view{out.data.data(), static_cast<int>(geometry_.gemm_m()),
                              static_cast<int>(geometry_.gemm_n()),
                              static_cast<int>(geometry_.gemm_n())};
  gemm(weights_.view(), col.view(), out_view);
  return out;
}

void Conv::forward_batch(std::vector<Tensor>& tensors, Context& ctx) {
  std::vector<common::Matrix> cols;
  std::vector<Tensor> outs;
  std::vector<BatchItem> items;
  cols.reserve(tensors.size());
  outs.reserve(tensors.size());
  items.reserve(tensors.size());
  for (const Tensor& in : tensors) {
    if (in.c != geometry_.cin || in.h != geometry_.h || in.w != geometry_.w)
      throw std::invalid_argument("Conv " + name_ + ": input shape mismatch");
    cols.emplace_back(static_cast<int>(geometry_.gemm_k()),
                      static_cast<int>(geometry_.gemm_n()));
    im2col(geometry_, in.data.data(), cols.back().view());
    outs.emplace_back(geometry_.cout, geometry_.out_h(), geometry_.out_w());
    common::MatrixView out_view{outs.back().data.data(),
                                static_cast<int>(geometry_.gemm_m()),
                                static_cast<int>(geometry_.gemm_n()),
                                static_cast<int>(geometry_.gemm_n())};
    // Fresh Tensor outputs are zero-filled, so run_batched's accumulate
    // semantics (C += W * col) produce the overwrite result the
    // single-input path computes. Every member shares A = weights_, so
    // the batch packs the weight matrix once.
    items.push_back(BatchItem{weights_.view(), cols.back().view(), out_view});
  }
  const Status s = ctx.run_batched(items);
  if (!s.ok())
    throw std::runtime_error("Conv " + name_ + ": " + s.to_string());
  tensors = std::move(outs);
}

FullyConnected::FullyConnected(std::string name, int in_features,
                               int out_features, unsigned seed)
    : name_(std::move(name)), weights_(out_features, in_features) {
  common::fill_random(weights_.view(), seed);
  for (int r = 0; r < weights_.rows(); ++r)
    for (int c = 0; c < weights_.cols(); ++c)
      weights_.at(r, c) *= 0.05f;
}

Tensor FullyConnected::forward(const Tensor& in, const GemmBackend& gemm) {
  if (in.size() != weights_.cols())
    throw std::invalid_argument("FullyConnected " + name_ +
                                ": input size mismatch");
  Tensor out(weights_.rows(), 1, 1);
  common::ConstMatrixView x{in.data.data(), weights_.cols(), 1, 1};
  common::MatrixView y{out.data.data(), weights_.rows(), 1, 1};
  gemm(weights_.view(), x, y);
  return out;
}

void FullyConnected::forward_batch(std::vector<Tensor>& tensors,
                                   Context& ctx) {
  std::vector<Tensor> outs;
  std::vector<BatchItem> items;
  outs.reserve(tensors.size());
  items.reserve(tensors.size());
  for (const Tensor& in : tensors) {
    if (in.size() != weights_.cols())
      throw std::invalid_argument("FullyConnected " + name_ +
                                  ": input size mismatch");
    outs.emplace_back(weights_.rows(), 1, 1);
    items.push_back(BatchItem{
        weights_.view(),
        common::ConstMatrixView{in.data.data(), weights_.cols(), 1, 1},
        common::MatrixView{outs.back().data.data(), weights_.rows(), 1, 1}});
  }
  const Status s = ctx.run_batched(items);
  if (!s.ok())
    throw std::runtime_error("FullyConnected " + name_ + ": " + s.to_string());
  tensors = std::move(outs);
}

Tensor Relu::forward(const Tensor& in, const GemmBackend&) {
  Tensor out = in;
  for (float& v : out.data) v = std::max(v, 0.0f);
  return out;
}

BatchNorm::BatchNorm(int channels, unsigned seed)
    : scale_(channels), shift_(channels) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(0.8f, 1.2f);
  for (int c = 0; c < channels; ++c) {
    scale_[c] = dist(rng);
    shift_[c] = dist(rng) - 1.0f;
  }
}

Tensor BatchNorm::forward(const Tensor& in, const GemmBackend&) {
  if (in.c != static_cast<int>(scale_.size()))
    throw std::invalid_argument("BatchNorm: channel mismatch");
  Tensor out = in;
  for (int c = 0; c < in.c; ++c) {
    float* plane = out.data.data() + static_cast<long>(c) * in.h * in.w;
    for (long i = 0; i < static_cast<long>(in.h) * in.w; ++i)
      plane[i] = plane[i] * scale_[c] + shift_[c];
  }
  return out;
}

Tensor MaxPool::forward(const Tensor& in, const GemmBackend&) {
  const int oh = (in.h - window_) / stride_ + 1;
  const int ow = (in.w - window_) / stride_ + 1;
  if (oh <= 0 || ow <= 0)
    throw std::invalid_argument("MaxPool: window larger than input");
  Tensor out(in.c, oh, ow);
  for (int c = 0; c < in.c; ++c) {
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        for (int ky = 0; ky < window_; ++ky)
          for (int kx = 0; kx < window_; ++kx)
            best = std::max(best,
                            in.at(c, oy * stride_ + ky, ox * stride_ + kx));
        out.at(c, oy, ox) = best;
      }
    }
  }
  return out;
}

Tensor GlobalAvgPool::forward(const Tensor& in, const GemmBackend&) {
  Tensor out(in.c, 1, 1);
  for (int c = 0; c < in.c; ++c) {
    double sum = 0;
    for (int y = 0; y < in.h; ++y)
      for (int x = 0; x < in.w; ++x) sum += in.at(c, y, x);
    out.at(c, 0, 0) = static_cast<float>(sum / (static_cast<long>(in.h) * in.w));
  }
  return out;
}

Tensor Softmax::forward(const Tensor& in, const GemmBackend&) {
  Tensor out = in;
  float max_v = out.data.empty() ? 0.0f : out.data[0];
  for (float v : out.data) max_v = std::max(max_v, v);
  double sum = 0;
  for (float& v : out.data) {
    v = std::exp(v - max_v);
    sum += v;
  }
  const float inv = sum > 0 ? static_cast<float>(1.0 / sum) : 0.0f;
  for (float& v : out.data) v *= inv;
  return out;
}

namespace {

Tensor run_chain(const std::vector<std::unique_ptr<Op>>& ops,
                 const Tensor& in, const GemmBackend& gemm) {
  Tensor current = in;
  for (const auto& op : ops) current = op->forward(current, gemm);
  return current;
}

}  // namespace

Residual::Residual(std::vector<std::unique_ptr<Op>> body,
                   std::vector<std::unique_ptr<Op>> shortcut)
    : body_(std::move(body)), shortcut_(std::move(shortcut)) {}

Tensor Residual::forward(const Tensor& in, const GemmBackend& gemm) {
  Tensor main = run_chain(body_, in, gemm);
  Tensor side = shortcut_.empty() ? in : run_chain(shortcut_, in, gemm);
  if (main.c != side.c || main.h != side.h || main.w != side.w)
    throw std::invalid_argument("Residual: branch shapes differ");
  for (long i = 0; i < main.size(); ++i) {
    main.data[i] = std::max(main.data[i] + side.data[i], 0.0f);  // add+relu
  }
  return main;
}

Concat::Concat(std::vector<std::vector<std::unique_ptr<Op>>> branches)
    : branches_(std::move(branches)) {
  if (branches_.empty())
    throw std::invalid_argument("Concat: needs at least one branch");
}

Tensor Concat::forward(const Tensor& in, const GemmBackend& gemm) {
  std::vector<Tensor> outs;
  outs.reserve(branches_.size());
  int channels = 0;
  for (const auto& branch : branches_) {
    outs.push_back(run_chain(branch, in, gemm));
    if (outs.back().h != outs.front().h || outs.back().w != outs.front().w)
      throw std::invalid_argument("Concat: spatial shapes differ");
    channels += outs.back().c;
  }
  Tensor out(channels, outs.front().h, outs.front().w);
  long offset = 0;
  for (const auto& t : outs) {
    std::copy(t.data.begin(), t.data.end(), out.data.begin() + offset);
    offset += t.size();
  }
  return out;
}

Net::RunResult Net::run(const Tensor& input, const GemmBackend& gemm) const {
  // The T_GEMM / T_other split is measured at the backend boundary, so
  // GEMMs nested inside composite ops (Residual, Concat) are attributed
  // correctly.
  RunResult result;
  double gemm_seconds = 0;
  const GemmBackend timed = [&](common::ConstMatrixView a,
                                common::ConstMatrixView b,
                                common::MatrixView c) {
    common::Timer t;
    gemm(a, b, c);
    gemm_seconds += t.seconds();
  };
  common::Timer total;
  Tensor current = input;
  for (const auto& op : ops_) current = op->forward(current, timed);
  result.gemm_seconds = gemm_seconds;
  result.other_seconds = total.seconds() - gemm_seconds;
  result.output = std::move(current);
  return result;
}

Net::BatchRunResult Net::run_many(const std::vector<Tensor>& inputs,
                                  Context& ctx) const {
  BatchRunResult result;
  result.outputs = inputs;
  for (const auto& op : ops_) {
    common::Timer t;
    op->forward_batch(result.outputs, ctx);
    (op->is_gemm() ? result.gemm_seconds : result.other_seconds) +=
        t.seconds();
  }
  return result;
}

}  // namespace autogemm::dnn
