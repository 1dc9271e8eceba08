// DNN substrate validation: Table V data, im2col semantics, operator
// correctness, and backend-equivalence of full networks.
#include <gtest/gtest.h>

#include "common/reference_gemm.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"
#include "dnn/graph.hpp"
#include "dnn/im2col.hpp"
#include "dnn/models.hpp"
#include "dnn/shapes.hpp"

#include <memory>

namespace autogemm::dnn {
namespace {

TEST(Shapes, TableFiveVerbatim) {
  const auto& layers = resnet50_layers();
  ASSERT_EQ(layers.size(), 20u);
  EXPECT_EQ(layers[0].layer, "L1");
  EXPECT_EQ(layers[0].m, 64);
  EXPECT_EQ(layers[0].n, 12544);
  EXPECT_EQ(layers[0].k, 147);
  EXPECT_EQ(layers[6].layer, "L7");
  EXPECT_EQ(layers[6].k, 1152);
  EXPECT_EQ(layers[19].layer, "L20");
  EXPECT_EQ(layers[19].m, 512);
  EXPECT_EQ(layers[19].n, 49);
  EXPECT_EQ(layers[19].k, 2048);
}

TEST(Shapes, FigTwelveNetworks) {
  const auto nets = fig12_networks();
  ASSERT_EQ(nets.size(), 4u);
  for (const auto& net : nets) {
    EXPECT_FALSE(net.layers->empty());
    EXPECT_GT(net.gemm_fraction, 0.5);
    EXPECT_LT(net.gemm_fraction, 1.0);
  }
}

TEST(Im2col, IdentityKernelIsCopy) {
  // 1x1 kernel, stride 1: the column matrix is the flattened input.
  ConvGeometry g{2, 3, 3, 1, 1, 1, 1, 0};
  std::vector<float> input(2 * 3 * 3);
  for (std::size_t i = 0; i < input.size(); ++i)
    input[i] = static_cast<float>(i);
  common::Matrix col(static_cast<int>(g.gemm_k()),
                     static_cast<int>(g.gemm_n()));
  im2col(g, input.data(), col.view());
  for (int c = 0; c < 2; ++c)
    for (int i = 0; i < 9; ++i)
      EXPECT_EQ(col.at(c, i), input[static_cast<std::size_t>(c) * 9 + i]);
}

TEST(Im2col, PaddingContributesZeros) {
  ConvGeometry g{1, 2, 2, 1, 3, 3, 1, 1};
  std::vector<float> input = {1, 2, 3, 4};
  common::Matrix col(9, static_cast<int>(g.gemm_n()));
  im2col(g, input.data(), col.view());
  // Output is 2x2; the top-left output's top-left tap is padding.
  EXPECT_EQ(col.at(0, 0), 0.0f);
  // Center tap of the first output = input(0,0).
  EXPECT_EQ(col.at(4, 0), 1.0f);
}

TEST(Im2col, StrideSkipsColumns) {
  ConvGeometry g{1, 4, 4, 1, 2, 2, 2, 0};
  EXPECT_EQ(g.out_h(), 2);
  EXPECT_EQ(g.out_w(), 2);
  std::vector<float> input(16);
  for (int i = 0; i < 16; ++i) input[i] = static_cast<float>(i);
  common::Matrix col(4, 4);
  im2col(g, input.data(), col.view());
  // First tap row = input positions (0,0),(0,2),(2,0),(2,2).
  EXPECT_EQ(col.at(0, 0), 0.0f);
  EXPECT_EQ(col.at(0, 1), 2.0f);
  EXPECT_EQ(col.at(0, 2), 8.0f);
  EXPECT_EQ(col.at(0, 3), 10.0f);
}

TEST(Im2col, WrongShapeThrows) {
  ConvGeometry g{1, 4, 4, 1, 2, 2, 2, 0};
  std::vector<float> input(16, 0.0f);
  common::Matrix col(3, 4);
  EXPECT_THROW(im2col(g, input.data(), col.view()), std::invalid_argument);
}

TEST(Graph, ConvGeometryMatchesTableFive) {
  // The ResNet stem's conv layers must produce the Table V L1..L5 shapes.
  ConvGeometry l1{3, 224, 224, 64, 7, 7, 2, 3};
  EXPECT_EQ(l1.gemm_m(), 64);
  EXPECT_EQ(l1.gemm_n(), 12544);
  EXPECT_EQ(l1.gemm_k(), 147);
  ConvGeometry l3{64, 56, 56, 64, 3, 3, 1, 1};
  EXPECT_EQ(l3.gemm_n(), 3136);
  EXPECT_EQ(l3.gemm_k(), 576);
}

TEST(Graph, BackendsAgreeOnSmallCnn) {
  // The same network must produce identical outputs (to accumulated fp32
  // noise) whichever GEMM backend runs the conv/FC layers — the Fig 12
  // correctness precondition.
  Net net = build_small_cnn();
  const Tensor input = small_cnn_input();
  const auto with_autogemm = net.run(input, autogemm_backend());
  const auto with_openblas = net.run(input, openblas_backend());
  const auto with_naive = net.run(input, naive_backend());
  ASSERT_EQ(with_autogemm.output.size(), 10);
  for (long i = 0; i < 10; ++i) {
    EXPECT_NEAR(with_autogemm.output.data[i], with_naive.output.data[i],
                1e-3);
    EXPECT_NEAR(with_openblas.output.data[i], with_naive.output.data[i],
                1e-3);
  }
}

TEST(Graph, TimingSplitCoversAllOps) {
  Net net = build_small_cnn();
  const Tensor input = small_cnn_input();
  const auto result = net.run(input, autogemm_backend());
  EXPECT_GT(result.gemm_seconds, 0.0);
  EXPECT_GT(result.other_seconds, 0.0);
  EXPECT_GT(result.total_seconds(), result.gemm_seconds);
}

TEST(Graph, ShapeMismatchThrows) {
  Net net = build_small_cnn();
  Tensor wrong(3, 16, 16);
  EXPECT_THROW(net.run(wrong, naive_backend()), std::invalid_argument);
}

TEST(Graph, BackendsThrowOnRejectedGemm) {
  // A GEMM the library rejects (here: C is 3x4, op(A)*op(B) is 4x4) must
  // surface as an exception, as Conv/FC's batched path already does,
  // never as a silently skipped layer.
  common::Matrix a(4, 4), b(4, 4), c(3, 4);
  ContextOptions opts;
  opts.threads = 1;
  Context ctx(opts);
  EXPECT_THROW(context_backend(ctx)(a.view(), b.view(), c.view()),
               std::runtime_error);
  EXPECT_THROW(autogemm_backend()(a.view(), b.view(), c.view()),
               std::runtime_error);
}

TEST(Graph, MaxPoolAndRelu) {
  Tensor t(1, 2, 2);
  t.at(0, 0, 0) = -1;
  t.at(0, 0, 1) = 2;
  t.at(0, 1, 0) = 3;
  t.at(0, 1, 1) = -4;
  Relu relu;
  Tensor r = relu.forward(t, naive_backend());
  EXPECT_EQ(r.at(0, 0, 0), 0.0f);
  EXPECT_EQ(r.at(0, 1, 0), 3.0f);
  MaxPool pool(2, 2);
  Tensor p = pool.forward(t, naive_backend());
  EXPECT_EQ(p.at(0, 0, 0), 3.0f);
}

TEST(Graph, GlobalAvgPool) {
  Tensor t(2, 2, 2);
  for (int c = 0; c < 2; ++c)
    for (int y = 0; y < 2; ++y)
      for (int x = 0; x < 2; ++x) t.at(c, y, x) = static_cast<float>(c + 1);
  GlobalAvgPool gap;
  Tensor p = gap.forward(t, naive_backend());
  EXPECT_FLOAT_EQ(p.at(0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(p.at(1, 0, 0), 2.0f);
}

TEST(Im2col, DirectConvMatchesGemmLowering) {
  // The load-bearing identity: im2col + GEMM IS a convolution.
  ConvGeometry g{3, 9, 11, 5, 3, 3, 2, 1};
  std::vector<float> input(static_cast<std::size_t>(g.cin) * g.h * g.w);
  for (std::size_t i = 0; i < input.size(); ++i)
    input[i] = static_cast<float>((i * 13) % 7) - 3.0f;
  common::Matrix weights(g.cout, static_cast<int>(g.gemm_k()));
  common::fill_random(weights.view(), 9);

  // GEMM path.
  common::Matrix col(static_cast<int>(g.gemm_k()),
                     static_cast<int>(g.gemm_n()));
  im2col(g, input.data(), col.view());
  common::Matrix out_gemm(g.cout, static_cast<int>(g.gemm_n()));
  common::reference_gemm(weights.view(), col.view(), out_gemm.view());

  // Direct path.
  common::Matrix out_direct(g.cout, static_cast<int>(g.gemm_n()));
  direct_conv(g, input.data(), weights.view(), out_direct.view());

  EXPECT_LT(common::max_rel_error(out_gemm.view(), out_direct.view()), 1e-5);
}

TEST(Im2col, DirectConvShapeMismatchThrows) {
  ConvGeometry g{1, 4, 4, 2, 2, 2, 1, 0};
  std::vector<float> input(16, 0.0f);
  common::Matrix weights(2, 3);  // wrong gemm_k
  common::Matrix out(2, static_cast<int>(g.gemm_n()));
  EXPECT_THROW(direct_conv(g, input.data(), weights.view(), out.view()),
               std::invalid_argument);
}

TEST(Graph, ResidualBottleneckBackendsAgree) {
  Net net = build_bottleneck_net();
  const Tensor input = bottleneck_input();
  const auto fast = net.run(input, autogemm_backend());
  const auto ref = net.run(input, naive_backend());
  ASSERT_EQ(fast.output.size(), 10);
  for (long i = 0; i < 10; ++i)
    EXPECT_NEAR(fast.output.data[i], ref.output.data[i], 1e-4);
  // Softmax head: outputs form a distribution.
  double sum = 0;
  for (long i = 0; i < 10; ++i) {
    EXPECT_GE(fast.output.data[i], 0.0f);
    sum += fast.output.data[i];
  }
  EXPECT_NEAR(sum, 1.0, 1e-4);
}

TEST(Graph, FireModuleConcatBackendsAgree) {
  Net net = build_fire_net();
  const Tensor input = fire_input();
  const auto fast = net.run(input, autogemm_backend());
  const auto ref = net.run(input, naive_backend());
  ASSERT_EQ(fast.output.size(), 10);
  for (long i = 0; i < 10; ++i)
    EXPECT_NEAR(fast.output.data[i], ref.output.data[i], 1e-4);
}

TEST(Graph, NestedGemmTimeAttributedToGemmBucket) {
  // Residual blocks nest their convolutions; the timing split must still
  // credit them as GEMM work (measured at the backend boundary).
  Net net = build_bottleneck_net();
  const Tensor input = bottleneck_input();
  const auto r = net.run(input, naive_backend());
  EXPECT_GT(r.gemm_seconds, r.other_seconds);
}

TEST(Graph, ResidualShapeMismatchThrows) {
  std::vector<std::unique_ptr<Op>> body;
  body.push_back(std::make_unique<Conv>(
      "c", ConvGeometry{4, 8, 8, 7, 1, 1, 1, 0}, 1));  // 4ch -> 7ch
  Residual res(std::move(body));  // identity shortcut keeps 4 channels
  Tensor in(4, 8, 8);
  EXPECT_THROW(res.forward(in, naive_backend()), std::invalid_argument);
}

TEST(Graph, SoftmaxIsStableForLargeInputs) {
  Tensor t(1, 1, 3);
  t.data = {1000.0f, 1000.0f, 1000.0f};
  Softmax sm;
  const Tensor out = sm.forward(t, naive_backend());
  for (float v : out.data) EXPECT_NEAR(v, 1.0f / 3.0f, 1e-5);
}

TEST(Graph, RunManyMatchesPerInputRun) {
  // The batched executor (one Context::run_batched group per GEMM layer)
  // must produce the same outputs as running each input through run()
  // individually — coalescing is a scheduling change, not a numeric one.
  Net net = build_small_cnn();
  std::vector<Tensor> inputs;
  for (unsigned seed = 4; seed < 9; ++seed)
    inputs.push_back(small_cnn_input(seed));

  ContextOptions opts;
  opts.threads = 1;
  Context ctx(opts);
  const auto batched = net.run_many(inputs, ctx);
  ASSERT_EQ(batched.outputs.size(), inputs.size());

  const GemmBackend backend = context_backend(ctx);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto single = net.run(inputs[i], backend);
    ASSERT_EQ(batched.outputs[i].size(), single.output.size());
    for (long j = 0; j < single.output.size(); ++j)
      EXPECT_NEAR(batched.outputs[i].data[j], single.output.data[j], 1e-3)
          << "input " << i << " element " << j;
  }
}

}  // namespace
}  // namespace autogemm::dnn
