// The quantized tier: symmetric int8 primitives (scales, round trip,
// granularity ordering), qgemm's accuracy contract against the fp64
// reference, portable-vs-SIMD bit identity, the Context entry points and
// their packed-cache/invalidate contract, serve's (shape, dtype)
// bucketing and its rejection of out-of-range dtypes, the obs
// dtype label twins, and the transformer block that strings the GEMM
// census together.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <sstream>
#include <vector>

#include "common/matrix.hpp"
#include "common/reference_gemm.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "core/context.hpp"
#include "dnn/transformer.hpp"
#include "kernels/qkernel.hpp"
#include "obs/metrics.hpp"
#include "quant/qgemm.hpp"
#include "quant/qpacked.hpp"
#include "quant/quantize.hpp"
#include "serve/engine.hpp"

namespace autogemm {
namespace {

using common::ConstMatrixView;
using common::DType;
using common::Matrix;

// Irregular shapes in the paper's style: prime-ish dims, skinny-M decode
// rows, wide-N FC panels.
struct Shape {
  int m, n, k;
};
const Shape kIrregular[] = {
    {5, 10, 17}, {3, 7, 23},  {33, 200, 17}, {1, 27, 64},
    {7, 22, 96}, {64, 64, 64}, {2, 30, 129},
};

double qgemm_err(int m, int n, int k, unsigned seed,
                 const quant::QGemmOptions& opts) {
  Matrix a(m, k), b(k, n), c(m, n), ref(m, n);
  common::fill_random(a.view(), seed);
  common::fill_random(b.view(), seed + 1);
  common::reference_gemm(a.view(), b.view(), ref.view());
  quant::QGemmOptions o = opts;
  o.beta = 0.0f;
  EXPECT_TRUE(quant::qgemm(a.view(), b.view(), c.view(), o).ok());
  return common::rel_frobenius_error(c.view(), ref.view());
}

// ---------------------------------------------------------------------
// Quantization primitives

TEST(Quantize, RoundTripStaysWithinReportedBound) {
  Matrix a(9, 37);
  common::fill_random(a.view(), 11);
  const std::vector<float> scales = quant::per_row_scales(a.view());
  const long ld = kernels::qpacked_ld(37);
  std::vector<std::int8_t> q(9 * ld);
  kernels::qpack_rows(a.view(), scales.data(), q.data(), ld);
  // Dequantized x~ = s * q stays within s / 2 of x (no saturation: the
  // scale covers each row's range).
  for (int r = 0; r < a.rows(); ++r)
    for (int c = 0; c < a.cols(); ++c)
      EXPECT_LE(std::fabs(a.at(r, c) - scales[r] * q[r * ld + c]),
                0.5f * scales[r] + 1e-7f)
          << "(" << r << "," << c << ")";
}

TEST(Quantize, AllZeroChannelQuantizesExactly) {
  Matrix a(3, 8);  // Matrix storage zero-initializes
  const std::vector<float> scales = quant::per_row_scales(a.view());
  for (float s : scales) EXPECT_GT(s, 0.0f);  // division always defined
  std::vector<std::int8_t> q(3 * kernels::qpacked_ld(8), 99);
  kernels::qpack_rows(a.view(), scales.data(), q.data(), kernels::qpacked_ld(8));
  for (std::int8_t v : q) EXPECT_EQ(v, 0);
}

TEST(Quantize, PerChannelNeverWorseThanPerTensor) {
  // Rows of wildly different magnitude: per-tensor's single scale wastes
  // resolution on the small rows; per-channel tracks each.
  Matrix a(4, 64), b(64, 16);
  common::fill_random(a.view(), 3);
  common::fill_random(b.view(), 4);
  for (int c = 0; c < 64; ++c) a.at(2, c) *= 100.0f;
  Matrix ref(4, 16), c_chan(4, 16), c_tens(4, 16);
  common::reference_gemm(a.view(), b.view(), ref.view());
  quant::QGemmOptions o;
  o.beta = 0.0f;
  o.granularity = quant::Granularity::kPerChannel;
  ASSERT_TRUE(quant::qgemm(a.view(), b.view(), c_chan.view(), o).ok());
  o.granularity = quant::Granularity::kPerTensor;
  ASSERT_TRUE(quant::qgemm(a.view(), b.view(), c_tens.view(), o).ok());
  EXPECT_LE(common::rel_frobenius_error(c_chan.view(), ref.view()),
            common::rel_frobenius_error(c_tens.view(), ref.view()) + 1e-9);
}

// ---------------------------------------------------------------------
// qgemm accuracy contract

TEST(QGemm, IrregularShapesMeetFrobeniusContract) {
  for (const Shape& s : kIrregular) {
    const double err = qgemm_err(s.m, s.n, s.k, 17, {});
    EXPECT_LE(err, 1e-2) << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST(QGemm, DeepKAccumulatesWithoutOverflow) {
  // K = 16384 stresses the int32 accumulator: 16384 * 127 * 127 ~ 2.6e8,
  // well inside int32 — and the noise-vs-signal ratio must stay flat in K
  // (both norms grow as sqrt(K)).
  EXPECT_LE(qgemm_err(3, 5, 16384, 29, {}), 1e-2);
}

TEST(QGemm, PortableAndSimdBitIdentical) {
  for (const Shape& s : kIrregular) {
    Matrix a(s.m, s.k), b(s.k, s.n), c_port(s.m, s.n), c_simd(s.m, s.n);
    common::fill_random(a.view(), 41);
    common::fill_random(b.view(), 42);
    quant::QGemmOptions o;
    o.beta = 0.0f;
    o.force_portable = true;
    ASSERT_TRUE(quant::qgemm(a.view(), b.view(), c_port.view(), o).ok());
    o.force_portable = false;
    ASSERT_TRUE(quant::qgemm(a.view(), b.view(), c_simd.view(), o).ok());
    for (int r = 0; r < s.m; ++r)
      for (int cc = 0; cc < s.n; ++cc)
        ASSERT_EQ(c_port.at(r, cc), c_simd.at(r, cc))
            << s.m << "x" << s.n << "x" << s.k << " @ " << r << "," << cc;
  }
}

TEST(QGemm, BetaZeroOverwritesGarbageAndAlphaScales) {
  Matrix a(4, 16), b(16, 6), c(4, 6), ref(4, 6);
  common::fill_random(a.view(), 5);
  common::fill_random(b.view(), 6);
  common::reference_gemm(a.view(), b.view(), ref.view());
  for (int r = 0; r < 4; ++r)
    for (int cc = 0; cc < 6; ++cc) c.at(r, cc) = 1e30f;  // must never be read
  quant::QGemmOptions o;
  o.alpha = 2.0f;
  o.beta = 0.0f;
  ASSERT_TRUE(quant::qgemm(a.view(), b.view(), c.view(), o).ok());
  Matrix ref2(4, 6);
  for (int r = 0; r < 4; ++r)
    for (int cc = 0; cc < 6; ++cc) ref2.at(r, cc) = 2.0f * ref.at(r, cc);
  EXPECT_LE(common::rel_frobenius_error(c.view(), ref2.view()), 1e-2);
}

// ---------------------------------------------------------------------
// The driver on a pool: tasks never split K, so C is the same bits at any
// worker count

bool same_bits(const Matrix& x, const Matrix& y) {
  for (int r = 0; r < x.rows(); ++r)
    if (std::memcmp(&x.at(r, 0), &y.at(r, 0),
                    sizeof(float) * static_cast<std::size_t>(x.cols())) != 0)
      return false;
  return true;
}

TEST(QGemmPool, BitIdenticalAtAnyWorkerCount) {
  // Row counts straddle the 64-row block, column counts the 16-column
  // panel; K = 37 leaves a partial 4-group. beta = 0 starts from NaN C,
  // which must never be read.
  common::ThreadPool pool1(1), pool2(2), pool4(4);
  common::ThreadPool* const pools[] = {&pool1, &pool2, &pool4};
  const int k = 37;
  const float betas[] = {0.0f, 1.0f, 0.5f};
  int case_index = 0;
  for (const bool portable : {false, true}) {
    for (const int m : {1, 5, 51, 64, 65, 130}) {
      for (const int n : {1, 15, 16, 17, 33, 770, 3072}) {
        Matrix a(m, k), b(k, n), c0(m, n);
        common::fill_random(a.view(), 90u + static_cast<unsigned>(m));
        common::fill_random(b.view(), 91u + static_cast<unsigned>(n));
        auto qb = quant::QPackedB::create(b.view());
        ASSERT_TRUE(qb.ok());
        quant::QGemmOptions o;
        o.alpha = 1.5f;
        o.beta = betas[case_index++ % 3];
        o.force_portable = portable;
        common::fill_random(c0.view(), 92);
        if (o.beta == 0.0f) c0.at(m - 1, n - 1) = std::nanf("");
        Matrix serial(m, n);
        std::memcpy(serial.data(), c0.data(),
                    sizeof(float) * static_cast<std::size_t>(m) * n);
        ASSERT_TRUE(quant::qgemm(a.view(), *qb, serial.view(), o).ok());
        EXPECT_FALSE(std::isnan(serial.at(m - 1, n - 1)));
        for (common::ThreadPool* pool : pools) {
          Matrix pooled(m, n);
          std::memcpy(pooled.data(), c0.data(),
                      sizeof(float) * static_cast<std::size_t>(m) * n);
          ASSERT_TRUE(
              quant::qgemm(a.view(), *qb, pooled.view(), o, pool).ok());
          EXPECT_TRUE(same_bits(serial, pooled))
              << (portable ? "portable " : "detected tier ") << m << "x" << n
              << "x" << k << " beta " << o.beta << " workers "
              << pool->size();
        }
      }
    }
  }
}

TEST(ContextQuant, PooledContextMatchesSerialContextExactly) {
  ContextOptions pooled_opts, serial_opts;
  pooled_opts.threads = 4;
  serial_opts.threads = 1;
  Context pooled(pooled_opts), serial(serial_opts);
  for (const Shape& s : {Shape{1, 3072, 768}, Shape{51, 768, 3072},
                         Shape{130, 770, 37}}) {
    Matrix a(s.m, s.k), b(s.k, s.n), c_pool(s.m, s.n), c_serial(s.m, s.n);
    common::fill_random(a.view(), 81);
    common::fill_random(b.view(), 82);
    ASSERT_TRUE(
        pooled.run_const_b_i8(a.view(), b.view(), c_pool.view(), 1, 0).ok());
    ASSERT_TRUE(
        serial.run_const_b_i8(a.view(), b.view(), c_serial.view(), 1, 0)
            .ok());
    EXPECT_TRUE(same_bits(c_pool, c_serial))
        << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST(QPacked, CreateValidatesLikePackedB) {
  EXPECT_EQ(quant::QPackedB::create(ConstMatrixView{nullptr, 4, 4, 4})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  Matrix b(8, 8);
  ConstMatrixView bad = b.view();
  bad.ld = 4;  // ld < cols
  EXPECT_EQ(quant::QPackedB::create(bad).status().code(),
            StatusCode::kInvalidArgument);
  auto ok = quant::QPackedB::create(b.view());
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().cols(), 8);
}

// ---------------------------------------------------------------------
// Context entry points + packed cache

TEST(ContextQuant, RunI8MatchesReferenceWithinContract) {
  Context ctx(ContextOptions{});
  Matrix a(9, 33), b(33, 14), c(9, 14), ref(9, 14);
  common::fill_random(a.view(), 61);
  common::fill_random(b.view(), 62);
  common::reference_gemm(a.view(), b.view(), ref.view());
  ASSERT_TRUE(
      ctx.run_const_b_i8(a.view(), b.view(), c.view(), 1.0f, 0.0f).ok());
  EXPECT_LE(common::rel_frobenius_error(c.view(), ref.view()), 1e-2);
}

TEST(ContextQuant, ConstBCachesQuantizedPackAndInvalidateDropsBothTiers) {
  Context ctx(ContextOptions{});
  Matrix a(5, 24), b(24, 12), c(5, 12);
  common::fill_random(a.view(), 71);
  common::fill_random(b.view(), 72);

  // fp32 and int8 const-B packings of the SAME buffer must coexist.
  GemmExParams p;
  p.beta = 0.0f;
  ASSERT_TRUE(ctx.run_const_b(a.view(), b.view(), c.view(), p).ok());
  ASSERT_TRUE(ctx.run_const_b_i8(a.view(), b.view(), c.view(), 1, 0).ok());
  EXPECT_EQ(ctx.packed_cache_size(), 2u);
  const std::uint64_t misses = ctx.stats().packed_misses;

  // Second int8 call: cache hit, no new pack.
  ASSERT_TRUE(ctx.run_const_b_i8(a.view(), b.view(), c.view(), 1, 0).ok());
  EXPECT_EQ(ctx.stats().packed_misses, misses);
  EXPECT_GE(ctx.stats().packed_hits, 1u);

  // invalidate(ptr) is dtype-blind: one call drops both tiers' entries.
  EXPECT_EQ(ctx.invalidate(b.view().data), 2u);
  EXPECT_EQ(ctx.packed_cache_size(), 0u);
}

TEST(ContextQuant, RunI8ValidatesOperands) {
  Context ctx(ContextOptions{});
  Matrix a(4, 8), b(8, 4), c(4, 5);  // C shape mismatch
  EXPECT_EQ(ctx.run_const_b_i8(a.view(), b.view(), c.view()).code(),
            StatusCode::kInvalidArgument);
  Matrix c2(4, 4);
  EXPECT_EQ(ctx.run_const_b_i8(a.view(), b.view(), c2.view(), 1.0f,
                               std::nanf(""))
                .code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Serve: (shape, dtype) buckets

TEST(ServeQuant, SameShapeDifferentDTypeNeverCoBatch) {
  Context ctx(ContextOptions{});
  serve::EngineOptions opts;
  opts.start_paused = true;  // build the backlog, then release at once
  opts.max_batch_delay_ns = 0;
  serve::Engine engine(ctx, opts);

  struct Req {
    Matrix a, b, c, ref;
    Req(int m, int n, int k, int seed)
        : a(m, k), b(k, n), c(m, n), ref(m, n) {
      common::fill_random(a.view(), seed);
      common::fill_random(b.view(), seed + 1);
      common::reference_gemm(a.view(), b.view(), ref.view());
    }
  };
  std::vector<std::unique_ptr<Req>> reqs;
  std::vector<std::future<Status>> fs;
  for (int i = 0; i < 8; ++i) {
    reqs.push_back(std::make_unique<Req>(8, 8, 8, 80 + i));
    serve::GemmRequest r;
    r.a = reqs.back()->a.view();
    r.b = reqs.back()->b.view();
    r.c = reqs.back()->c.view();
    r.dtype = i < 4 ? DType::kF32 : DType::kI8;
    fs.push_back(engine.submit(r));
  }
  engine.resume();
  for (auto& f : fs) EXPECT_TRUE(f.get().ok());
  engine.shutdown();
  const serve::ServerStats st = engine.stats();
  // One shape, two dtypes: exactly two batches, never one mixed batch.
  EXPECT_EQ(st.batches, 2u);
  EXPECT_EQ(st.batched_requests, 8u);
  EXPECT_TRUE(st.accounting_clean());
  for (int i = 0; i < 8; ++i) {
    const double tol = i < 4 ? 1e-5 : 1e-2;
    EXPECT_LE(common::rel_frobenius_error(reqs[i]->c.view(),
                                          reqs[i]->ref.view()),
              tol)
        << "request " << i;
  }
}

TEST(ServeQuant, Bf16RequestsRejectedAtAdmission) {
  Context ctx(ContextOptions{});
  serve::Engine engine(ctx);
  Matrix a(4, 4), b(4, 4), c(4, 4);
  serve::GemmRequest r;
  r.a = a.view();
  r.b = b.view();
  r.c = c.view();
  r.dtype = static_cast<DType>(2);  // outside the enum
  EXPECT_EQ(engine.submit(r).get().code(), StatusCode::kInvalidArgument);
  engine.shutdown();
  EXPECT_TRUE(engine.stats().accounting_clean());
}

TEST(ServeQuant, HotShapesAggregateAcrossDTypes) {
  Context ctx(ContextOptions{});
  serve::Engine engine(ctx);
  Matrix a(8, 8), b(8, 8);
  common::fill_random(a.view(), 1);
  common::fill_random(b.view(), 2);
  std::vector<Matrix> cs;
  for (int i = 0; i < 6; ++i) cs.emplace_back(8, 8);
  for (int i = 0; i < 6; ++i) {
    serve::GemmRequest r;
    r.a = a.view();
    r.b = b.view();
    r.c = cs[i].view();
    r.dtype = i % 2 == 0 ? DType::kF32 : DType::kI8;
    EXPECT_TRUE(engine.submit(r).get().ok());
  }
  const auto hot = engine.hot_shapes(4);
  ASSERT_EQ(hot.size(), 1u);  // one logical shape, both dtypes merged
  EXPECT_EQ(hot[0].requests, 6u);
  engine.shutdown();
}

// ---------------------------------------------------------------------
// Obs: dtype labels

TEST(ObsQuant, GemmSecondsDtypeTwinsObserveOnMatchingTier) {
  // A process-unique shape so this test owns its label (the FCFS cap set
  // is process-wide).
  constexpr int kM = 19, kN = 21, kK = 43;
  const std::string f32_name =
      "autogemm_gemm_seconds{shape=\"19x21x43\",dtype=\"f32\"}";
  const std::string i8_name =
      "autogemm_gemm_seconds{shape=\"19x21x43\",dtype=\"i8\"}";
  auto& reg = obs::default_registry();
  const std::uint64_t f32_before = reg.histogram(f32_name).snapshot().count;
  const std::uint64_t i8_before = reg.histogram(i8_name).snapshot().count;

  Context ctx(ContextOptions{});
  Matrix a(kM, kK), b(kK, kN), c(kM, kN);
  common::fill_random(a.view(), 91);
  common::fill_random(b.view(), 92);
  ASSERT_TRUE(ctx.run(a.view(), b.view(), c.view()).ok());
  ASSERT_TRUE(
      ctx.run_const_b_i8(a.view(), b.view(), c.view(), 1.0f, 0.0f).ok());
  ASSERT_TRUE(
      ctx.run_const_b_i8(a.view(), b.view(), c.view(), 1.0f, 0.0f).ok());

  EXPECT_EQ(reg.histogram(f32_name).snapshot().count, f32_before + 1);
  EXPECT_EQ(reg.histogram(i8_name).snapshot().count, i8_before + 2);
}

TEST(ObsQuant, ServeBatchCounterSplitsByDtype) {
  const auto& reg = obs::default_registry();
  const auto i8_batches = [&] {
    return reg.counter_total("autogemm_serve_batches_total",
                             "dtype=\"i8\"");
  };
  const std::uint64_t i8_before = i8_batches();
  const std::uint64_t all_before =
      reg.counter_total("autogemm_serve_batches_total");

  Context ctx(ContextOptions{});
  serve::EngineOptions opts;
  opts.start_paused = true;
  opts.max_batch_delay_ns = 0;
  serve::Engine engine(ctx, opts);
  Matrix a(6, 6), b(6, 6);
  common::fill_random(a.view(), 7);
  common::fill_random(b.view(), 8);
  std::vector<Matrix> cs;
  for (int i = 0; i < 4; ++i) cs.emplace_back(6, 6);
  std::vector<std::future<Status>> fs;
  for (int i = 0; i < 4; ++i) {
    serve::GemmRequest r;
    r.a = a.view();
    r.b = b.view();
    r.c = cs[i].view();
    r.dtype = DType::kI8;
    fs.push_back(engine.submit(r));
  }
  engine.resume();
  for (auto& f : fs) EXPECT_TRUE(f.get().ok());
  engine.shutdown();

  EXPECT_EQ(i8_batches(), i8_before + 1);
  EXPECT_EQ(reg.counter_total("autogemm_serve_batches_total"),
            all_before + 1);
}

// ---------------------------------------------------------------------
// Transformer block

TEST(Transformer, ForwardRunsAtAllDTypeChoicesAndTracksFP32) {
  dnn::TransformerConfig cfg;
  cfg.d_model = 32;
  cfg.n_heads = 4;
  cfg.d_ff = 64;
  const int tokens = 11;
  Matrix x(tokens, cfg.d_model);
  common::fill_random(x.view(), 101);
  Context ctx(ContextOptions{});

  dnn::TransformerBlock fp32_block(cfg);
  Matrix y_fp32(tokens, cfg.d_model);
  ASSERT_TRUE(fp32_block.forward(x.view(), y_fp32.view(), ctx).ok());

  dnn::TransformerConfig qcfg = cfg;
  qcfg.qkv_dtype = DType::kI8;
  qcfg.attn_out_dtype = DType::kI8;
  qcfg.ff_dtype = DType::kI8;
  dnn::TransformerBlock i8_block(qcfg);
  Matrix y_i8(tokens, cfg.d_model);
  ASSERT_TRUE(i8_block.forward(x.view(), y_i8.view(), ctx).ok());

  // Same seed => same weights; the int8-weight block must track the fp32
  // one within the quantized tier's norm contract, loosened for the
  // nonlinear stages (softmax/gelu amplify nothing here — residuals
  // dominate the norm).
  EXPECT_LE(common::rel_frobenius_error(y_i8.view(), y_fp32.view()), 5e-2);
  EXPECT_GT(common::rel_frobenius_error(y_i8.view(), y_fp32.view()), 0.0);
}

TEST(Transformer, ValidationRejectsBadShapesAndDTypes) {
  dnn::TransformerConfig cfg;
  cfg.d_model = 16;
  cfg.n_heads = 4;
  cfg.d_ff = 32;
  dnn::TransformerBlock block(cfg);
  Context ctx(ContextOptions{});
  Matrix x(5, 16), y_bad(5, 8);
  EXPECT_EQ(block.forward(x.view(), y_bad.view(), ctx).code(),
            StatusCode::kInvalidArgument);
  dnn::TransformerConfig bad = cfg;
  bad.ff_dtype = static_cast<DType>(2);  // outside the enum
  dnn::TransformerBlock bad_block(bad);
  Matrix y(5, 16);
  EXPECT_EQ(bad_block.forward(x.view(), y.view(), ctx).code(),
            StatusCode::kInvalidArgument);
}

TEST(Transformer, GemmShapeCensusMatchesConfig) {
  dnn::TransformerConfig cfg;
  cfg.d_model = 64;
  cfg.n_heads = 4;
  cfg.d_ff = 256;
  const auto shapes = dnn::TransformerBlock::gemm_shapes(1, cfg);
  // QKV + 2 per head + out + FC1 + FC2.
  ASSERT_EQ(shapes.size(), 4u + 2u * 4u);
  EXPECT_EQ(shapes.front(), (std::array<int, 3>{1, 192, 64}));
  EXPECT_EQ(shapes.back(), (std::array<int, 3>{1, 64, 256}));
  EXPECT_TRUE(dnn::TransformerBlock::gemm_shapes(0, cfg).empty());
}

}  // namespace
}  // namespace autogemm
