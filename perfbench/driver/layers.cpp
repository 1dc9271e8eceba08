// Per-layer probes of the traced run. Each times calls into one module's
// public functions (kernels, core, quant, dnn, serve) on the workload's own
// shapes, from outside the library.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "core/gemm.hpp"
#include "core/plan.hpp"
#include "kernels/dispatch.hpp"
#include "quant/qgemm.hpp"
#include "quant/qpacked.hpp"
#include "simd/vec.hpp"

namespace perfbench {

namespace {

using autogemm::Context;
using autogemm::ContextOptions;
using autogemm::GemmExParams;
using autogemm::Plan;
using autogemm::common::now_ns;
namespace quant = autogemm::quant;

/// Median wall time (ms) of `reps` calls of `f`, with `reps` chosen so the
/// probe spends about `budget_ms` (at least 3, at most 200 calls).
template <typename F>
double median_ms(F&& f, double budget_ms = 30) {
  std::uint64_t t0 = now_ns();
  f();
  const double first = ms_between(t0, now_ns());
  const int reps = static_cast<int>(
      std::clamp(budget_ms / std::max(first, 1e-3), 3.0, 200.0));
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    t0 = now_ns();
    f();
    v.push_back(ms_between(t0, now_ns()));
  }
  return quantile(v, 0.5);
}

struct Operands {
  Matrix a, b, c;
  Operands(int m, int n, int k, std::uint64_t seed)
      : a(m, k), b(k, n), c(m, n) {
    autogemm::common::fill_random(a.view(), mix_seed(seed, 1));
    autogemm::common::fill_random(b.view(), mix_seed(seed, 2));
  }
};

double ratio(std::uint64_t hits, std::uint64_t misses) {
  return hits + misses ? static_cast<double>(hits) / double(hits + misses) : 0;
}

}  // namespace

double host_peak_gflops() {
  // Independent multiply-add chains on the library's vector type, built
  // with the library's flags: the most this core can retire in its kernels.
  constexpr int kChains = 14;
  constexpr long kIters = 10'000'000;  // ~20 ms per repetition
  volatile float minus_one = -1.0f;
  const autogemm::simd::vec4 m = autogemm::simd::vec4::broadcast(minus_one);
  double best = 0;
  volatile float sink = 0;
  for (int rep = 0; rep < 10; ++rep) {
    autogemm::simd::vec4 acc[kChains];
    for (int i = 0; i < kChains; ++i)
      acc[i] = autogemm::simd::vec4::broadcast(static_cast<float>(i));
    const std::uint64_t t0 = now_ns();
    for (long it = 0; it < kIters; ++it)
      for (int i = 0; i < kChains; ++i) acc[i].fma(acc[i], m);
    const double s = static_cast<double>(now_ns() - t0) * 1e-9;
    float out[4];
    for (int i = 0; i < kChains; ++i) {
      acc[i].store(out);
      sink = sink + out[0];
    }
    best = std::max(best, 2.0 * autogemm::simd::kLanes * kChains * kIters / s * 1e-9);
  }
  return best;
}

void probe_kernels(const LayerProbeInput& in, Raw& raw) {
  const int span = spans().begin("probe.kernels");
  // The dominant register tile: the (mr, nr) covering most of the output
  // area (times K) across the workload's fp32 plans.
  std::map<std::pair<int, int>, double> weight;
  for (const ProbeShape& s : in.shapes) {
    if (s.dtype != DType::kF32) continue;
    const auto plan = in.ctx->plan_for(s.m, s.n, s.k);
    const auto& cfg = plan->config();
    const auto& tiling = plan->block_tiling(std::min(cfg.mc, s.m),
                                            std::min(cfg.nc, s.n),
                                            std::min(cfg.kc, s.k));
    for (const auto& t : tiling.tiles)
      weight[{t.mr, t.nr}] += double(t.rows_used) * t.cols_used * s.k * s.count;
  }
  std::pair<int, int> tile{4, 16};
  double best = -1;
  for (const auto& [t, w] : weight)
    if (w > best) best = w, tile = t;

  constexpr int kc = 256;  // L1-resident: mr*kc + kc*nr floats
  const auto [mr, nr] = tile;
  Operands op(mr, nr, kc, in.seed);
  long calls = 0;
  const std::uint64_t t0 = now_ns();
  std::uint64_t t1 = t0;
  while (t1 - t0 < 200'000'000) {
    for (int i = 0; i < 1000; ++i)
      autogemm::kernels::run_tile(mr, nr, op.a.data(), kc, op.b.data(), nr,
                                  op.c.data(), nr, kc);
    calls += 1000;
    t1 = now_ns();
  }
  const double gflops =
      gemm_flops(mr, nr, kc) * static_cast<double>(calls) /
      (static_cast<double>(t1 - t0) * 1e-9) * 1e-9;
  raw.layer("kernels.tile_mr", mr);
  raw.layer("kernels.tile_nr", nr);
  raw.layer("kernels.tile_gflops", gflops);
  raw.layer("kernels.tile_pct_peak",
            raw.peak_gflops > 0 ? 100.0 * gflops / raw.peak_gflops : 0);
  spans().end(span);
}

void probe_core(const LayerProbeInput& in, Raw& raw) {
  const int span = spans().begin("probe.core");
  autogemm::common::ThreadPool pool(in.threads);
  double pack_ms = 0, serial_ms = 0, pool_ms = 0, overhead_ms = 0;
  double calls = 0, ksplit = 0, plan_ms = 0;
  std::vector<const ProbeShape*> f32;
  for (const ProbeShape& s : in.shapes)
    if (s.dtype == DType::kF32) f32.push_back(&s);
  std::uint64_t seed = in.seed;
  for (const ProbeShape* s : f32) {
    Operands op(s->m, s->n, s->k, ++seed);
    const auto plan = in.ctx->plan_for(s->m, s->n, s->k);
    const double w = s->count;
    pack_ms += w * median_ms([&] {
      (void)autogemm::PackedA::create(op.a.cview(), *plan);
      (void)autogemm::PackedB::create(op.b.cview(), *plan);
    });
    serial_ms += w * median_ms([&] {
      autogemm::gemm(op.a.cview(), op.b.cview(), op.c.view(), *plan, nullptr);
    });
    pool_ms += w * median_ms([&] {
      autogemm::gemm(op.a.cview(), op.b.cview(), op.c.view(), *plan, &pool);
    });
    if (autogemm::choose_parallel_strategy(*plan, pool.size()) ==
        autogemm::ParallelStrategy::kKSplit)
      ksplit += w;
    // Context::run against a direct gemm(plan) on the workload's own
    // context and pool, interleaved so drift hits both alike.
    std::vector<double> via_ctx, direct;
    const double est = std::max(1e-3, median_ms([&] {
      (void)in.ctx->run(op.a.cview(), op.b.cview(), op.c.view());
    }, 5));
    const int reps = static_cast<int>(std::clamp(40.0 / est, 5.0, 400.0));
    for (int r = 0; r < reps; ++r) {
      std::uint64_t t0 = now_ns();
      (void)in.ctx->run(op.a.cview(), op.b.cview(), op.c.view());
      via_ctx.push_back(ms_between(t0, now_ns()));
      t0 = now_ns();
      autogemm::gemm(op.a.cview(), op.b.cview(), op.c.view(), *plan,
                     in.ctx->pool());
      direct.push_back(ms_between(t0, now_ns()));
    }
    overhead_ms += w * (quantile(via_ctx, 0.5) - quantile(direct, 0.5));
    calls += w;
    plan_ms += median_ms([&] {
      (void)Plan::create(s->m, s->n, s->k,
                         autogemm::default_config(s->m, s->n, s->k));
    }, 5);
  }
  raw.layer("core.pack_ms", pack_ms);
  raw.layer("core.exec_serial_ms", serial_ms);
  raw.layer("core.exec_pool_ms", pool_ms);
  raw.layer("core.parallel_eff",
            pool_ms > 0 ? serial_ms / (pool.participants() * pool_ms) : 0);
  raw.layer("core.ksplit_frac", calls > 0 ? ksplit / calls : 0);
  raw.layer("core.context_overhead_us", calls > 0 ? overhead_ms / calls * 1e3 : 0);
  raw.layer("core.plan_create_ms", plan_ms);

  // First-use verification: resolving every plan on a fresh context with
  // the probes on, minus the same with them off.
  auto resolve_ms = [&](bool verify) {
    ContextOptions co;
    co.threads = in.threads;
    co.verify_kernels = verify;
    Context fresh(co);
    const std::uint64_t t0 = now_ns();
    for (const ProbeShape* s : f32) (void)fresh.plan_for(s->m, s->n, s->k);
    return ms_between(t0, now_ns());
  };
  const double unverified = resolve_ms(false);
  raw.layer("core.verify_ms", resolve_ms(true) - unverified);
  raw.layer("core.plan_hit_ratio",
            ratio(in.stats.plan_hits, in.stats.plan_misses));
  raw.layer("core.packed_hit_ratio",
            ratio(in.stats.packed_hits, in.stats.packed_misses));
  spans().end(span);
}

void probe_quant(const LayerProbeInput& in, Raw& raw) {
  const int span = spans().begin("probe.quant");
  // The workload's int8 shapes; a workload without any (resnet50) has its
  // fp32 shapes measured at int8 instead.
  std::vector<const ProbeShape*> shapes;
  for (const ProbeShape& s : in.shapes)
    if (s.dtype == DType::kI8) shapes.push_back(&s);
  if (shapes.empty())
    for (const ProbeShape& s : in.shapes) shapes.push_back(&s);
  double flops = 0, gemm_ms = 0, quantize_ms = 0, pack_ms = 0, calls = 0;
  std::uint64_t seed = in.seed + 1000;
  for (const ProbeShape* s : shapes) {
    Operands op(s->m, s->n, s->k, ++seed);
    auto qb = quant::QPackedB::create(op.b.cview());
    if (!qb.ok()) {
      raw.fail("quant pack: " + qb.status().to_string());
      continue;
    }
    pack_ms += median_ms([&] { (void)quant::QPackedB::create(op.b.cview()); }, 10);
    quantize_ms += s->count * median_ms(
        [&] { (void)quant::QPackedA::create(op.a.cview()); }, 10);
    quant::QGemmOptions qo;
    qo.beta = 0.0f;
    gemm_ms += s->count * median_ms([&] {
      (void)quant::qgemm(op.a.cview(), qb.value(), op.c.view(), qo);
    });
    flops += s->count * gemm_flops(s->m, s->n, s->k);
    calls += s->count;
  }
  raw.layer("quant.qgemm_gflops", gemm_ms > 0 ? flops / (gemm_ms * 1e6) : 0);
  raw.layer("quant.quantize_us", calls > 0 ? quantize_ms / calls * 1e3 : 0);
  raw.layer("quant.pack_ms", pack_ms);
  spans().end(span);
}

void probe_transformer(const autogemm::dnn::TransformerConfig& cfg,
                       const std::vector<std::pair<int, int>>& passes,
                       Context& ctx, Raw& raw) {
  const int span = spans().begin("probe.dnn");
  const autogemm::dnn::TransformerBlock block(cfg);
  const int d = cfg.d_model, hd = cfg.d_model / cfg.n_heads;
  // Stand-in weights of the block's shapes, so its census GEMMs can be
  // issued alone through the same context with the same dtypes.
  Matrix w_qkv(d, 3 * d), w_out(d, d), w_fc1(d, cfg.d_ff), w_fc2(cfg.d_ff, d);
  autogemm::common::fill_random(w_qkv.view(), 11);
  autogemm::common::fill_random(w_out.view(), 12);
  autogemm::common::fill_random(w_fc1.view(), 13);
  autogemm::common::fill_random(w_fc2.view(), 14);
  auto weight_gemm = [&](autogemm::common::ConstMatrixView a,
                         const Matrix& w, MatrixView c, DType dt) {
    if (dt == DType::kI8) return ctx.run_const_b_i8(a, w.cview(), c, 1.0f, 0.0f);
    GemmExParams p;
    p.beta = 0.0f;
    return ctx.run_const_b(a, w.cview(), c, p);
  };
  double fwd_ms = 0, gemm_ms = 0;
  for (const auto& [tokens, count] : passes) {
    Matrix x(tokens, d), y(tokens, d), qkv(tokens, 3 * d), scores(tokens, tokens),
        attn(tokens, d), proj(tokens, d), ff1(tokens, cfg.d_ff), ff2(tokens, d);
    autogemm::common::fill_random(x.view(), 15);
    auto forward = [&] { (void)block.forward(x.cview(), y.view(), ctx); };
    auto gemms = [&] {
      (void)weight_gemm(x.cview(), w_qkv, qkv.view(), cfg.qkv_dtype);
      for (int h = 0; h < cfg.n_heads; ++h) {
        GemmExParams sp;
        sp.trans_b = autogemm::Trans::kYes;
        sp.beta = 0.0f;
        (void)ctx.run(qkv.cview().block(0, h * hd, tokens, hd),
                      qkv.cview().block(0, d + h * hd, tokens, hd),
                      scores.view(), sp);
        GemmExParams pv;
        pv.beta = 0.0f;
        (void)ctx.run(scores.cview(),
                      qkv.cview().block(0, 2 * d + h * hd, tokens, hd),
                      attn.view().block(0, h * hd, tokens, hd), pv);
      }
      (void)weight_gemm(attn.cview(), w_out, proj.view(), cfg.attn_out_dtype);
      (void)weight_gemm(x.cview(), w_fc1, ff1.view(), cfg.ff_dtype);
      (void)weight_gemm(ff1.cview(), w_fc2, ff2.view(), cfg.ff_dtype);
    };
    // Interleaved, so that both face the same cache and host conditions.
    const double est = median_ms(forward, 5) + median_ms(gemms, 5);
    const int reps = static_cast<int>(std::clamp(60.0 / est, 5.0, 400.0));
    std::vector<double> f, g;
    for (int r = 0; r < reps; ++r) {
      std::uint64_t t0 = now_ns();
      forward();
      f.push_back(ms_between(t0, now_ns()));
      t0 = now_ns();
      gemms();
      g.push_back(ms_between(t0, now_ns()));
    }
    fwd_ms += count * quantile(f, 0.5);
    gemm_ms += count * quantile(g, 0.5);
  }
  raw.layer("dnn.gemm_share", fwd_ms > 0 ? gemm_ms / fwd_ms : 0);
  raw.layer("dnn.other_ms", fwd_ms - gemm_ms);
  spans().end(span);
}

void report_serve(const PhaseResult& pr,
                  const autogemm::serve::ShardedStats& before,
                  const autogemm::serve::ShardedStats& after,
                  const ServeFixture& fx, Raw& raw) {
  // Direct execution of the same mix on a private single-thread context.
  ContextOptions co;
  co.threads = 1;
  Context direct(co);
  double direct_ms = 0, total_w = 0;
  for (std::size_t si = 0; si < fx.shapes().size(); ++si) {
    const ServeShape& s = fx.shapes()[si];
    Matrix c(s.m, s.n);
    direct_ms += s.weight * median_ms([&] {
      if (s.dtype == DType::kI8)
        (void)direct.run_const_b_i8(fx.a(si).cview(), fx.b(si).cview(), c.view());
      else
        (void)direct.run(fx.a(si).cview(), fx.b(si).cview(), c.view());
    }, 10);
    total_w += s.weight;
  }
  double lat = 0;
  std::size_t ok = 0;
  for (const double v : pr.lat_ms)
    if (v >= 0) lat += v, ++ok;
  raw.layer("serve.overhead_ms",
            ok ? lat / double(ok) - direct_ms / std::max(total_w, 1e-9) : 0);

  auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  const auto& A = after.aggregate;
  const auto& B = before.aggregate;
  const double singles = delta(A.single_dispatches, B.single_dispatches);
  const double batched = delta(A.batched_requests, B.batched_requests);
  const double groups = delta(A.batches, B.batches);
  raw.layer("serve.batch_mean",
            groups + singles > 0 ? (batched + singles) / (groups + singles) : 0);
  raw.layer("serve.single_frac",
            batched + singles > 0 ? singles / (batched + singles) : 0);
  double total = 0, top = 0;
  for (std::size_t i = 0; i < after.shards.size(); ++i) {
    const double adm = delta(after.shards[i].admitted,
                             i < before.shards.size() ? before.shards[i].admitted
                                                      : 0);
    total += adm;
    top = std::max(top, adm);
  }
  raw.layer("serve.shard_skew",
            total > 0 ? top / total * static_cast<double>(after.shards.size()) : 0);
  raw.layer("serve.steals", delta(after.steals, before.steals));
  raw.layer("serve.gen_late_ms", quantile(pr.late_ms, 0.99));
}

void probe_serve(const std::vector<ServeShape>& shapes, const Phase& phase,
                 std::uint64_t seed, Raw& raw) {
  const int span = spans().begin("probe.serve");
  ServeFixture fx(shapes, mix_seed(seed, 900));
  auto engine = make_engine();
  for (std::size_t si = 0; si < shapes.size(); ++si)
    submit_now(*engine, fx, si, raw);  // warm plans and packed weights
  fx.settle(raw);
  const auto before = engine->stats();
  const PhaseResult pr = run_phase(*engine, fx, phase, raw);
  const auto after = engine->stats();
  engine->shutdown();
  report_serve(pr, before, after, fx, raw);
  spans().end(span);
}

}  // namespace perfbench
