// The three workloads: resnet50 (closed loop of ResNet-50 Table V passes),
// gpt2_block (closed loop of GPT-2-small generation sequences) and
// serve_mixed (open-loop mixed fp32/int8 census into a 2-shard fleet),
// plus the open-loop machinery serve_mixed and the serve probe share.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "dnn/shapes.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace {

using autogemm::Context;
using autogemm::ContextOptions;
using autogemm::GemmExParams;
using autogemm::Status;
using autogemm::common::now_ns;
namespace serve = autogemm::serve;
namespace dnn = autogemm::dnn;

constexpr int kSetupReps = 7;  // setup_s is their median
constexpr std::uint64_t kCompletionTimeoutNs = 60'000'000'000ull;

void sleep_until_ns(std::uint64_t t) {
  for (;;) {
    const std::uint64_t now = now_ns();
    if (now >= t) return;
    if (t - now > 300'000)
      std::this_thread::sleep_for(std::chrono::nanoseconds(t - now - 200'000));
    else
      std::this_thread::yield();
  }
}

void fill(Matrix& m, std::uint64_t seed) {
  autogemm::common::fill_random(m.view(), seed);
}

/// Runs `body` in whole iterations until `seconds` have passed (at least
/// once).
template <typename F>
void run_for(double seconds, F&& body) {
  const std::uint64_t end =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  do body();
  while (now_ns() < end);
}

/// The library's tracer and the benchmark's spans, on or off together.
void set_tracing(bool on) {
  autogemm::obs::set_trace_enabled(on);
  spans().enabled = on;
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

void report_trace_overhead(double untraced, double traced, Raw& raw) {
  raw.layer("trace_overhead_pct",
            untraced > 0 ? (traced / untraced - 1.0) * 100.0 : 0.0);
}

/// The closed loops' timed phase: `step(into)` in whole iterations for
/// --seconds, each pushing its time (ms) onto `into`. In the traced run the
/// iterations alternate between untraced and traced, so that
/// trace_overhead_pct compares neighbours and host drift cancels. The
/// probes that follow keep the benchmark's spans but not the library's
/// tracer.
template <typename F>
void timed_loop(const Args& args, Raw& raw, F&& step) {
  std::vector<double> ms[2];
  const std::uint64_t end =
      now_ns() + static_cast<std::uint64_t>(args.seconds * 1e9);
  bool traced = false;
  do {
    set_tracing(traced);
    step(ms[traced]);
    traced = args.trace && !traced;
  } while (now_ns() < end || (args.trace && ms[1].empty()));
  set_tracing(false);
  if (!args.trace) return;
  spans().enabled = true;
  report_trace_overhead(mean(ms[0]), mean(ms[1]), raw);
}

}  // namespace

// ---- open-loop serving machinery ----------------------------------------

ServeFixture::ServeFixture(std::vector<ServeShape> shapes, std::uint64_t seed)
    : shapes_(std::move(shapes)), check_seed_(seed) {
  operands_.resize(shapes_.size());
  for (std::size_t si = 0; si < shapes_.size(); ++si) {
    const ServeShape& s = shapes_[si];
    Operand& op = operands_[si];
    op.a = Matrix(s.m, s.k);
    op.b = Matrix(s.k, s.n);
    fill(op.a, mix_seed(seed, 2 * si + 1));
    fill(op.b, mix_seed(seed, 2 * si + 2));
    if (s.dtype == DType::kI8) op.ref = reference_fp64(op.a.cview(), op.b.cview());
    // Enough C buffers for the in-flight requests of this shape, within a
    // ~2 MiB budget per shape.
    const std::size_t c_bytes = static_cast<std::size_t>(s.m) * s.n * 4;
    const std::size_t ring =
        std::clamp<std::size_t>((2u << 20) / std::max<std::size_t>(c_bytes, 1),
                                2, 512);
    for (std::size_t r = 0; r < ring; ++r) {
      op.ring.push_back(std::make_unique<Slot>());
      op.ring.back()->c = Matrix(s.m, s.n);
    }
    total_weight_ += s.weight;
  }
}

std::size_t ServeFixture::pick(double u) const {
  double x = u * total_weight_;
  for (std::size_t si = 0; si + 1 < shapes_.size(); ++si) {
    if (x < shapes_[si].weight) return si;
    x -= shapes_[si].weight;
  }
  return shapes_.size() - 1;
}

namespace {

bool wait_done(ServeFixture::Slot& s, std::uint64_t deadline) {
  while (!s.done.load(std::memory_order_acquire)) {
    if (now_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  return true;
}

[[noreturn]] void abandon(const char* what) {
  // A request that never completes leaves a callback pointing at our
  // slots; stop here rather than tear the fixture down under it.
  std::fprintf(stderr, "perfbench_driver: FAILED %s\n", what);
  std::fflush(stderr);
  std::_Exit(1);
}

}  // namespace

void ServeFixture::finish(std::size_t si, Slot& s, Raw& raw) {
  s.busy.store(false, std::memory_order_relaxed);
  double lat = -1;
  if (s.code == static_cast<int>(autogemm::StatusCode::kOk)) {
    const ServeShape& sh = shapes_[si];
    std::string why;
    bool ok = true;
    if (sh.dtype == DType::kI8) {
      const double e = rel_frobenius(operands_[si].ref, s.c.cview());
      ok = e <= kInt8RelFrobenius;
      if (!ok) {
        char buf[120];
        std::snprintf(buf, sizeof(buf), "int8 %dx%dx%d rel Frobenius %.3g",
                      sh.m, sh.n, sh.k, e);
        why = buf;
      }
    } else {
      ok = check_fp32(operands_[si].a.cview(), operands_[si].b.cview(),
                      s.c.cview(), false, 1.0f, 4, ++check_seed_, &why);
    }
    if (ok) lat = ms_between(s.due_ns, s.done_ns);
    else raw.fail("serve " + why);
  } else if (s.strict) {
    raw.fail("serve request refused or failed (status " +
             std::to_string(s.code) + ")");
  }
  if (s.sink) (*s.sink)[s.request] = lat;
}

ServeFixture::Slot& ServeFixture::acquire(std::size_t si, Raw& raw) {
  Operand& op = operands_[si];
  Slot& s = *op.ring[op.next];
  op.next = (op.next + 1) % op.ring.size();
  if (s.busy.load(std::memory_order_relaxed)) {
    if (!wait_done(s, now_ns() + kCompletionTimeoutNs))
      abandon("serve request never completed");
    finish(si, s, raw);
  }
  s.c.set_zero();
  s.done.store(false, std::memory_order_relaxed);
  return s;
}

void ServeFixture::settle(Raw& raw) {
  const std::uint64_t deadline = now_ns() + kCompletionTimeoutNs;
  for (std::size_t si = 0; si < operands_.size(); ++si)
    for (auto& slot : operands_[si].ring) {
      if (!slot->busy.load(std::memory_order_relaxed)) continue;
      if (!wait_done(*slot, deadline)) abandon("serve request never completed");
      finish(si, *slot, raw);
    }
}

namespace {

void submit_slot(serve::ShardedEngine& engine, ServeFixture& fx,
                 std::size_t si, ServeFixture::Slot& s) {
  serve::GemmRequest req;
  req.a = fx.a(si).cview();
  req.b = fx.b(si).cview();
  req.c = s.c.view();
  req.dtype = fx.shapes()[si].dtype;
  s.busy.store(true, std::memory_order_relaxed);
  ServeFixture::Slot* slot = &s;
  engine.submit(req, [slot](Status st) {
    slot->code = static_cast<int>(st.code());
    slot->done_ns = now_ns();
    slot->done.store(true, std::memory_order_release);
  });
}

}  // namespace

std::unique_ptr<serve::ShardedEngine> make_engine() {
  // bench_quant_serve's fleet, with room for a burst of four generations.
  serve::ShardedEngineOptions so;
  so.shards = 2;
  so.context.threads = 1;
  so.worker.queue_capacity = 4096;
  so.worker.max_batch = 16;
  so.worker.max_batch_delay_ns = 500'000;
  auto made = serve::ShardedEngine::create(so);
  if (!made.ok()) {
    std::fprintf(stderr, "perfbench_driver: engine: %s\n",
                 made.status().to_string().c_str());
    std::_Exit(1);
  }
  return std::move(made).value();
}

ServeFixture::Slot& submit_now(serve::ShardedEngine& engine, ServeFixture& fx,
                               std::size_t si, Raw& raw) {
  ServeFixture::Slot& s = fx.acquire(si, raw);
  s.due_ns = now_ns();
  s.sink = nullptr;
  s.strict = true;
  submit_slot(engine, fx, si, s);
  ++raw.attempted;
  return s;
}

PhaseResult run_phase(serve::ShardedEngine& engine, ServeFixture& fx,
                      const Phase& phase, Raw& raw, bool strict) {
  PhaseResult pr;
  const std::size_t n = phase.due_ns.size();
  pr.lat_ms.assign(n, -1.0);
  pr.cls.resize(n);
  pr.late_ms.resize(n);
  const int span = spans().begin("serve.phase");
  const std::uint64_t start = now_ns() + 1'000'000;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t si = fx.pick(phase.pick[i]);
    pr.cls[i] = fx.shapes()[si].cls;
    ServeFixture::Slot& s = fx.acquire(si, raw);
    const std::uint64_t due = start + phase.due_ns[i];
    sleep_until_ns(due);
    const std::uint64_t now = now_ns();
    pr.late_ms[i] = ms_between(due, std::max(due, now));
    s.due_ns = due;
    s.sink = &pr.lat_ms;
    s.request = i;
    s.strict = strict;
    submit_slot(engine, fx, si, s);
    ++raw.attempted;
  }
  fx.settle(raw);
  spans().end(span);
  if (spans().enabled)
    for (std::size_t i = 0; i < n; ++i)
      if (pr.lat_ms[i] >= 0) {
        const std::uint64_t due = start + phase.due_ns[i];
        spans().add("serve.request", due,
                    due + static_cast<std::uint64_t>(pr.lat_ms[i] * 1e6), span);
      }
  return pr;
}

// ---- resnet50 -------------------------------------------------------------

int run_resnet50(const Args& args, const Schedule& sched, Raw& raw) {
  const auto& layers = dnn::resnet50_layers();
  const std::size_t nl = layers.size();
  std::vector<Matrix> a(nl), b(nl), c(nl);
  double pass_flops = 0;
  for (std::size_t l = 0; l < nl; ++l) {
    const auto& s = layers[l];
    a[l] = Matrix(static_cast<int>(s.m), static_cast<int>(s.k));  // weights
    b[l] = Matrix(static_cast<int>(s.k), static_cast<int>(s.n));  // im2col
    c[l] = Matrix(static_cast<int>(s.m), static_cast<int>(s.n));
    fill(a[l], mix_seed(args.seed, 100 + l));
    fill(b[l], mix_seed(args.seed, 200 + l));
    pass_flops += gemm_flops(s.m, s.n, s.k);
  }
  ContextOptions co;
  co.threads = worker_threads();
  GemmExParams p;
  p.beta = 0.0f;
  // One pass; `layer_ms` (if given) receives each layer's call time.
  auto pass = [&](Context& ctx, std::vector<double>* layer_ms) {
    const int ps = spans().begin("resnet50.pass");
    for (std::size_t l = 0; l < nl; ++l) {
      const int ls = spans().begin("core.Context::run_const_a", ps);
      const std::uint64_t t0 = now_ns();
      const Status st = ctx.run_const_a(a[l].cview(), b[l].cview(),
                                        c[l].view(), p);
      const std::uint64_t t1 = now_ns();
      spans().end(ls);
      if (layer_ms) (*layer_ms)[l] = ms_between(t0, t1);
      if (!st.ok()) raw.fail("resnet50 " + layers[l].layer + ": " + st.to_string());
    }
    spans().end(ps);
  };

  for (int r = 0; r < kSetupReps; ++r) {
    const std::uint64_t t0 = now_ns();
    Context ctx(co);
    pass(ctx, nullptr);
    raw.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  Context ctx(co);
  pass(ctx, nullptr);  // warm-up: plans, packed weights, pool
  pass(ctx, nullptr);
  std::vector<double> layer_ms(nl);
  std::uint64_t check = 0;
  double layer_sum_ms = 0, pass_sum_ms = 0;
  auto timed = [&](std::vector<double>& into) {
    const std::uint64_t t0 = now_ns();
    pass(ctx, &layer_ms);
    const double pass_ms = ms_between(t0, now_ns());
    into.push_back(pass_ms);
    raw.pass_ms.push_back(pass_ms);
    raw.first_ms.push_back(layer_ms[0]);
    for (std::size_t l = 0; l < nl; ++l) {
      raw.op_ms.push_back(layer_ms[l]);
      if (l > 0) raw.later_ms.push_back(layer_ms[l]);
      layer_sum_ms += layer_ms[l];
    }
    pass_sum_ms += pass_ms;
    raw.timed_s += pass_ms * 1e-3;
    raw.flops += pass_flops;
    raw.ops += nl;
    raw.attempted += nl;
    // Untimed: sampled entries of every layer against fp64.
    for (std::size_t l = 0; l < nl; ++l) {
      std::string why;
      if (!check_fp32(a[l].cview(), b[l].cview(), c[l].cview(), false, 1.0f,
                      2, mix_seed(args.seed, ++check), &why))
        raw.fail("resnet50 " + layers[l].layer + " " + why);
    }
  };
  timed_loop(args, raw, timed);
  if (!args.trace) return 0;

  LayerProbeInput in;
  for (const auto& s : layers)
    in.shapes.push_back({static_cast<int>(s.m), static_cast<int>(s.n),
                         static_cast<int>(s.k), DType::kF32, 1});
  in.ctx = &ctx;
  in.stats = ctx.stats();
  in.threads = co.threads;
  in.seed = args.seed;
  probe_kernels(in, raw);
  probe_core(in, raw);
  probe_quant(in, raw);
  // The pass is nothing but its GEMM calls; what is left is loop glue.
  raw.layer("dnn.gemm_share", pass_sum_ms > 0 ? layer_sum_ms / pass_sum_ms : 0);
  raw.layer("dnn.other_ms",
            (pass_sum_ms - layer_sum_ms) / std::max<double>(1, raw.pass_ms.size()));
  std::vector<ServeShape> ss;
  for (std::size_t l = 0; l < nl; ++l)
    ss.push_back({static_cast<int>(layers[l].m), static_cast<int>(layers[l].n),
                  static_cast<int>(layers[l].k), DType::kF32, 1.0,
                  l == 0 ? 0 : 1});
  if (const Phase* ph = sched.find("probe")) probe_serve(ss, *ph, args.seed, raw);
  return 0;
}

// ---- gpt2_block -------------------------------------------------------------

namespace {

// Prompt lengths: a fixed irregular set with an odd number of members, run
// in whole seeded-order cycles so every run sees each length equally often.
constexpr std::array<int, 7> kPromptLens = {5, 13, 27, 38, 51, 70, 96};
constexpr int kDecodeSteps = 32;
// Blocks per forward. One block's weights fit in a 32 MB last-level cache
// only partly, so single-block decode times swung with cache co-tenancy run
// to run; a stack of four streams its weights from memory on every token,
// as the full twelve-block model does.
constexpr int kLayers = 4;

dnn::TransformerConfig gpt2_config(std::uint64_t seed, int layer, DType ff) {
  dnn::TransformerConfig cfg;  // GPT-2 small: 768 / 12 heads / 3072
  cfg.ff_dtype = ff;
  cfg.seed = static_cast<unsigned>(mix_seed(seed, 7 + layer) & 0x7fffffff);
  return cfg;
}

double census_flops(int tokens, const dnn::TransformerConfig& cfg) {
  double f = 0;
  for (const auto& s : dnn::TransformerBlock::gemm_shapes(tokens, cfg))
    f += gemm_flops(s[0], s[1], s[2]);
  return f;
}

}  // namespace

int run_gpt2_block(const Args& args, const Schedule& sched, Raw& raw) {
  const dnn::TransformerConfig cfg = gpt2_config(args.seed, 0, DType::kI8);
  std::vector<std::unique_ptr<dnn::TransformerBlock>> blocks;
  for (int l = 0; l < kLayers; ++l)
    blocks.push_back(std::make_unique<dnn::TransformerBlock>(
        gpt2_config(args.seed, l, DType::kI8)));
  const int d = cfg.d_model;
  std::map<int, Matrix> x, y;
  for (const int len : kPromptLens) {
    x[len] = Matrix(len, d);
    y[len] = Matrix(len, d);
    fill(x[len], mix_seed(args.seed, 300 + len));
  }
  Matrix dec_x(kDecodeSteps, d), dec_y(1, d);
  Matrix hidden[2] = {Matrix(kPromptLens.back(), d), Matrix(kPromptLens.back(), d)};
  fill(dec_x, mix_seed(args.seed, 400));
  std::vector<int> order(kPromptLens.begin(), kPromptLens.end());
  std::uint64_t shuffle = mix_seed(args.seed, 500);

  ContextOptions co;
  co.threads = worker_threads();
  // One forward through the stack, the hidden buffers taking turns.
  auto forward = [&](Context& ctx, ConstMatrixView in, MatrixView out,
                     int parent) {
    ConstMatrixView src = in;
    for (int l = 0; l < kLayers; ++l) {
      const MatrixView dst =
          l + 1 == kLayers ? out : hidden[l % 2].view().block(0, 0, in.rows, d);
      const int fs = spans().begin("dnn.TransformerBlock::forward", parent);
      const Status st = blocks[l]->forward(src, dst, ctx);
      spans().end(fs);
      if (!st.ok()) raw.fail("gpt2_block forward: " + st.to_string());
      src = dst;
    }
    ++raw.attempted;
  };

  for (int r = 0; r < kSetupReps; ++r) {
    const std::uint64_t t0 = now_ns();
    Context ctx(co);
    for (const int len : kPromptLens) forward(ctx, x[len].cview(), y[len].view(), -1);
    forward(ctx, dec_x.cview().block(0, 0, 1, d), dec_y.view(), -1);
    raw.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  Context ctx(co);
  for (const int len : kPromptLens) forward(ctx, x[len].cview(), y[len].view(), -1);
  forward(ctx, dec_x.cview().block(0, 0, 1, d), dec_y.view(), -1);

  const double decode_flops = kLayers * census_flops(1, cfg);
  auto sequence = [&](int len, std::vector<double>& into) {
    const int ss = spans().begin("gpt2.sequence");
    const std::uint64_t t0 = now_ns();
    forward(ctx, x[len].cview(), y[len].view(), ss);
    std::uint64_t prev = now_ns();
    raw.first_ms.push_back(ms_between(t0, prev));
    raw.op_ms.push_back(raw.first_ms.back());
    for (int step = 0; step < kDecodeSteps; ++step) {
      forward(ctx, dec_x.cview().block(step, 0, 1, d), dec_y.view(), ss);
      const std::uint64_t now = now_ns();
      raw.later_ms.push_back(ms_between(prev, now));
      raw.op_ms.push_back(raw.later_ms.back());
      prev = now;
    }
    spans().end(ss);
    const double seq_ms = ms_between(t0, prev);
    raw.pass_ms.push_back(seq_ms);
    into.push_back(seq_ms);
    raw.timed_s += seq_ms * 1e-3;
    raw.flops += kLayers * census_flops(len, cfg) + kDecodeSteps * decode_flops;
    raw.ops += 1 + kDecodeSteps;
  };
  auto cycle = [&](std::vector<double>& into) {
    for (std::size_t i = order.size(); i > 1; --i) {  // seeded shuffle
      shuffle = mix_seed(shuffle, i);
      std::swap(order[i - 1], order[shuffle % i]);
    }
    for (const int len : order) sequence(len, into);
  };
  timed_loop(args, raw, cycle);

  // Correctness gate (untimed). The first int8-FFN block must track its
  // all-fp32 twin; fp32 and int8 GEMMs on the block's shapes must meet
  // their bounds.
  {
    const dnn::TransformerBlock twin(gpt2_config(args.seed, 0, DType::kF32));
    auto check_twin = [&](ConstMatrixView in) {
      Matrix got(in.rows, d), want(in.rows, d);
      ++raw.attempted;
      if (!blocks[0]->forward(in, got.view(), ctx).ok() ||
          !twin.forward(in, want.view(), ctx).ok()) {
        raw.fail("gpt2_block twin forward failed");
        return;
      }
      const double e = autogemm::common::rel_frobenius_error(got.cview(),
                                                             want.cview());
      if (!(e <= kMixedBlockRelFrobenius))
        raw.fail("gpt2_block tokens=" + std::to_string(in.rows) +
                 " vs fp32 twin rel Frobenius " + std::to_string(e));
    };
    for (const int len : kPromptLens) check_twin(x[len].cview());
    check_twin(dec_x.cview().block(0, 0, 1, d));

    const int t = kPromptLens[4];
    Matrix w_qkv(d, 3 * d), qkv(t, 3 * d), w_fc1(d, cfg.d_ff), ff1(t, cfg.d_ff);
    fill(w_qkv, mix_seed(args.seed, 600));
    fill(w_fc1, mix_seed(args.seed, 601));
    GemmExParams p;
    p.beta = 0.0f;
    std::string why;
    raw.attempted += 3;
    if (!ctx.run_const_b(x[t].cview(), w_qkv.cview(), qkv.view(), p).ok() ||
        !check_fp32(x[t].cview(), w_qkv.cview(), qkv.cview(), false, 1.0f, 64,
                    mix_seed(args.seed, 602), &why))
      raw.fail("gpt2_block QKV fp32 " + why);
    // Attention scores: Q . K^T with alpha = 1/sqrt(head dim).
    const int hd = d / cfg.n_heads;
    Matrix scores(t, t);
    GemmExParams sp;
    sp.trans_b = autogemm::Trans::kYes;
    sp.alpha = 1.0f / std::sqrt(static_cast<float>(hd));
    sp.beta = 0.0f;
    const auto q = qkv.cview().block(0, 0, t, hd);
    const auto k = qkv.cview().block(0, d, t, hd);
    if (!ctx.run(q, k, scores.view(), sp).ok() ||
        !check_fp32(q, k, scores.cview(), true, sp.alpha, 64,
                    mix_seed(args.seed, 603), &why))
      raw.fail("gpt2_block attention fp32 " + why);
    const bool ran =
        ctx.run_const_b_i8(x[t].cview(), w_fc1.cview(), ff1.view(), 1.0f, 0.0f)
            .ok();
    const double e = rel_frobenius_fp64(x[t].cview(), w_fc1.cview(), ff1.cview());
    if (!ran || !(e <= kInt8RelFrobenius))
      raw.fail("gpt2_block FC1 int8 rel Frobenius " + std::to_string(e));
  }
  if (!args.trace) return 0;

  constexpr int kProbeTokens = kPromptLens[4];
  LayerProbeInput in;
  std::vector<ServeShape> ss;
  for (const int tokens : {kProbeTokens, 1}) {
    const int per_pass = (tokens == 1 ? kDecodeSteps : 1) * kLayers;
    std::map<std::array<int, 3>, int> census;
    for (const auto& s : dnn::TransformerBlock::gemm_shapes(tokens, cfg)) ++census[s];
    for (const auto& [s, count] : census) {
      const bool ffn = s == std::array<int, 3>{tokens, cfg.d_ff, d} ||
                       s == std::array<int, 3>{tokens, d, cfg.d_ff};
      const DType dt = ffn ? DType::kI8 : DType::kF32;
      in.shapes.push_back({s[0], s[1], s[2], dt, count * per_pass});
      ss.push_back({s[0], s[1], s[2], dt, double(count * per_pass),
                    tokens == 1 ? 1 : 0});
    }
  }
  in.ctx = &ctx;
  in.stats = ctx.stats();
  in.threads = co.threads;
  in.seed = args.seed;
  probe_kernels(in, raw);
  probe_core(in, raw);
  probe_quant(in, raw);
  probe_transformer(cfg, {{kProbeTokens, kLayers}, {1, kDecodeSteps * kLayers}},
                    ctx, raw);
  if (const Phase* ph = sched.find("probe")) probe_serve(ss, *ph, args.seed, raw);
  return 0;
}

// ---- serve_mixed -----------------------------------------------------------

namespace {

// The mini-GPT-2 census: one prefill forward of kServePrompt tokens per
// kServeDecode single-token decode forwards; weight GEMMs are offered at
// fp32 and int8 in equal parts, attention GEMMs at fp32.
dnn::TransformerConfig mini_config() {
  dnn::TransformerConfig cfg;
  cfg.d_model = 64;
  cfg.n_heads = 4;
  cfg.d_ff = 256;
  return cfg;
}
constexpr int kServePrompt = 48;
constexpr int kServeDecode = 32;
constexpr int kBurstGenerations = 4;  // generations submitted per pass

bool is_weight_gemm(const std::array<int, 3>& s, int tokens) {
  return s[1] != tokens && s[2] != tokens;
}

std::vector<ServeShape> serve_census() {
  std::vector<ServeShape> mix;
  for (const int tokens : {kServePrompt, 1}) {
    const double phase_weight = tokens == 1 ? kServeDecode : 1;
    std::map<std::array<int, 3>, int> census;
    for (const auto& s : dnn::TransformerBlock::gemm_shapes(tokens, mini_config()))
      ++census[s];
    for (const auto& [s, count] : census) {
      const double w = phase_weight * count;
      const int cls = tokens == 1 ? 1 : 0;
      if (is_weight_gemm(s, tokens)) {
        mix.push_back({s[0], s[1], s[2], DType::kF32, w / 2, cls});
        mix.push_back({s[0], s[1], s[2], DType::kI8, w / 2, cls});
      } else {
        mix.push_back({s[0], s[1], s[2], DType::kF32, w, cls});
      }
    }
  }
  return mix;
}

std::size_t index_of(const std::vector<ServeShape>& mix,
                     const std::array<int, 3>& s, DType dt) {
  for (std::size_t i = 0; i < mix.size(); ++i)
    if (mix[i].m == s[0] && mix[i].n == s[1] && mix[i].k == s[2] &&
        mix[i].dtype == dt)
      return i;
  return 0;
}

/// One generation's requests in forward order: the prefill forward's GEMMs,
/// then kServeDecode decode forwards'; weight GEMMs alternate dtype.
std::vector<std::size_t> generation_requests(const std::vector<ServeShape>& mix) {
  std::vector<std::size_t> out;
  for (int f = 0; f <= kServeDecode; ++f) {
    const int tokens = f == 0 ? kServePrompt : 1;
    int w = 0;
    for (const auto& s : dnn::TransformerBlock::gemm_shapes(tokens, mini_config())) {
      const bool weight = is_weight_gemm(s, tokens);
      const DType dt = weight && (f + w++) % 2 ? DType::kI8 : DType::kF32;
      out.push_back(index_of(mix, s, dt));
    }
  }
  return out;
}

}  // namespace

int run_serve_mixed(const Args& args, const Schedule& sched, Raw& raw) {
  const Phase* nominal = sched.find("nominal");
  const std::vector<const Phase*> ladder = sched.all("ladder");
  if (nominal == nullptr || ladder.empty()) {
    std::fprintf(stderr, "perfbench_driver: serve_mixed needs nominal and "
                         "ladder phases in the schedule\n");
    return 2;
  }
  ServeFixture fx(serve_census(), mix_seed(args.seed, 800));
  const std::size_t nshapes = fx.shapes().size();

  for (int r = 0; r < kSetupReps; ++r) {
    const std::uint64_t t0 = now_ns();
    auto engine = make_engine();
    std::vector<ServeFixture::Slot*> slots;
    for (std::size_t si = 0; si < nshapes; ++si)
      slots.push_back(&submit_now(*engine, fx, si, raw));
    for (ServeFixture::Slot* s : slots)
      while (!s->done.load(std::memory_order_acquire)) std::this_thread::yield();
    raw.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    fx.settle(raw);
    engine->shutdown();
  }

  auto engine = make_engine();
  const std::vector<std::size_t> generation = generation_requests(fx.shapes());
  double generation_flops = 0;
  for (const std::size_t si : generation)
    generation_flops += gemm_flops(fx.shapes()[si].m, fx.shapes()[si].n,
                                   fx.shapes()[si].k);
  // One pass: kBurstGenerations whole generations submitted at once.
  auto burst = [&]() {
    const int bs = spans().begin("serve.burst");
    std::vector<ServeFixture::Slot*> slots;
    slots.reserve(generation.size() * kBurstGenerations);
    const std::uint64_t t0 = now_ns();
    for (int g = 0; g < kBurstGenerations; ++g)
      for (const std::size_t si : generation)
        slots.push_back(&submit_now(*engine, fx, si, raw));
    for (ServeFixture::Slot* s : slots)
      while (!s->done.load(std::memory_order_acquire)) std::this_thread::yield();
    const double ms = ms_between(t0, now_ns());
    spans().end(bs);
    fx.settle(raw);  // untimed output checks
    return ms;
  };
  for (int w = 0; w < 3; ++w) burst();  // warm-up

  const serve::ShardedStats before = engine->stats();
  const PhaseResult nom = run_phase(*engine, fx, *nominal, raw);
  const serve::ShardedStats after = engine->stats();
  for (std::size_t i = 0; i < nom.lat_ms.size(); ++i) {
    raw.op_ms.push_back(nom.lat_ms[i]);
    (nom.cls[i] == 0 ? raw.first_ms : raw.later_ms).push_back(nom.lat_ms[i]);
  }
  const double burst_s = std::max(0.5, 0.15 * args.seconds);
  run_for(burst_s, [&] {
    const double ms = burst();
    raw.pass_ms.push_back(ms);
    raw.timed_s += ms * 1e-3;
    raw.flops += generation_flops * kBurstGenerations;
    raw.ops += generation.size() * kBurstGenerations;
  });
  for (const Phase* step : ladder) {
    const PhaseResult pr = run_phase(*engine, fx, *step, raw, /*strict=*/false);
    raw.ladder.push_back({step->rate, pr.lat_ms});
    // Stop climbing once a rung is clearly past the limit.
    std::vector<double> lat = pr.lat_ms;
    bool refused = false;
    for (double& v : lat)
      if (v < 0) refused = true, v = 1e12;
    if (refused || quantile(lat, 0.99) > 4 * sched.limit_ms) break;
  }
  if (!args.trace) return 0;

  // Traced run: serve.* from the untraced nominal phase, then the same
  // phase again with tracing on for the overhead figure.
  report_serve(nom, before, after, fx, raw);
  set_tracing(true);
  const PhaseResult traced = run_phase(*engine, fx, *nominal, raw);
  autogemm::obs::set_trace_enabled(false);
  auto ok_mean = [](const std::vector<double>& v) {
    double s = 0;
    std::size_t n = 0;
    for (const double x : v)
      if (x >= 0) s += x, ++n;
    return n ? s / static_cast<double>(n) : 0.0;
  };
  report_trace_overhead(ok_mean(nom.lat_ms), ok_mean(traced.lat_ms), raw);

  LayerProbeInput in;
  std::map<std::size_t, int> per_pass;
  for (const std::size_t si : generation) ++per_pass[si];
  for (const auto& [si, count] : per_pass)
    in.shapes.push_back({fx.shapes()[si].m, fx.shapes()[si].n,
                         fx.shapes()[si].k, fx.shapes()[si].dtype, count});
  in.ctx = &engine->shard_context(0);
  for (std::size_t i = 0; i < engine->shards(); ++i) {
    const autogemm::ContextStats st = engine->shard_context(i).stats();
    in.stats.plan_hits += st.plan_hits;
    in.stats.plan_misses += st.plan_misses;
    in.stats.packed_hits += st.packed_hits;
    in.stats.packed_misses += st.packed_misses;
  }
  in.threads = worker_threads();
  in.seed = args.seed;
  probe_kernels(in, raw);
  probe_core(in, raw);
  probe_quant(in, raw);
  ContextOptions co;
  co.threads = 1;
  Context block_ctx(co);
  probe_transformer(mini_config(), {{kServePrompt, 1}, {1, kServeDecode}},
                    block_ctx, raw);
  return 0;
}

}  // namespace perfbench
