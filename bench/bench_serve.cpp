// Serve engine bench: closed-loop batching throughput + open-loop latency.
//
// Quantifies what the serve layer buys over driving Context::run once per
// request — the paper's irregular-stream serving scenario (many tiny
// same-shape GEMMs, dispatch overhead dominating flops).
//
// Closed loop: N same-shape requests (group-shared A, per-request C) are
// pushed through four configurations and timed submit-to-last-completion:
//
//   direct          — caller loops Context::run, no engine (lower bound on
//                     per-request overhead; no queue, no thread handoff).
//   engine single   — Engine with max_batch=1: every request pays the full
//                     queue + dispatch cost individually.
//   engine batch=8  — shape-bucketed coalescing, groups of up to 8.
//   engine batch=32 — ditto, deeper amortization.
//
// The headline `speedup` line (batch=8 vs single) is the PR's acceptance
// criterion: coalescing must be >= 1.5x one-run-per-request throughput.
//
// Open loop: requests arrive paced at a fraction/multiple of the engine's
// measured closed-loop capacity against a small queue; reports queue-latency
// p50/p99 (diffed obs histograms, so each phase sees only its own
// samples) and shed/reject counts — the graceful-degradation story.
//
//   build/bench/bench_serve [--warmup W] [--repeats R] [--json-out F]
//                           [--requests N]
#include <atomic>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"
#include "obs/metrics.hpp"
#include "serve/engine.hpp"

namespace {

using namespace autogemm;

// Request shape: small enough that per-dispatch overhead, not flops,
// dominates — the regime the engine's coalescing targets.
constexpr int kM = 8, kN = 8, kK = 8;

struct RequestSet {
  common::Matrix a, b;
  std::vector<common::Matrix> cs;  // one C per request (no aliasing)
  RequestSet(int n_requests, int m, int n, int k) : a(m, k), b(k, n) {
    common::fill_random(a.view(), 11);
    common::fill_random(b.view(), 13);
    cs.reserve(static_cast<std::size_t>(n_requests));
    for (int i = 0; i < n_requests; ++i) cs.emplace_back(m, n);
  }
  serve::GemmRequest request(std::size_t i, serve::Lane lane,
                             std::uint64_t deadline_ns = 0) {
    serve::GemmRequest r;
    r.a = a.view();
    r.b = b.view();
    r.c = cs[i].view();
    r.lane = lane;
    r.deadline_ns = deadline_ns;
    return r;
  }
  void reset() {
    for (auto& c : cs) c.set_zero();
  }
};

struct ClosedResult {
  double seconds = 0;
  double rps = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_requests = 0;
  std::uint64_t single_dispatches = 0;
  bool accounting_clean = true;
};

// One closed-loop repetition through the engine: submit everything as
// fast as possible, wait for the last completion.
ClosedResult run_engine_closed(Context& ctx, RequestSet& reqs,
                               std::size_t max_batch) {
  reqs.reset();
  serve::EngineOptions opts;
  opts.queue_capacity = reqs.cs.size() + 8;  // closed loop: no backpressure
  opts.shed_watermark = opts.queue_capacity;  // and no overload shedding
  opts.max_batch = max_batch;
  opts.max_batch_delay_ns = 0;  // coalesce across the backlog only
  serve::Engine engine(ctx, opts);

  // Callback flavor: the cheapest completion path (no promise shared
  // state per request), so the measured delta between single and batched
  // dispatch is the engine's, not std::future's. The future flavor is
  // exercised by the open loop below and by the serve tests.
  std::atomic<std::uint64_t> remaining(reqs.cs.size());
  std::atomic<std::uint64_t> errors(0);
  const std::uint64_t t0 = common::now_ns();
  for (std::size_t i = 0; i < reqs.cs.size(); ++i) {
    engine.submit(reqs.request(i, serve::Lane::kBulk), [&](Status s) {
      if (!s.ok()) errors.fetch_add(1, std::memory_order_relaxed);
      remaining.fetch_sub(1, std::memory_order_release);
    });
  }
  while (remaining.load(std::memory_order_acquire) != 0)
    std::this_thread::yield();
  const std::uint64_t t1 = common::now_ns();

  const serve::ServerStats st = engine.stats();
  ClosedResult r;
  r.seconds = static_cast<double>(t1 - t0) * 1e-9;
  r.rps = static_cast<double>(reqs.cs.size()) / r.seconds;
  r.batches = st.batches;
  r.batched_requests = st.batched_requests;
  r.single_dispatches = st.single_dispatches;
  r.accounting_clean = st.accounting_clean() && errors.load() == 0;
  return r;
}

ClosedResult run_direct_closed(Context& ctx, RequestSet& reqs) {
  reqs.reset();
  const std::uint64_t t0 = common::now_ns();
  std::uint64_t errors = 0;
  for (auto& c : reqs.cs)
    if (!ctx.run(reqs.a.view(), reqs.b.view(), c.view()).ok()) ++errors;
  const std::uint64_t t1 = common::now_ns();
  ClosedResult r;
  r.seconds = static_cast<double>(t1 - t0) * 1e-9;
  r.rps = static_cast<double>(reqs.cs.size()) / r.seconds;
  r.single_dispatches = reqs.cs.size();
  r.accounting_clean = errors == 0;
  return r;
}

// Histogram snapshots are cumulative for the process; subtracting a
// "before" snapshot yields the samples observed during one phase.
obs::Histogram::Snapshot diff(const obs::Histogram::Snapshot& after,
                              const obs::Histogram::Snapshot& before) {
  obs::Histogram::Snapshot d = after;
  for (std::size_t i = 0; i < d.buckets.size(); ++i)
    d.buckets[i] -= before.buckets[i];
  d.count -= before.count;
  d.sum -= before.sum;
  return d;
}

struct OpenResult {
  double rate_rps = 0;
  std::uint64_t submitted = 0, ok = 0, shed = 0, rejected = 0, expired = 0,
                 errors = 0;
  double queue_p50_us = 0, queue_p99_us = 0;  // both lanes merged
  bool accounting_clean = true;
};

struct DrainResult {
  double drain_seconds = 0;   // drain() call duration (graceful stop cost)
  std::uint64_t backlog = 0;  // queued requests at the moment drain() begins
  std::uint64_t ok = 0;
  bool stopped = false;
  bool accounting_clean = true;
};

// Graceful-drain cost: fill the queue while the dispatcher is paused, then
// time `drain()` — completing every in-flight request, refusing new work,
// and stopping. The interesting number is drain latency as a function of
// backlog depth, the bound an operator pays for a clean shutdown.
DrainResult run_drain_bench(Context& ctx, RequestSet& reqs) {
  reqs.reset();
  serve::EngineOptions opts;
  opts.queue_capacity = reqs.cs.size() + 8;
  opts.shed_watermark = opts.queue_capacity;
  opts.max_batch = 8;
  opts.max_batch_delay_ns = 0;
  opts.start_paused = true;  // accumulate the full backlog before draining
  serve::Engine engine(ctx, opts);

  std::vector<std::future<Status>> futures;
  futures.reserve(reqs.cs.size());
  for (std::size_t i = 0; i < reqs.cs.size(); ++i)
    futures.push_back(engine.submit(reqs.request(i, serve::Lane::kBulk)));

  DrainResult r;
  r.backlog = engine.queue_depth();
  engine.resume();
  const std::uint64_t t0 = common::now_ns();
  const Status drained = engine.drain(/*timeout_ns=*/60'000'000'000ull);
  const std::uint64_t t1 = common::now_ns();
  r.drain_seconds = static_cast<double>(t1 - t0) * 1e-9;
  r.stopped = drained.ok() && engine.state() == serve::EngineState::kStopped;
  for (auto& f : futures)
    if (f.get().ok()) ++r.ok;
  r.accounting_clean = engine.stats().accounting_clean();
  return r;
}

// Paced submission at `rate_rps` against a small queue; overload rates
// exercise the shed watermark and admission backpressure.
OpenResult run_open_loop(Context& ctx, RequestSet& reqs, double rate_rps) {
  reqs.reset();
  serve::EngineOptions opts;
  opts.queue_capacity = 128;
  opts.max_batch = 32;
  opts.max_batch_delay_ns = 100'000;
  serve::Engine engine(ctx, opts);

  // Queue latency over both lanes: the family total, before and after.
  const obs::Registry& reg = obs::default_registry();
  const auto queue0 = reg.histogram_total("autogemm_serve_queue_seconds");

  const double ns_per_req = 1e9 / rate_rps;
  std::vector<std::future<Status>> futures;
  futures.reserve(reqs.cs.size());
  const std::uint64_t t0 = common::now_ns();
  for (std::size_t i = 0; i < reqs.cs.size(); ++i) {
    const std::uint64_t due =
        t0 + static_cast<std::uint64_t>(static_cast<double>(i) * ns_per_req);
    while (common::now_ns() < due) {
      // Pacing gaps go to the dispatcher: on the 1-core host a pure
      // busy-wait starves it outright (the queue fills and everything
      // rejects), while sleep granularity would distort the target
      // rate. yield keeps the rate honest and lets the engine drain —
      // the closest analogue of a client on its own core.
      std::this_thread::yield();
    }
    const serve::Lane lane =
        i % 4 == 0 ? serve::Lane::kInteractive : serve::Lane::kBulk;
    futures.push_back(engine.submit(reqs.request(i, lane)));
  }
  engine.shutdown();

  OpenResult r;
  r.rate_rps = rate_rps;
  r.submitted = futures.size();
  for (auto& f : futures) {
    const Status s = f.get();
    switch (s.code()) {
      case StatusCode::kOk: ++r.ok; break;
      case StatusCode::kUnavailable: ++r.shed; break;
      case StatusCode::kResourceExhausted: ++r.rejected; break;
      case StatusCode::kDeadlineExceeded: ++r.expired; break;
      default: ++r.errors; break;
    }
  }
  const obs::Histogram::Snapshot merged =
      diff(reg.histogram_total("autogemm_serve_queue_seconds"), queue0);
  r.queue_p50_us = merged.quantile(0.50) * 1e6;
  r.queue_p99_us = merged.quantile(0.99) * 1e6;
  r.accounting_clean = engine.stats().accounting_clean();
  return r;
}

int flag_int(const bench::BenchArgs& args, const char* name, int fallback) {
  for (std::size_t i = 0; i + 1 < args.positional.size(); ++i)
    if (args.positional[i] == name)
      return std::atoi(args.positional[i + 1].c_str());
  return fallback;
}

std::string closed_json(const char* mode, std::size_t max_batch,
                        const ClosedResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"mode\": \"%s\", \"max_batch\": %zu, \"seconds\": %.6f, "
                "\"rps\": %.1f, \"batches\": %llu, \"batched_requests\": "
                "%llu, \"single_dispatches\": %llu, \"accounting_clean\": %s}",
                mode, max_batch, r.seconds, r.rps,
                static_cast<unsigned long long>(r.batches),
                static_cast<unsigned long long>(r.batched_requests),
                static_cast<unsigned long long>(r.single_dispatches),
                r.accounting_clean ? "true" : "false");
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args =
      bench::parse_args(argc, argv, /*default_warmup=*/1,
                        /*default_repeats=*/5);
  const int n_requests = flag_int(args, "--requests", 2048);

  ContextOptions copts;
  copts.threads = 1;  // isolate dispatch amortization from parallelism
  Context ctx(copts);
  RequestSet reqs(n_requests, kM, kN, kK);

  bench::header("Serve engine: closed-loop coalescing + open-loop latency (" +
                std::to_string(n_requests) + " x " + std::to_string(kM) + "x" +
                std::to_string(kN) + "x" + std::to_string(kK) + ")");

  // --- closed loop ------------------------------------------------------
  bench::subheader("closed loop (median of " + std::to_string(args.repeats) +
                   ", submit-to-last-completion)");

  struct Mode {
    const char* label;
    std::size_t max_batch;  // 0 = direct ctx.run loop
  };
  const Mode modes[] = {{"direct_run_loop", 0},
                        {"engine_single", 1},
                        {"engine_batch8", 8},
                        {"engine_batch32", 32}};

  ClosedResult results[4];
  for (int mi = 0; mi < 4; ++mi) {
    const Mode& mode = modes[mi];
    auto once = [&]() -> ClosedResult {
      return mode.max_batch == 0
                 ? run_direct_closed(ctx, reqs)
                 : run_engine_closed(ctx, reqs, mode.max_batch);
    };
    for (int i = 0; i < args.warmup; ++i) (void)once();
    std::vector<double> secs;
    ClosedResult best;  // counters from the last rep, seconds = median
    for (int i = 0; i < args.repeats; ++i) {
      best = once();
      secs.push_back(best.seconds);
    }
    best.seconds = bench::median(secs);
    best.rps = static_cast<double>(n_requests) / best.seconds;
    results[mi] = best;
    std::printf("%-18s %10.3f ms  %12.0f req/s  batches=%llu batched=%llu "
                "single=%llu %s\n",
                mode.label, best.seconds * 1e3, best.rps,
                static_cast<unsigned long long>(best.batches),
                static_cast<unsigned long long>(best.batched_requests),
                static_cast<unsigned long long>(best.single_dispatches),
                best.accounting_clean ? "" : "ACCOUNTING-BROKEN");
  }

  const double speedup8 = results[2].rps / results[1].rps;
  const double speedup32 = results[3].rps / results[1].rps;
  std::printf("\nspeedup (batch=8 vs single-dispatch):  %.2fx\n", speedup8);
  std::printf("speedup (batch=32 vs single-dispatch): %.2fx\n", speedup32);
  std::printf("acceptance (>= 1.50x at max_batch >= 8): %s\n",
              speedup8 >= 1.5 ? "PASS" : "FAIL");

  // --- open loop --------------------------------------------------------
  // Rates are keyed to the engine's own measured closed-loop capacity
  // (submission + dispatch on this host), not the raw direct loop: the
  // point is one comfortably-sustainable rate (clean admission, low
  // queue latency) and one far past capacity (sheds + rejects with
  // clean accounting).
  const double engine_rps = results[1].rps;
  const double rates[] = {0.15 * engine_rps, 8.0 * engine_rps};
  const char* rate_labels[] = {"sustainable (0.15x engine)",
                               "overload (8x engine)"};
  bench::subheader("open loop (paced arrivals, queue_capacity=128)");

  OpenResult open_results[2];
  for (int i = 0; i < 2; ++i) {
    open_results[i] = run_open_loop(ctx, reqs, rates[i]);
    const OpenResult& r = open_results[i];
    std::printf("%-28s rate=%9.0f req/s  ok=%llu shed=%llu rejected=%llu "
                "p50=%.1fus p99=%.1fus %s\n",
                rate_labels[i], r.rate_rps,
                static_cast<unsigned long long>(r.ok),
                static_cast<unsigned long long>(r.shed),
                static_cast<unsigned long long>(r.rejected), r.queue_p50_us,
                r.queue_p99_us,
                r.accounting_clean ? "" : "ACCOUNTING-BROKEN");
  }

  // --- graceful drain ---------------------------------------------------
  bench::subheader("graceful drain (full backlog, max_batch=8)");
  const DrainResult drain_r = run_drain_bench(ctx, reqs);
  std::printf("drain: backlog=%llu  %.3f ms  (%.0f req/s)  ok=%llu %s%s\n",
              static_cast<unsigned long long>(drain_r.backlog),
              drain_r.drain_seconds * 1e3,
              static_cast<double>(drain_r.backlog) /
                  (drain_r.drain_seconds > 0 ? drain_r.drain_seconds : 1.0),
              static_cast<unsigned long long>(drain_r.ok),
              drain_r.stopped ? "stopped" : "DRAIN-INCOMPLETE",
              drain_r.accounting_clean ? "" : " ACCOUNTING-BROKEN");

  // --- JSON -------------------------------------------------------------
  std::string json = "{\"bench\": \"serve\", \"shape\": \"" +
                     std::to_string(kM) + "x" + std::to_string(kN) + "x" +
                     std::to_string(kK) +
                     "\", \"requests\": " + std::to_string(n_requests) +
                     ", \"repeats\": " + std::to_string(args.repeats) +
                     ", \"closed_loop\": [";
  for (int i = 0; i < 4; ++i) {
    if (i) json += ", ";
    json += closed_json(modes[i].label, modes[i].max_batch, results[i]);
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "], \"speedup_batch8_vs_single\": %.3f, "
                "\"speedup_batch32_vs_single\": %.3f, \"open_loop\": [",
                speedup8, speedup32);
  json += buf;
  for (int i = 0; i < 2; ++i) {
    const OpenResult& r = open_results[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"rate_rps\": %.0f, \"submitted\": %llu, \"ok\": %llu, "
                  "\"shed\": %llu, \"rejected\": %llu, \"expired\": %llu, "
                  "\"errors\": %llu, \"queue_p50_us\": %.2f, "
                  "\"queue_p99_us\": %.2f, \"accounting_clean\": %s}",
                  i ? ", " : "", r.rate_rps,
                  static_cast<unsigned long long>(r.submitted),
                  static_cast<unsigned long long>(r.ok),
                  static_cast<unsigned long long>(r.shed),
                  static_cast<unsigned long long>(r.rejected),
                  static_cast<unsigned long long>(r.expired),
                  static_cast<unsigned long long>(r.errors), r.queue_p50_us,
                  r.queue_p99_us, r.accounting_clean ? "true" : "false");
    json += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "], \"drain\": {\"backlog\": %llu, \"seconds\": %.6f, "
                "\"ok\": %llu, \"stopped\": %s, \"accounting_clean\": %s}",
                static_cast<unsigned long long>(drain_r.backlog),
                drain_r.drain_seconds,
                static_cast<unsigned long long>(drain_r.ok),
                drain_r.stopped ? "true" : "false",
                drain_r.accounting_clean ? "true" : "false");
  json += buf;
  json += "}";
  json = bench::with_metrics(json);
  bench::write_json_file(
      !args.json_out.empty() ? args.json_out : "bench_serve.json", json);
  return 0;
}
