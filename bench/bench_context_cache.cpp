// Context cache hit-rate bench: repeated irregular-shape traffic.
//
// Simulates the serving workload the Context runtime exists for: a fixed
// population of small/irregular GEMM shapes (the paper's taxonomy: tiny,
// tall-skinny, single row/column, prime dims, plus a ResNet-50 tail layer)
// arriving over and over with constant per-shape weights. Three
// configurations run the identical call stream:
//
//   planless      — the pre-Context free-function style: every call re-runs
//                   planning (DMT + model costing) and packs online.
//   context cold  — first round through a fresh Context (misses: plans are
//                   built and weights packed once).
//   context warm  — steady state: every call hits the plan cache and the
//                   packed-weight cache.
//
// Output: the usual human-readable rows plus a JSON object (also written
// to a file, default bench_context_cache.json next to the other bench
// outputs) reporting hit rates, the warm-vs-planless speedup, and the obs
// metrics snapshot for the run.
//
//   build/bench/bench_context_cache [out.json] [--repeats ROUNDS]
//                                   [--json-out out.json]
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/context.hpp"

namespace {

using namespace autogemm;

struct Workload {
  const char* label;
  common::Matrix a, b, c;
  Workload(const char* label_, int m, int n, int k)
      : label(label_), a(m, k), b(k, n), c(m, n) {
    common::fill_random(a.view(), m + 1);
    common::fill_random(b.view(), n + 2);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args =
      bench::parse_args(argc, argv, /*default_warmup=*/0,
                        /*default_repeats=*/40);
  const std::string json_path =
      !args.json_out.empty() ? args.json_out
                             : args.pos(0, "bench_context_cache.json");

  // The irregular serving population. Weights (B) are constant per shape;
  // activations (A) are whatever arrived — reused here since refilling
  // would cost both paths identically.
  std::vector<Workload> stream;
  stream.emplace_back("tiny-prime", 17, 19, 23);
  stream.emplace_back("small-square", 64, 49, 64);
  stream.emplace_back("single-col", 128, 1, 64);
  stream.emplace_back("single-row", 1, 128, 64);
  stream.emplace_back("odd-rect", 33, 65, 129);
  stream.emplace_back("tall-skinny", 256, 48, 64);
  stream.emplace_back("short-wide", 48, 256, 64);
  stream.emplace_back("square-100", 100, 100, 100);
  stream.emplace_back("resnet-L16ish", 512, 49, 256);

  const int rounds = args.repeats;
  bench::header("Context cache: repeated irregular-shape stream (" +
                std::to_string(rounds) + " rounds x " +
                std::to_string(stream.size()) + " shapes)");

  GemmExParams overwrite;
  overwrite.beta = 0.0f;

  // --- planless free-function path: re-plan (and re-pack) on every call.
  common::Timer t_planless;
  for (int r = 0; r < rounds; ++r) {
    for (auto& w : stream) {
      const Plan plan(w.a.rows(), w.b.cols(), w.a.cols(),
                      default_config(w.a.rows(), w.b.cols(), w.a.cols()));
      detail::scale_c(w.c.view(), 0.0f);
      gemm(w.a.view(), w.b.view(), w.c.view(), plan);
    }
  }
  const double planless_seconds = t_planless.seconds();

  // --- context path: serial (same execution resources), caches on.
  ContextOptions opts;
  opts.threads = 1;
  Context ctx(opts);

  int failures = 0;
  common::Timer t_cold;
  for (auto& w : stream)
    failures +=
        !ctx.run_const_b(w.a.view(), w.b.view(), w.c.view(), overwrite).ok();
  const double cold_seconds = t_cold.seconds();

  common::Timer t_warm;
  for (int r = 0; r < rounds; ++r)
    for (auto& w : stream)
      failures +=
          !ctx.run_const_b(w.a.view(), w.b.view(), w.c.view(), overwrite).ok();
  const double warm_seconds = t_warm.seconds();
  if (failures > 0) {
    std::fprintf(stderr, "context path: %d call(s) failed: %s\n", failures,
                 ctx.health().last_error.to_string().c_str());
    return 1;
  }

  const auto stats = ctx.stats();
  const int calls = rounds * static_cast<int>(stream.size());
  const double speedup = planless_seconds / warm_seconds;
  const double plan_hit_rate =
      static_cast<double>(stats.plan_hits) /
      static_cast<double>(stats.plan_hits + stats.plan_misses);
  const double packed_hit_rate =
      static_cast<double>(stats.packed_hits) /
      static_cast<double>(stats.packed_hits + stats.packed_misses);

  std::printf("%-22s %10.2f ms  (%d calls)\n", "planless free-function",
              planless_seconds * 1e3, calls);
  std::printf("%-22s %10.2f ms  (1 round: plans built, weights packed)\n",
              "context cold", cold_seconds * 1e3);
  std::printf("%-22s %10.2f ms  (%d calls)\n", "context warm",
              warm_seconds * 1e3, calls);
  std::printf("warm speedup vs planless: %.2fx   plan hit rate %.3f   "
              "packed hit rate %.3f\n",
              speedup, plan_hit_rate, packed_hit_rate);

  char json[1024];
  std::snprintf(
      json, sizeof(json),
      "{\"bench\": \"context_cache\", \"rounds\": %d, \"shapes\": %zu, "
      "\"calls\": %d, \"planless_seconds\": %.6f, "
      "\"context_cold_round_seconds\": %.6f, \"context_warm_seconds\": %.6f, "
      "\"speedup_warm_vs_planless\": %.3f, \"plan_hits\": %llu, "
      "\"plan_misses\": %llu, \"plan_hit_rate\": %.4f, \"packed_hits\": %llu, "
      "\"packed_misses\": %llu, \"packed_hit_rate\": %.4f}",
      rounds, stream.size(), calls, planless_seconds, cold_seconds,
      warm_seconds, speedup, static_cast<unsigned long long>(stats.plan_hits),
      static_cast<unsigned long long>(stats.plan_misses), plan_hit_rate,
      static_cast<unsigned long long>(stats.packed_hits),
      static_cast<unsigned long long>(stats.packed_misses), packed_hit_rate);
  const std::string payload = bench::with_metrics(json);
  std::printf("\n%s\n", payload.c_str());
  bench::write_json_file(json_path, payload);
  return 0;
}
