// Quantized-GEMM bench: int8 widening-accumulate tier vs the fp32 host
// tier, accuracy vs an fp64 reference (BENCH_quant.json — ROADMAP item 2).
//
// Both tiers get the serving treatment: B (the weight matrix) is packed
// offline once and reused; A (the activations) is consumed per call — the
// fp32 path packs it online inside gemm, the int8 path quantizes it per
// call. What is timed is therefore exactly what a warm serve request pays.
//
// The CI-gating `quant acceptance` line requires, on every compute-bound
// shape: max rel-err vs the fp64-accumulating reference <= 1e-2 (the
// documented accuracy contract of quant/qgemm.hpp) AND int8 wall-clock
// speedup >= 1.3x over fp32. The irregular/skinny shapes are reported for
// the curve but only gated on accuracy — memory-bound skinny-M decode
// GEMMs win on bytes, not ALU throughput, and their speedup is noisier.
//
//   build/bench/bench_quant [--repeats N] [--json-out F]
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/reference_gemm.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"
#include "core/gemm.hpp"
#include "kernels/qkernel.hpp"
#include "kernels/qwide.hpp"
#include "quant/qgemm.hpp"

namespace {

using namespace autogemm;

struct Shape {
  int m, n, k;
  bool compute_bound;  // gated on speedup, not just accuracy
};

// Paper-flavoured sweep: the Table I pair (64^3 small, 256x3136x64
// irregular), square compute-bound sizes, and GPT-2-style decode shapes
// (skinny M against FC-sized weight panels).
const Shape kShapes[] = {
    {64, 64, 64, false},     {256, 3136, 64, false},  {256, 256, 256, true},
    {384, 384, 384, true},   {512, 512, 512, true},   {1, 768, 768, false},
    {4, 768, 3072, false},   {8, 2304, 768, false},
};

constexpr double kRelErrBound = 1e-2;
constexpr double kSpeedupGate = 1.3;

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv, 1, 5);
  bench::header("quantized GEMM: int8 widening tier vs fp32 host tier");
  const kernels::QWideIsa qwide = kernels::detect_qwide_isa();
  std::printf("simd widening path: %s\n",
              qwide != kernels::QWideIsa::kNone ? kernels::qwide_isa_name(qwide)
              : kernels::qgemm_has_simd()       ? "sse2 (pmaddwd)"
                                                : "no (portable)");

  bool pass = true;
  std::string rows_json;
  std::printf("%6s %6s %6s  %10s %10s %8s  %9s  %s\n", "M", "N", "K",
              "fp32 (s)", "int8 (s)", "speedup", "rel-err", "gate");
  for (const Shape& s : kShapes) {
    common::Matrix a(s.m, s.k), b(s.k, s.n);
    common::fill_random(a.view(), 0x9e3779b9u + static_cast<unsigned>(s.m));
    common::fill_random(b.view(), 0x7f4a7c15u + static_cast<unsigned>(s.n));
    common::Matrix c_f32(s.m, s.n), c_i8(s.m, s.n), c_ref(s.m, s.n);

    // fp32 tier: plan + offline-packed B (the serving configuration).
    auto plan = Plan::create(s.m, s.n, s.k, default_config(s.m, s.n, s.k));
    if (!plan.ok()) {
      std::fprintf(stderr, "plan failed: %s\n",
                   plan.status().to_string().c_str());
      return 1;
    }
    auto packed_b = PackedB::create(b.view(), *plan);
    if (!packed_b.ok()) return 1;
    const detail::GroupMember member{a.view(), b.view(), c_f32.view()};
    common::Workspace ws;
    const auto t_f32 = bench::median(bench::time_reps(
        [&] {
          c_f32.set_zero();
          detail::execute(&member, 1, nullptr, &*packed_b, {}, *plan, nullptr,
                          ws);
        },
        args.warmup, args.repeats));

    // int8 tier: offline-quantized+packed B, A quantized per call.
    auto qb = quant::QPackedB::create(b.view());
    if (!qb.ok()) return 1;
    quant::QGemmOptions qopts;
    qopts.beta = 0.0f;
    const auto t_i8 = bench::median(bench::time_reps(
        [&] {
          Status st = quant::qgemm(a.view(), *qb, c_i8.view(), qopts);
          if (!st.ok()) {
            std::fprintf(stderr, "qgemm failed: %s\n", st.to_string().c_str());
            std::exit(1);
          }
        },
        args.warmup, args.repeats));

    common::reference_gemm(a.view(), b.view(), c_ref.view());
    const double rel_err =
        common::rel_frobenius_error(c_i8.view(), c_ref.view());
    const double speedup = t_i8 > 0.0 ? t_f32 / t_i8 : 0.0;

    const bool acc_ok = rel_err <= kRelErrBound;
    const bool perf_ok = !s.compute_bound || speedup >= kSpeedupGate;
    pass = pass && acc_ok && perf_ok;
    std::printf("%6d %6d %6d  %10.6f %10.6f %7.2fx  %9.2e  %s%s\n", s.m, s.n,
                s.k, t_f32, t_i8, speedup, rel_err,
                acc_ok && perf_ok ? "ok" : "FAIL",
                s.compute_bound ? " [compute-bound]" : "");

    char row[256];
    std::snprintf(row, sizeof(row),
                  "%s{\"m\": %d, \"n\": %d, \"k\": %d, \"compute_bound\": %s, "
                  "\"fp32_s\": %.9f, \"int8_s\": %.9f, \"speedup\": %.3f, "
                  "\"rel_err\": %.3e}",
                  rows_json.empty() ? "" : ", ", s.m, s.n, s.k,
                  s.compute_bound ? "true" : "false", t_f32, t_i8, speedup,
                  rel_err);
    rows_json += row;
  }

  std::printf("\nquant acceptance: %s (rel-err <= %.0e on all shapes, "
              "speedup >= %.1fx on compute-bound)\n",
              pass ? "PASS" : "FAIL", kRelErrBound, kSpeedupGate);

  if (!args.json_out.empty()) {
    std::string json = "{\"bench\": \"quant\", \"simd\": ";
    json += kernels::qgemm_has_simd() ? "true" : "false";
    json += ", \"rel_err_bound\": 1e-2, \"speedup_gate\": 1.3, \"pass\": ";
    json += pass ? "true" : "false";
    json += ", \"shapes\": [" + rows_json + "]}";
    bench::write_json_file(args.json_out, bench::with_metrics(json));
  }
  return pass ? 0 : 2;
}
