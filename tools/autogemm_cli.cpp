// autogemm command-line tool.
//
//   autogemm chips                          list chip models
//   autogemm asm MR NR KC [--rotate] [--lanes L]
//                                           print a generated kernel
//   autogemm tiles MC NC KC [--chip NAME]   show the DMT tiling
//   autogemm price M N K [--chip NAME] [--threads T]
//                                           price every library on a chip
//   autogemm run M N K [--reps R]           execute on this host, verified
//   autogemm tune M N K [--out FILE]        model-pruned parameter search
//   autogemm trace M N K [--threads T] [--reps R] [--strategy S]
//                        [--out FILE] [--metrics FILE]
//                                           traced GEMM -> Chrome trace
//   autogemm serve-replay TRACE [--capacity N] [--max-batch N]
//                        [--window-us U] [--deadline-us U] [--threads T]
//                        [--repeat R] [--verify] [--drain-timeout-us U]
//                                           replay a shape trace against
//                                           the serve engine
//   autogemm chaos [--seed S] [--seeds N] [--submitters T] [--requests R]
//                                           seeded chaos runs against the
//                                           serve engine (CI resilience gate)
//   autogemm crosscheck [--kc K] [--dtype f32|int8]
//                                           f32: NEON host path vs simulated
//                                           -SVE vs reference; int8: portable
//                                           vs widening quantized kernels vs
//                                           fp64 reference (CI gates)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "baselines/library_zoo.hpp"
#include "baselines/pricer.hpp"
#include "codegen/generator.hpp"
#include "common/reference_gemm.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/context.hpp"
#include "core/gemm.hpp"
#include "hw/chip_database.hpp"
#include "isa/asm_printer.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/wide.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "quant/qgemm.hpp"
#include "serve/chaos.hpp"
#include "serve/engine.hpp"
#include "serve/router.hpp"
#include "sim/interpreter.hpp"
#include "tiling/micro_tiling.hpp"
#include "tune/records.hpp"
#include "tune/tuner.hpp"

namespace {

using namespace autogemm;

int usage() {
  std::fprintf(
      stderr,
      "usage: autogemm <command> [args]\n"
      "  chips                                   list chip models\n"
      "  asm MR NR KC [--rotate] [--lanes L]     print generated kernel\n"
      "  tiles MC NC KC [--chip NAME]            show DMT tiling\n"
      "  price M N K [--chip NAME] [--threads T] price all libraries\n"
      "  run M N K [--reps R]                    execute + verify on host\n"
      "  tune M N K [--out FILE]                 model-pruned tuning\n"
      "  trace M N K [--threads T] [--reps R] [--strategy auto|blocks|ksplit]\n"
      "              [--out FILE] [--metrics FILE]\n"
      "                                          traced GEMM -> Chrome trace\n"
      "                                          (open in chrome://tracing;\n"
      "                                          tools/trace_report.py makes\n"
      "                                          the phase table)\n"
      "  serve-replay TRACE [--capacity N] [--max-batch N] [--window-us U]\n"
      "               [--deadline-us U] [--threads T] [--repeat R] [--verify]\n"
      "               [--drain-timeout-us U] [--tune] [--records FILE]\n"
      "               [--shards N]\n"
      "                                          replay a shape trace (lines\n"
      "                                          of `M N K [count] [lane]\n"
      "                                          [dtype]`, dtype f32|int8)\n"
      "                                          against the serve engine;\n"
      "                                          --drain-timeout-us bounds the\n"
      "                                          graceful drain; --tune runs\n"
      "                                          an online-tuner cycle over\n"
      "                                          the replay's hot shapes\n"
      "                                          (model-cost, deterministic),\n"
      "                                          --records FILE loads prior\n"
      "                                          promotions and persists new\n"
      "                                          ones (merge-on-save);\n"
      "                                          --shards N (default 1) sizes\n"
      "                                          the serving fleet\n"
      "  chaos [--seed S] [--seeds N] [--submitters T] [--requests R]\n"
      "        [--shards N]\n"
      "                                          seeded fault-injection runs\n"
      "                                          against the serve engine; any\n"
      "                                          invariant violation is fatal\n"
      "  crosscheck [--kc K] [--dtype f32|int8]  f32: NEON host path vs\n"
      "                                          simulated SVE vs reference;\n"
      "                                          int8: portable vs widening\n"
      "                                          quantized kernels vs fp64\n"
      "                                          reference, on irregular tiles\n");
  return 2;
}

const char* flag_value(int argc, char** argv, const char* name,
                       const char* fallback) {
  for (int i = 0; i < argc - 1; ++i)
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  return fallback;
}

bool has_flag(int argc, char** argv, const char* name) {
  for (int i = 0; i < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return true;
  return false;
}

hw::Chip chip_by_name(const std::string& name) {
  for (const auto chip :
       {hw::Chip::kReference, hw::Chip::kKP920, hw::Chip::kGraviton2,
        hw::Chip::kAltra, hw::Chip::kM2, hw::Chip::kA64FX,
        hw::Chip::kGraviton3}) {
    if (name == hw::chip_name(chip)) return chip;
  }
  throw std::invalid_argument("unknown chip: " + name +
                              " (try `autogemm chips`)");
}

int cmd_chips() {
  std::printf("%-11s %6s %6s %6s %9s %12s %10s\n", "name", "cores", "GHz",
              "lanes", "sigma_AI", "peak GF/core", "DRAM GB/s");
  for (const auto chip :
       {hw::Chip::kReference, hw::Chip::kKP920, hw::Chip::kGraviton2,
        hw::Chip::kAltra, hw::Chip::kM2, hw::Chip::kA64FX,
        hw::Chip::kGraviton3}) {
    const auto h = hw::chip_model(chip);
    std::printf("%-11s %6d %6.2f %6d %9.1f %12.1f %10.0f\n", h.name.c_str(),
                h.topology.cores, h.freq_ghz, h.lanes, h.sigma_ai,
                h.peak_gflops_core(), h.dram_bw_gbs);
  }
  return 0;
}

int cmd_asm(int argc, char** argv) {
  if (argc < 3) return usage();
  const int mr = std::atoi(argv[0]);
  const int nr = std::atoi(argv[1]);
  const int kc = std::atoi(argv[2]);
  codegen::GeneratorOptions opts;
  opts.rotate_registers = has_flag(argc, argv, "--rotate");
  const int lanes = std::atoi(flag_value(argc, argv, "--lanes", "4"));
  const auto mk = codegen::generate_microkernel(mr, nr, kc, lanes, opts);
  std::printf("%s", isa::emit_cpp_wrapper(mk.program).c_str());
  return 0;
}

int cmd_tiles(int argc, char** argv) {
  if (argc < 3) return usage();
  const int mc = std::atoi(argv[0]);
  const int nc = std::atoi(argv[1]);
  const int kc = std::atoi(argv[2]);
  const auto chip = chip_by_name(flag_value(argc, argv, "--chip", "KP920"));
  const auto h = hw::chip_model(chip);
  const auto r = tiling::tile_dmt(mc, nc, kc, h);
  std::printf("DMT on %s for C(%d,%d), kc=%d: %zu tiles, %d padded, %d "
              "low-AI, %.0f projected cycles\n",
              h.name.c_str(), mc, nc, kc, r.tiles.size(), r.padded_tiles,
              r.low_ai_tiles, r.projected_cycles);
  std::printf("split: n_front=%d m_front_up=%d m_back_up=%d\n", r.n_front,
              r.m_front_up, r.m_back_up);
  for (const auto& t : r.tiles)
    std::printf("  (%3d,%3d) %dx%d%s\n", t.row, t.col, t.mr, t.nr,
                t.padded() ? " [clipped]" : "");
  return 0;
}

int cmd_price(int argc, char** argv) {
  if (argc < 3) return usage();
  const long m = std::atol(argv[0]);
  const long n = std::atol(argv[1]);
  const long k = std::atol(argv[2]);
  const auto chip = chip_by_name(flag_value(argc, argv, "--chip", "KP920"));
  const auto h = hw::chip_model(chip);
  baselines::PriceOptions popts;
  popts.threads = std::atoi(flag_value(argc, argv, "--threads", "1"));
  std::printf("%ldx%ldx%ld on %s, %d thread(s):\n", m, n, k, h.name.c_str(),
              popts.threads);
  std::printf("%-11s %12s %10s %12s\n", "library", "cycles", "GFLOPS",
              "efficiency");
  for (const auto lib : baselines::table_one_libraries()) {
    if (!baselines::supports_shape(lib, m, n, k)) {
      std::printf("%-11s %12s\n", baselines::library_name(lib), "N/A");
      continue;
    }
    const auto p = baselines::price_gemm(lib, m, n, k, h, popts);
    std::printf("%-11s %12.0f %10.1f %11.1f%%\n", baselines::library_name(lib),
                p.cycles, p.gflops, p.efficiency * 100);
  }
  return 0;
}

// The instruction set the kernels of a plan on backend `id` run on.
const char* kernel_isa(backend::BackendId id) {
  if (backend::host_backend(id).caps().id == backend::BackendId::kX86Wide)
    return kernels::wide_isa_name(kernels::detect_wide_isa());
#if defined(AUTOGEMM_SIMD_SSE)
  return "sse2";
#elif defined(AUTOGEMM_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

// The plan's main register tile: the (mr, nr) covering the most of C.
codegen::TileSize main_tile(const Plan& plan) {
  std::map<std::pair<int, int>, double> area;
  const GemmConfig& cfg = plan.config();
  for (int i0 = 0; i0 < plan.m(); i0 += cfg.mc)
    for (int j0 = 0; j0 < plan.n(); j0 += cfg.nc) {
      const auto& tiling =
          plan.block_tiling(std::min(cfg.mc, plan.m() - i0),
                            std::min(cfg.nc, plan.n() - j0),
                            std::min(cfg.kc, plan.k()));
      for (const auto& t : tiling.tiles)
        area[{t.mr, t.nr}] += double(t.rows_used) * t.cols_used;
    }
  codegen::TileSize best{0, 0};
  double best_area = -1;
  for (const auto& [tile, a] : area)
    if (a > best_area) best_area = a, best = {tile.first, tile.second};
  return best;
}

int cmd_run(int argc, char** argv) {
  if (argc < 3) return usage();
  const int m = std::atoi(argv[0]);
  const int n = std::atoi(argv[1]);
  const int k = std::atoi(argv[2]);
  const int reps = std::atoi(flag_value(argc, argv, "--reps", "10"));
  common::Matrix a(m, k), b(k, n), c(m, n), c_ref(m, n);
  common::fill_random(a.view(), 1);
  common::fill_random(b.view(), 2);
  common::reference_gemm(a.view(), b.view(), c_ref.view());
  Plan plan(m, n, k, default_config(m, n, k));
  gemm(a.view(), b.view(), c.view(), plan);
  std::printf("max relative error: %.2e\n",
              common::max_rel_error(c.view(), c_ref.view()));
  common::Timer t;
  for (int i = 0; i < reps; ++i) gemm(a.view(), b.view(), c.view(), plan);
  const double seconds = t.seconds() / reps;
  const codegen::TileSize tile = main_tile(plan);
  std::printf("%.3f ms/call, %.2f GFLOPS (plan mc=%d nc=%d kc=%d) "
              "backend=%s isa=%s tile=%dx%d\n",
              seconds * 1e3, common::gemm_flops(m, n, k) / seconds / 1e9,
              plan.config().mc, plan.config().nc, plan.config().kc,
              std::string(backend::backend_name(plan.config().backend)).c_str(),
              kernel_isa(plan.config().backend), tile.mr, tile.nr);
  return 0;
}

int cmd_tune(int argc, char** argv) {
  if (argc < 3) return usage();
  const int m = std::atoi(argv[0]);
  const int n = std::atoi(argv[1]);
  const int k = std::atoi(argv[2]);
  const char* out = flag_value(argc, argv, "--out", nullptr);
  // Tuned for, and tagged with, the backend a default Context runs here.
  const auto result = tune::tune_for_backend(m, n, k);
  std::printf("space %zu candidates, %ld evaluated, best %.0f model cycles\n",
              tune::space_size(m, n, k, /*divisors_only=*/false),
              result.evaluations, result.best_cost);
  std::printf("best: mc=%d nc=%d kc=%d order=%s packing=%d backend=%s\n",
              result.best.mc, result.best.nc, result.best.kc,
              loop_order_name(result.best.loop_order),
              static_cast<int>(result.best.packing),
              std::string(backend::backend_name(result.best.backend)).c_str());
  if (out != nullptr) {
    tune::TuningRecords records;
    if (!records.load_file(out)) { /* start fresh */ }
    records.add({m, n, k}, result.best, result.best_cost);
    if (!records.save_file(out)) {
      std::fprintf(stderr, "cannot write %s\n", out);
      return 1;
    }
    std::printf("recorded into %s (%zu records)\n", out, records.size());
  }
  return 0;
}

int cmd_trace(int argc, char** argv) {
  if (argc < 3) return usage();
  const int m = std::atoi(argv[0]);
  const int n = std::atoi(argv[1]);
  const int k = std::atoi(argv[2]);
  const int reps = std::atoi(flag_value(argc, argv, "--reps", "3"));
  const unsigned threads = static_cast<unsigned>(
      std::atoi(flag_value(argc, argv, "--threads", "4")));
  const std::string strategy = flag_value(argc, argv, "--strategy", "auto");
  const std::string out =
      flag_value(argc, argv, "--out", "autogemm_trace.json");
  const char* metrics_out = flag_value(argc, argv, "--metrics", nullptr);

  obs::set_trace_enabled(true);
  ContextOptions opts;
  opts.threads = threads;
  if (strategy == "blocks") opts.parallel_strategy = ParallelStrategy::kBlocksOnly;
  else if (strategy == "ksplit") opts.parallel_strategy = ParallelStrategy::kKSplit;
  else if (strategy != "auto")
    throw std::invalid_argument("unknown strategy: " + strategy);
  Context ctx(opts);

  common::Matrix a(m, k), b(k, n), c(m, n);
  common::fill_random(a.view(), 1);
  common::fill_random(b.view(), 2);

  obs::Tracer::instance().clear();  // trace only the calls below
  for (int i = 0; i < reps; ++i) {
    const Status s = ctx.run(a.view(), b.view(), c.view());
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.to_string().c_str());
      return 1;
    }
  }

  obs::Tracer& tracer = obs::Tracer::instance();
  if (!tracer.write_chrome_json(out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("%dx%dx%d, %d rep(s), %u thread(s), strategy %s "
              "(executed as %s)\n",
              m, n, k, reps, threads, strategy.c_str(),
              ctx.health().last_parallel_strategy.c_str());
  std::printf("trace: %zu spans across %zu lanes -> %s\n",
              tracer.span_count(), tracer.active_lane_count(), out.c_str());
  if (metrics_out != nullptr) {
    const std::string text = obs::default_registry().prometheus_text();
    if (std::FILE* f = std::fopen(metrics_out, "w")) {
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
      std::printf("metrics: %s\n", metrics_out);
    } else {
      std::fprintf(stderr, "cannot write %s\n", metrics_out);
      return 1;
    }
  }
  return 0;
}

// Replays a shape trace against the serve engine and prints request
// accounting in a grep-friendly form (tools/ci.sh asserts on the
// `overload_events=` / `accounting=` line). Trace lines are
// `M N K [count] [lane] [dtype]`; `#` starts a comment; lane is
// `interactive` or `bulk` (default); dtype is any spelling
// common::parse_dtype accepts (default f32 — `int8` routes the request
// through the engine's quantized bucket, which never co-batches with
// the same shape's fp32 traffic). Requests of one shape share their A
// and B operands, so same-shape groups exercise run_batched's
// shared-operand packing (and the int8 tier's cached QPackedB) exactly
// as a production stream of one model's layer would. --verify checks
// fp32 results elementwise against the reference GEMM and int8 results
// against the quant tier's relative-Frobenius contract (1e-2).
int cmd_serve_replay(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string path = argv[0];
  const std::size_t capacity = static_cast<std::size_t>(
      std::atol(flag_value(argc, argv, "--capacity", "1024")));
  const std::size_t max_batch = static_cast<std::size_t>(
      std::atol(flag_value(argc, argv, "--max-batch", "32")));
  const long window_us = std::atol(flag_value(argc, argv, "--window-us", "200"));
  const long deadline_us =
      std::atol(flag_value(argc, argv, "--deadline-us", "0"));
  const unsigned threads = static_cast<unsigned>(
      std::atoi(flag_value(argc, argv, "--threads", "1")));
  const int repeat = std::atoi(flag_value(argc, argv, "--repeat", "1"));
  const bool verify = has_flag(argc, argv, "--verify");
  const long drain_timeout_us =
      std::atol(flag_value(argc, argv, "--drain-timeout-us", "0"));
  const bool tune_enabled = has_flag(argc, argv, "--tune");
  const std::string records_file = flag_value(argc, argv, "--records", "");
  const int shards =
      std::max(1, std::atoi(flag_value(argc, argv, "--shards", "1")));

  struct Line {
    int m, n, k, count;
    serve::Lane lane;
    common::DType dtype;
  };
  std::vector<Line> lines;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read trace: %s\n", path.c_str());
    return 1;
  }
  std::string raw;
  while (std::getline(in, raw)) {
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    std::istringstream ls(raw);
    Line line{0, 0, 0, 1, serve::Lane::kBulk, common::DType::kF32};
    if (!(ls >> line.m >> line.n >> line.k)) continue;  // blank/comment
    std::string tok;
    while (ls >> tok) {
      if (tok == "interactive") line.lane = serve::Lane::kInteractive;
      else if (tok == "bulk") line.lane = serve::Lane::kBulk;
      else if (common::parse_dtype(tok, &line.dtype)) continue;
      else line.count = std::atoi(tok.c_str());
    }
    if (line.m < 0 || line.n < 0 || line.k < 0 || line.count < 1) {
      std::fprintf(stderr, "bad trace line: %s\n", raw.c_str());
      return 1;
    }
    lines.push_back(line);
  }
  if (lines.empty()) {
    std::fprintf(stderr, "empty trace: %s\n", path.c_str());
    return 1;
  }

  // One shared A/B per distinct shape; every request gets its own C.
  struct Operands {
    common::Matrix a, b, c_ref;
    Operands(int m, int n, int k) : a(m, k), b(k, n), c_ref(m, n) {}
  };
  std::vector<std::unique_ptr<Operands>> shapes;
  const auto shape_for = [&](int m, int n, int k) -> Operands& {
    for (auto& s : shapes)
      if (s->a.rows() == m && s->b.cols() == n && s->a.cols() == k) return *s;
    shapes.push_back(std::make_unique<Operands>(m, n, k));
    Operands& s = *shapes.back();
    common::fill_random(s.a.view(), static_cast<unsigned>(shapes.size()));
    common::fill_random(s.b.view(), static_cast<unsigned>(shapes.size()) + 100);
    if (verify) common::reference_gemm(s.a.view(), s.b.view(), s.c_ref.view());
    return s;
  };

  ContextOptions copts;
  copts.threads = threads;
  // A prior run's persisted promotions feed this run's context: shapes
  // tuned last time resolve through the exact rung from request one.
  bool records_loaded = false;
  if (!records_file.empty() && std::ifstream(records_file).good()) {
    copts.records_path = records_file;
    records_loaded = true;
  }
  // One front door: a ShardedEngine of --shards workers (default 1) with
  // shape-affine routing + stealing; --tune enables its router-owned
  // tuner over the merged fleet traffic.
  serve::ShardedEngineOptions sopts;
  sopts.shards = static_cast<std::size_t>(shards);
  sopts.context = copts;
  sopts.worker.queue_capacity = capacity;
  sopts.worker.max_batch = max_batch;
  sopts.worker.max_batch_delay_ns = static_cast<std::uint64_t>(window_us) * 1000;
  sopts.enable_online_tuner = tune_enabled;
  if (tune_enabled) {
    // Deterministic for CI: promotion decided by the analytic model, not
    // host wall-clock — the same trace promotes the same configs
    // everywhere. The tuner thread stays parked; a manual cycle below
    // runs after the replay was submitted (publication races live
    // traffic, which is the point).
    sopts.tuner.start_paused = true;
    sopts.tuner.min_requests = 2;
    sopts.tuner.top_k = 8;
    sopts.tuner.records_path = records_file;
    sopts.tuner.cost_override = [](const tune::Candidate& c, int m, int n,
                                   int k) {
      return tune::model_cost_seconds(c, m, n, k);
    };
  }
  auto made = serve::ShardedEngine::create(sopts);
  if (!made.ok()) {
    std::fprintf(stderr, "cannot build sharded engine: %s\n",
                 made.status().to_string().c_str());
    return 1;
  }
  std::unique_ptr<serve::ShardedEngine> fleet = std::move(made).value();

  struct Submitted {
    std::future<Status> future;
    common::Matrix c;
    Operands* operands;
    common::DType dtype;
    Submitted(std::future<Status> f, int m, int n, Operands* o,
              common::DType d)
        : future(std::move(f)), c(m, n), operands(o), dtype(d) {}
  };
  std::vector<std::unique_ptr<Submitted>> requests;
  std::size_t interactive = 0, bulk = 0;
  for (int r = 0; r < repeat; ++r) {
    for (const Line& line : lines) {
      Operands& ops = shape_for(line.m, line.n, line.k);
      for (int i = 0; i < line.count; ++i) {
        requests.push_back(std::make_unique<Submitted>(
            std::future<Status>(), line.m, line.n, &ops, line.dtype));
        Submitted& req = *requests.back();
        serve::GemmRequest g;
        g.a = ops.a.view();
        g.b = ops.b.view();
        g.c = req.c.view();
        g.lane = line.lane;
        g.dtype = line.dtype;
        if (deadline_us > 0)
          g.deadline_ns = common::now_ns() +
                          static_cast<std::uint64_t>(deadline_us) * 1000;
        (line.lane == serve::Lane::kInteractive ? interactive : bulk) += 1;
        req.future = fleet->submit(g);
      }
    }
  }
  // With tuning on, run one cycle now — while the replay's futures are
  // still in flight, so promotion demonstrably does not block traffic.
  tune::OnlineTunerStats tuner_stats;
  if (tune::OnlineTuner* tuner = fleet->online_tuner()) {
    tuner->run_cycle();
    tuner_stats = tuner->stats();
  }

  // Graceful lifecycle: a bounded drain first (rejecting new work while
  // finishing the admitted backlog), then shutdown() to guarantee Stopped
  // even if the bound expired.
  std::size_t drain_timeouts = 0;
  if (drain_timeout_us > 0) {
    const std::uint64_t bound =
        static_cast<std::uint64_t>(drain_timeout_us) * 1000;
    const Status drained = fleet->drain(bound);
    if (!drained.ok()) {
      ++drain_timeouts;
      std::printf("drain: timeout after %ldus (%s); finishing via shutdown\n",
                  drain_timeout_us, drained.to_string().c_str());
    }
  }
  fleet->shutdown();

  std::size_t unready = 0, ok = 0, failed = 0, rejected = 0, shed = 0,
              expired = 0, invalid = 0, mismatches = 0;
  for (auto& req : requests) {
    if (req->future.wait_for(std::chrono::seconds(30)) !=
        std::future_status::ready) {
      ++unready;  // a drained engine must have completed every future
      continue;
    }
    const Status s = req->future.get();
    switch (s.code()) {
      case StatusCode::kOk:
        ++ok;
        if (verify) {
          // int8 results are judged by the quant tier's norm contract;
          // exact elementwise bounds don't apply to quantized output.
          const bool bad =
              req->dtype == common::DType::kI8
                  ? common::rel_frobenius_error(req->c.view(),
                                                req->operands->c_ref.view()) >
                        1e-2
                  : common::max_rel_error(req->c.view(),
                                          req->operands->c_ref.view()) > 1e-3f;
          if (bad) ++mismatches;
        }
        break;
      case StatusCode::kResourceExhausted: ++rejected; break;
      case StatusCode::kUnavailable: ++shed; break;
      case StatusCode::kDeadlineExceeded: ++expired; break;
      case StatusCode::kInvalidArgument: ++invalid; break;
      default: ++failed; break;
    }
  }

  const serve::ShardedStats fleet_stats = fleet->stats();
  const serve::ServerStats& st = fleet_stats.aggregate;
  // Per-lane queue latency: the lane's series summed over every shard.
  const auto q_us = [](const char* lane) {
    const auto snap = obs::default_registry().histogram_total(
        "autogemm_serve_queue_seconds", std::string("lane=\"") + lane + "\"");
    return std::make_pair(snap.quantile(0.5) * 1e6, snap.quantile(0.99) * 1e6);
  };
  const auto [p50_i, p99_i] = q_us("interactive");
  const auto [p50_b, p99_b] = q_us("bulk");

  std::printf("serve-replay: trace=%s requests=%zu capacity=%zu max_batch=%zu "
              "window_us=%ld repeat=%d\n",
              path.c_str(), requests.size(), capacity, max_batch, window_us,
              repeat);
  std::printf("lanes: interactive=%zu bulk=%zu\n", interactive, bulk);
  std::printf("results: ok=%zu failed=%zu rejected=%zu shed=%zu expired=%zu "
              "invalid=%zu\n",
              ok, failed, rejected, shed, expired, invalid);
  std::printf("dispatch: batches=%llu batched_requests=%llu single=%llu "
              "max_queue_depth=%llu\n",
              static_cast<unsigned long long>(st.batches),
              static_cast<unsigned long long>(st.batched_requests),
              static_cast<unsigned long long>(st.single_dispatches),
              static_cast<unsigned long long>(st.max_queue_depth));
  std::printf("shards: n=%zu steals=%llu routed=%llu inline=%zu\n",
              fleet->shards(),
              static_cast<unsigned long long>(fleet_stats.steals),
              static_cast<unsigned long long>(fleet_stats.routed),
              fleet->inline_shards());
  std::printf("queue_latency_us: interactive_p50=%.1f interactive_p99=%.1f "
              "bulk_p50=%.1f bulk_p99=%.1f\n",
              p50_i, p99_i, p50_b, p99_b);
  if (tune_enabled) {
    std::uint64_t resolved_exact = 0;
    for (std::size_t i = 0; i < fleet->shards(); ++i)
      resolved_exact += fleet->shard_context(i).stats().resolved_exact;
    std::printf("tuning: searches=%llu promotions=%llu demotions=%llu "
                "records_loaded=%d resolved_exact=%llu persisted=%llu\n",
                static_cast<unsigned long long>(tuner_stats.searches),
                static_cast<unsigned long long>(tuner_stats.promotions),
                static_cast<unsigned long long>(tuner_stats.demotions),
                records_loaded ? 1 : 0,
                static_cast<unsigned long long>(resolved_exact),
                static_cast<unsigned long long>(tuner_stats.persisted));
  }
  const bool clean = fleet_stats.accounting_clean() && unready == 0 &&
                     st.submitted == requests.size();
  std::printf("overload_events=%llu accounting=%s\n",
              static_cast<unsigned long long>(st.rejected + st.shed),
              clean ? "clean" : "BROKEN");
  if (unready > 0) {
    std::fprintf(stderr, "error: %zu future(s) never completed\n", unready);
    return 3;
  }
  if (!clean) return 4;
  if (verify && mismatches > 0) {
    std::fprintf(stderr, "error: %zu OK result(s) diverge from reference\n",
                 mismatches);
    return 5;
  }
  return 0;
}

// Seeded chaos runs against the serve engine (serve/chaos.hpp). Each seed
// is one reproducible experiment; the run fails on any invariant
// violation. CI drives this with a fixed seed range under both release
// and ASan configs; a failing seed replays with `autogemm chaos --seed N`.
int cmd_chaos(int argc, char** argv) {
  const std::uint64_t seed0 = static_cast<std::uint64_t>(
      std::atoll(flag_value(argc, argv, "--seed", "1")));
  const int seeds = std::atoi(flag_value(argc, argv, "--seeds", "1"));
  serve::ChaosOptions copts;
  copts.submitters = std::atoi(flag_value(argc, argv, "--submitters", "3"));
  copts.requests_per_submitter =
      std::atoi(flag_value(argc, argv, "--requests", "60"));
  copts.shards = std::max(1, std::atoi(flag_value(argc, argv, "--shards", "1")));
  copts.verbose = true;
  std::size_t violations = 0;
  for (int i = 0; i < std::max(1, seeds); ++i) {
    copts.seed = seed0 + static_cast<std::uint64_t>(i);
    const serve::ChaosReport rep = serve::run_chaos(copts);
    violations += rep.violations.size();
    for (const std::string& v : rep.violations)
      std::fprintf(stderr, "violation [seed=%llu]: %s\n",
                   static_cast<unsigned long long>(rep.seed), v.c_str());
  }
  std::printf("chaos: seeds=%d violations=%zu\n", std::max(1, seeds),
              violations);
  return violations == 0 ? 0 : 7;
}

// Quantized crosscheck (`crosscheck --dtype int8`) on the same irregular
// tile sweep as the f32 leg. For each tile:
//   * reference_gemm computes the fp64-accumulated ground truth;
//   * the portable scalar quantized kernel must satisfy the int8 accuracy
//     contract (relative Frobenius error <= 1e-2, quant/qgemm.hpp);
//   * the widening SIMD path must satisfy it too AND agree with the
//     portable kernel bit-for-bit — integer accumulation is exact on
//     both, so any divergence is a kernel bug, not rounding.
// Exit 0 and a final `crosscheck: ... failures=0` line on success — the
// CI gate greps for it, same contract as the f32 leg.
int cmd_crosscheck_i8(int kc, const int (*tiles)[2], std::size_t n_tiles) {
  int failures = 0, checks = 0;
  for (std::size_t t = 0; t < n_tiles; ++t) {
    const int mr = tiles[t][0], nr = tiles[t][1];
    common::Matrix a(mr, kc), b(kc, nr);
    common::Matrix c_ref(mr, nr), c_port(mr, nr), c_simd(mr, nr);
    common::fill_random(a.view(), 7);
    common::fill_random(b.view(), 13);
    common::reference_gemm(a.view(), b.view(), c_ref.view());

    quant::QGemmOptions qo;
    qo.beta = 0.0f;
    qo.force_portable = true;
    const Status sp = quant::qgemm(a.view(), b.view(), c_port.view(), qo);
    qo.force_portable = false;
    const Status ss = quant::qgemm(a.view(), b.view(), c_simd.view(), qo);
    const double port_err =
        sp.ok() ? common::rel_frobenius_error(c_port.view(), c_ref.view())
                : -1.0;
    const double simd_err =
        ss.ok() ? common::rel_frobenius_error(c_simd.view(), c_ref.view())
                : -1.0;
    bool identical = sp.ok() && ss.ok();
    for (int r = 0; identical && r < mr; ++r)
      for (int c = 0; c < nr; ++c)
        if (c_port.at(r, c) != c_simd.at(r, c)) {
          identical = false;
          break;
        }
    checks += 3;
    const bool ok = sp.ok() && ss.ok() && port_err <= 1e-2 &&
                    simd_err <= 1e-2 && identical;
    if (!ok) ++failures;
    std::printf("crosscheck i8 %dx%dx%d portable_err=%g simd_err=%g "
                "bit_identical=%s %s\n",
                mr, nr, kc, port_err, simd_err, identical ? "yes" : "NO",
                ok ? "OK" : "FAIL");
  }
  std::printf("crosscheck: dtype=i8 tiles=%zu checks=%d failures=%d\n",
              n_tiles, checks, failures);
  return failures == 0 ? 0 : 6;
}

// Three-way crosscheck on a sweep of irregular micro-tiles — the shapes
// the paper's predicated SVE tier exists for (column counts that are not
// a multiple of any vector length). For each tile:
//   * reference_gemm computes the ground truth;
//   * the NEON host path (kernels::run_tile — compiled vec4 main loop plus
//     scalar edge columns) must match it;
//   * the SVE backend's generated VL-agnostic kernel, executed by the
//     functional interpreter at every VL from its generation width up to
//     the A64FX's 16 lanes, must match it at each VL;
//   * on a CPU that runs x86_wide, the tile as an x86_wide plan: DMT
//     covers it with the tier's register tiles, the clipped right edge on
//     the masked (opmask / maskload) kernels, and the result must match.
// Exit 0 and a final `crosscheck: ... failures=0` line on success — this
// is the CI gate tools/ci.sh greps for. `--dtype int8` swaps in the
// quantized-tier leg above over the same tiles.
int cmd_crosscheck(int argc, char** argv) {
  const int kc = std::atoi(flag_value(argc, argv, "--kc", "17"));
  static const int tiles_i8[][2] = {
      {5, 10}, {3, 7}, {6, 18}, {7, 22}, {2, 30}, {4, 13}, {8, 6}, {1, 27},
  };
  const std::string dtype_flag = flag_value(argc, argv, "--dtype", "f32");
  common::DType dtype = common::DType::kF32;
  if (!common::parse_dtype(dtype_flag, &dtype) ||
      dtype == common::DType::kBf16) {
    std::fprintf(stderr, "crosscheck: unsupported --dtype %s (f32|int8)\n",
                 dtype_flag.c_str());
    return 2;
  }
  if (dtype == common::DType::kI8)
    return cmd_crosscheck_i8(kc, tiles_i8,
                             sizeof(tiles_i8) / sizeof(tiles_i8[0]));
  const struct { int mr, nr; } tiles[] = {
      {5, 10}, {3, 7}, {6, 18}, {7, 22}, {2, 30}, {4, 13}, {8, 6}, {1, 27},
  };
  const backend::KernelBackend& sve =
      backend::get_backend(backend::BackendId::kSveSim);
  const int vl_max = sve.caps().vl_default;
  const kernels::WideIsa wide_isa = kernels::detect_wide_isa();
  int failures = 0, checks = 0;
  for (const auto& t : tiles) {
    const int mr = t.mr, nr = t.nr;
    std::vector<float> a(static_cast<std::size_t>(mr) * kc);
    std::vector<float> b(static_cast<std::size_t>(kc) * nr);
    std::vector<float> c_ref(static_cast<std::size_t>(mr) * nr, 0.0f);
    common::fill_random(common::MatrixView{a.data(), mr, kc, kc}, 7);
    common::fill_random(common::MatrixView{b.data(), kc, nr, nr}, 13);
    common::reference_gemm(common::ConstMatrixView{a.data(), mr, kc, kc},
                           common::ConstMatrixView{b.data(), kc, nr, nr},
                           common::MatrixView{c_ref.data(), mr, nr, nr});
    const float tol = 1e-4f * static_cast<float>(kc);
    const auto max_err = [&](const std::vector<float>& c) {
      float e = 0.0f;
      for (std::size_t i = 0; i < c.size(); ++i)
        e = std::max(e, std::fabs(c[i] - c_ref[i]));
      return e;
    };

    // NEON host path: the portable tile dispatcher every backend falls
    // back to on this machine.
    std::vector<float> c_neon(c_ref.size(), 0.0f);
    kernels::run_tile(mr, nr, a.data(), kc, b.data(), nr, c_neon.data(), nr,
                      kc);
    const float neon_err = max_err(c_neon);
    bool ok = neon_err <= tol;
    ++checks;

    // Simulated SVE: one generated program, executed at every legal VL.
    std::string sve_report;
    try {
      const codegen::MicroKernel mk = sve.generate(mr, nr, kc, {});
      for (int vl = mk.program.lanes(); vl <= vl_max; vl *= 2) {
        std::vector<float> c_sve(c_ref.size(), 0.0f);
        sim::Interpreter interp(/*max_steps=*/4'000'000);
        interp.set_vector_length(vl);
        sim::KernelArgs args;
        args.a = a.data();
        args.b = b.data();
        args.c = c_sve.data();
        args.lda = kc;
        args.ldb = nr;
        args.ldc = nr;
        const Status s = interp.try_run(mk.program, args);
        const float err = s.ok() ? max_err(c_sve) : -1.0f;
        ++checks;
        if (!s.ok() || err > tol) ok = false;
        sve_report += " sve_vl" + std::to_string(vl) + "_err=" +
                      (s.ok() ? std::to_string(err) : s.to_string());
      }
    } catch (const std::exception& e) {
      ok = false;
      sve_report = std::string(" sve_error=") + e.what();
    }
    // x86_wide host kernels, through the plan that resolves them.
    std::string wide_report = " x86_wide=unsupported";
    if (wide_isa != kernels::WideIsa::kNone) {
      const Plan plan(mr, nr, kc,
                      default_config(mr, nr, kc, backend::BackendId::kX86Wide));
      int masked = 0;
      for (const auto& [shape, block] : plan.blocks())
        for (const kernels::TileKernel& tk : block.kernels)
          masked += tk.masked != nullptr;
      std::vector<float> c_wide(c_ref.size(), 0.0f);
      gemm(common::ConstMatrixView{a.data(), mr, kc, kc},
           common::ConstMatrixView{b.data(), kc, nr, nr},
           common::MatrixView{c_wide.data(), mr, nr, nr}, plan);
      const float err = max_err(c_wide);
      ++checks;
      if (!(err <= tol)) ok = false;
      wide_report = " x86_wide_" + std::string(kernels::wide_isa_name(wide_isa)) +
                    "_err=" + std::to_string(err) +
                    " masked_tiles=" + std::to_string(masked);
    }
    if (!ok) ++failures;
    std::printf("crosscheck %dx%dx%d neon_err=%g%s%s %s\n", mr, nr, kc,
                neon_err, sve_report.c_str(), wide_report.c_str(),
                ok ? "OK" : "FAIL");
  }
  std::printf("crosscheck: tiles=%zu checks=%d failures=%d\n",
              sizeof(tiles) / sizeof(tiles[0]), checks, failures);
  return failures == 0 ? 0 : 6;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "chips") return cmd_chips();
    if (cmd == "asm") return cmd_asm(argc - 2, argv + 2);
    if (cmd == "tiles") return cmd_tiles(argc - 2, argv + 2);
    if (cmd == "price") return cmd_price(argc - 2, argv + 2);
    if (cmd == "run") return cmd_run(argc - 2, argv + 2);
    if (cmd == "tune") return cmd_tune(argc - 2, argv + 2);
    if (cmd == "trace") return cmd_trace(argc - 2, argv + 2);
    if (cmd == "serve-replay") return cmd_serve_replay(argc - 2, argv + 2);
    if (cmd == "chaos") return cmd_chaos(argc - 2, argv + 2);
    if (cmd == "crosscheck") return cmd_crosscheck(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
