// Observability overhead bench: the obs subsystem's admission ticket.
//
// The tracer's contract is that a span site with tracing disabled costs
// one relaxed atomic load and a branch (see obs/trace.hpp). This bench
// holds the subsystem to a number: it re-implements the library's serial
// blocked loop *without any obs calls* — same plan, same tiling, same
// packing and micro-kernels through the public headers — and times it
// against the instrumented library path. The uninstrumented replica is
// the no-obs baseline a second library build would provide, minus a
// second build.
//
//   median(lib, tracing off) vs median(replica)  ->  must be < 2% apart
//   median(lib, tracing on)                      ->  reported for context
//
// Samples are interleaved (replica, lib, replica, lib, ...) so drift in
// machine load lands on both sides. The check is advisory by design —
// this binary always exits 0 and prints PASS/WARN — because a loaded CI
// machine can make any wall-clock comparison lie; tools/ci.sh runs it
// non-gating and the number is for humans and trend lines.
//
//   build/bench/bench_obs_overhead [M N K] [--warmup W] [--repeats R]
//                                  [--json-out out.json]
#include <array>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/aligned_buffer.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/gemm.hpp"
#include "core/plan.hpp"
#include "kernels/packing.hpp"
#include "obs/trace.hpp"

namespace {

using namespace autogemm;
using common::ConstMatrixView;
using common::MatrixView;

int ceil_div(int a, int b) { return (a + b - 1) / b; }

std::array<int, 3> order_permutation(LoopOrder order) {
  switch (order) {
    case LoopOrder::kNKM: return {1, 2, 0};
    case LoopOrder::kNMK: return {1, 0, 2};
    case LoopOrder::kKNM: return {2, 1, 0};
    case LoopOrder::kKMN: return {2, 0, 1};
    case LoopOrder::kMNK: return {0, 1, 2};
    case LoopOrder::kMKN: return {0, 2, 1};
  }
  return {1, 2, 0};
}

/// The serial blocked loop of core/gemm.cpp, span-free. Any structural
/// divergence from detail::execute/block_step/run_block contaminates the
/// overhead number, so this mirrors them line for line (minus obs) —
/// including allocating the packing scratch per call, as the Plan-level
/// gemm() does with its call-local workspace.
struct Replica {
  const Plan& plan;
  common::AlignedBuffer scratch;
  float* a_buf = nullptr;
  float* b_buf = nullptr;
  int a_block_i = -1, a_block_p = -1;
  int b_block_p = -1, b_block_j = -1;

  explicit Replica(const Plan& p) : plan(p) {}

  void block_step(ConstMatrixView a, ConstMatrixView b, MatrixView c, int bi,
                  int bj, int bp) {
    const GemmConfig& cfg = plan.config();
    const int i0 = bi * cfg.mc, j0 = bj * cfg.nc, p0 = bp * cfg.kc;
    const int bm = std::min(cfg.mc, a.rows - i0);
    const int bn = std::min(cfg.nc, b.cols - j0);
    const int bk = std::min(cfg.kc, a.cols - p0);

    const float* a_ptr;
    long lda;
    const float* b_ptr;
    long ldb;
    const bool pack = cfg.packing == kernels::Packing::kOnline;
    if (pack) {
      if (a_block_i != bi || a_block_p != bp) {
        kernels::pack_block(a.block(i0, p0, bm, bk), a_buf, bk);
        a_block_i = bi;
        a_block_p = bp;
      }
      a_ptr = a_buf;
      lda = bk;
    } else {
      a_ptr = a.data + static_cast<long>(i0) * a.ld + p0;
      lda = a.ld;
    }
    if (pack) {
      if (b_block_p != bp || b_block_j != bj) {
        kernels::pack_block(b.block(p0, j0, bk, bn), b_buf, bn);
        b_block_p = bp;
        b_block_j = bj;
      }
      b_ptr = b_buf;
      ldb = bn;
    } else {
      b_ptr = b.data + static_cast<long>(p0) * b.ld + j0;
      ldb = b.ld;
    }

    float* c_ptr = c.data + static_cast<long>(i0) * c.ld + j0;
    const BlockTiling& block = plan.block(bm, bn, bk);
    for (std::size_t i = 0; i < block.tiling.tiles.size(); ++i) {
      const tiling::MicroTile& t = block.tiling.tiles[i];
      block.kernels[i].run(t.rows_used, t.cols_used,
                           a_ptr + static_cast<long>(t.row) * lda, lda,
                           b_ptr + t.col, ldb,
                           c_ptr + static_cast<long>(t.row) * c.ld + t.col,
                           c.ld, bk);
    }
  }

  void run(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
    const GemmConfig& cfg = plan.config();
    const int nblk[3] = {ceil_div(plan.m(), cfg.mc),
                         ceil_div(plan.n(), cfg.nc),
                         ceil_div(plan.k(), cfg.kc)};
    const auto perm = order_permutation(cfg.loop_order);
    // The library grows a fresh workspace per call (one uninitialized
    // allocation); mirror that or the library pays for allocation the
    // replica skipped and the delta reads as obs overhead.
    const std::size_t a_size = static_cast<std::size_t>(cfg.mc) * cfg.kc;
    scratch = common::AlignedBuffer();
    scratch = common::AlignedBuffer(
        common::kUninitialized,
        a_size + static_cast<std::size_t>(cfg.kc) * cfg.nc);
    a_buf = scratch.data();
    b_buf = a_buf + a_size;
    a_block_i = a_block_p = b_block_p = b_block_j = -1;
    int idx[3];
    for (int x = 0; x < nblk[perm[0]]; ++x)
      for (int y = 0; y < nblk[perm[1]]; ++y)
        for (int z = 0; z < nblk[perm[2]]; ++z) {
          idx[perm[0]] = x;
          idx[perm[1]] = y;
          idx[perm[2]] = z;
          block_step(a, b, c, idx[0], idx[1], idx[2]);
        }
  }
};

/// One sample = kBatch back-to-back calls, returned as seconds/call.
/// Batching amortises per-sample timer and scheduler jitter, which at
/// ~1ms/call is the dominant term over the sub-microsecond obs cost the
/// bench is trying to resolve.
constexpr int kBatch = 4;

template <typename Fn>
double time_once(const Fn& fn) {
  const std::uint64_t t0 = common::now_ns();
  for (int i = 0; i < kBatch; ++i) fn();
  return static_cast<double>(common::now_ns() - t0) * 1e-9 / kBatch;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args =
      bench::parse_args(argc, argv, /*default_warmup=*/3,
                        /*default_repeats=*/31);
  const int m = args.pos_int(0, 256);
  const int n = args.pos_int(1, 256);
  const int k = args.pos_int(2, 256);

  common::Matrix a(m, k), b(k, n), c(m, n);
  common::fill_random(a.view(), 3);
  common::fill_random(b.view(), 5);

  const Plan plan(m, n, k, default_config(m, n, k));
  Replica replica(plan);

  bench::header("obs overhead: " + std::to_string(m) + "x" +
                std::to_string(n) + "x" + std::to_string(k) + ", serial, " +
                std::to_string(args.repeats) + " samples");

  obs::set_trace_enabled(false);
  const auto run_replica = [&] { replica.run(a.view(), b.view(), c.view()); };
  const auto run_lib = [&] { gemm(a.view(), b.view(), c.view(), plan, nullptr); };

  for (int i = 0; i < args.warmup; ++i) {
    run_replica();
    run_lib();
  }
  std::vector<double> s_replica, s_off;
  for (int i = 0; i < args.repeats; ++i) {
    s_replica.push_back(time_once(run_replica));
    s_off.push_back(time_once(run_lib));
  }

  obs::set_trace_enabled(true);
  run_lib();  // warm the trace lanes
  std::vector<double> s_on;
  for (int i = 0; i < args.repeats; ++i) s_on.push_back(time_once(run_lib));
  obs::set_trace_enabled(false);
  obs::Tracer::instance().clear();

  const double med_replica = bench::median(s_replica);
  const double med_off = bench::median(s_off);
  const double med_on = bench::median(s_on);
  const double overhead_off = (med_off - med_replica) / med_replica * 100.0;
  const double overhead_on = (med_on - med_replica) / med_replica * 100.0;
  const bool pass = overhead_off < 2.0;

  std::printf("%-28s %10.3f ms\n", "replica (no obs compiled)",
              med_replica * 1e3);
  std::printf("%-28s %10.3f ms   (%+.2f%%)\n", "library, tracing off",
              med_off * 1e3, overhead_off);
  std::printf("%-28s %10.3f ms   (%+.2f%%)\n", "library, tracing on",
              med_on * 1e3, overhead_on);
  std::printf("\n%s: tracing-off overhead %.2f%% (threshold 2%%)\n",
              pass ? "PASS" : "WARN", overhead_off);

  char json[512];
  std::snprintf(
      json, sizeof(json),
      "{\"bench\": \"obs_overhead\", \"m\": %d, \"n\": %d, \"k\": %d, "
      "\"samples\": %d, \"replica_seconds\": %.6f, "
      "\"lib_off_seconds\": %.6f, \"lib_on_seconds\": %.6f, "
      "\"overhead_off_pct\": %.3f, \"overhead_on_pct\": %.3f, "
      "\"pass\": %s}",
      m, n, k, args.repeats, med_replica, med_off, med_on, overhead_off,
      overhead_on, pass ? "true" : "false");
  const std::string payload = bench::with_metrics(json);
  std::printf("\n%s\n", payload.c_str());
  if (!args.json_out.empty()) bench::write_json_file(args.json_out, payload);
  return 0;  // advisory: a loaded machine must not fail CI
}
