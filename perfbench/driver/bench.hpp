// Shared declarations of the benchmark driver: arguments, the raw result
// the driver hands to run.py, the benchmark's own span log, correctness
// checks against fp64 references, and the open-loop serving phase that
// both the serve_mixed workload and the traced serve probe use.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/dtype.hpp"
#include "common/matrix.hpp"
#include "common/timer.hpp"
#include "core/context.hpp"
#include "dnn/transformer.hpp"
#include "serve/router.hpp"

namespace perfbench {

using autogemm::common::ConstMatrixView;
using autogemm::common::DType;
using autogemm::common::Matrix;
using autogemm::common::MatrixView;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string schedule_path;  // open-loop arrivals written by run.py
  std::string trace_dir;      // where the traced run writes its span files
};

/// One open-loop phase: arrival offsets from the phase start and one
/// uniform draw per arrival that picks the request's shape.
struct Phase {
  std::string name;
  double rate = 0;
  double seconds = 0;
  std::vector<std::uint64_t> due_ns;
  std::vector<double> pick;
};

struct Schedule {
  double limit_ms = 0;  // the ladder's p99 limit (used here only to stop early)
  std::vector<Phase> phases;
  const Phase* find(const std::string& name) const;
  std::vector<const Phase*> all(const std::string& name) const;
};

bool load_schedule(const std::string& path, Schedule* out, std::string* why);

/// Raw measurements. run.py turns them into the named metrics, so every
/// percentile is computed in one place from raw samples. A latency of -1
/// marks an operation that failed or was refused (it misses any limit).
struct Raw {
  std::vector<double> setup_s;
  double flops = 0;    // useful flops of the timed closed-loop work
  double timed_s = 0;  // time spent in that work
  std::uint64_t ops = 0;
  std::vector<double> pass_ms, first_ms, later_ms, op_ms;
  struct Step {
    double rate = 0;
    std::vector<double> lat_ms;
  };
  std::vector<Step> ladder;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, double>> layers;
  double peak_gflops = 0;  // host peak, measured before the workload

  void fail(const std::string& what);
  void layer(const std::string& name, double value) {
    layers.emplace_back(name, value);
  }
};

/// The benchmark's own spans, recorded around the calls it makes into the
/// library (never inside it). Written as Chrome trace events.
class SpanLog {
 public:
  bool enabled = false;
  int begin(const char* name, int parent = -1);
  void end(int id);
  void add(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns,
           int parent);
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t begin_ns, end_ns;
    int parent;
  };
  std::vector<Span> spans_;
};
SpanLog& spans();

inline double ms_between(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-6;
}
double peak_rss_mb();
/// Pool workers for a pooled Context: min(nproc, 4) compute threads in
/// all, counting the caller.
unsigned worker_threads();
double gemm_flops(long m, long n, long k);
/// Nearest-rank quantile of unsorted samples (the same rule as stats.py).
double quantile(std::vector<double> v, double q);
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

// ---- correctness -------------------------------------------------------

/// fp32 check: `samples` entries of C (beta = 0, op(B) = B or B^T) are
/// recomputed in fp64 and must agree within 2·K·u·Σ|a||b|, the forward
/// error bound of a length-K dot product (u = 2^-24).
bool check_fp32(ConstMatrixView a, ConstMatrixView b, ConstMatrixView c,
                bool trans_b, float alpha, int samples, std::uint64_t seed,
                std::string* why);
/// Relative Frobenius error of C against the fp64 product A·B.
double rel_frobenius_fp64(ConstMatrixView a, ConstMatrixView b,
                          ConstMatrixView c);
/// Relative Frobenius error of C against a precomputed fp64 reference.
double rel_frobenius(const std::vector<double>& ref, ConstMatrixView c);
std::vector<double> reference_fp64(ConstMatrixView a, ConstMatrixView b);

inline constexpr double kInt8RelFrobenius = 1e-2;
inline constexpr double kMixedBlockRelFrobenius = 5e-2;

// ---- open-loop serving -------------------------------------------------

/// A request shape of an open-loop mix. `cls` 0 marks prompt-class work
/// (prefill), 1 step-class work (decode).
struct ServeShape {
  int m = 0, n = 0, k = 0;
  DType dtype = DType::kF32;
  double weight = 1;
  int cls = 1;
};

/// Operands, reference data and a ring of C buffers per shape, built
/// before any clock starts.
class ServeFixture {
 public:
  ServeFixture(std::vector<ServeShape> shapes, std::uint64_t seed);
  ServeFixture(const ServeFixture&) = delete;
  ServeFixture& operator=(const ServeFixture&) = delete;

  const std::vector<ServeShape>& shapes() const { return shapes_; }
  std::size_t pick(double u) const;  // weighted shape choice for u in [0,1)

  struct Slot {
    Matrix c;
    std::atomic<bool> busy{false};  // submitted, output not yet checked
    std::atomic<bool> done{false};  // completion callback ran
    std::uint64_t done_ns = 0;      // written before `done` is released
    int code = 0;
    std::uint64_t due_ns = 0;
    std::vector<double>* sink = nullptr;  // latency vector of the phase
    std::size_t request = 0;              // index into *sink
    // A refusal (shed, rejected, expired) counts as a failed operation,
    // except on ladder rungs, where overload is what is being measured.
    bool strict = true;
  };
  /// Next C slot of shape `si`, zeroed. Waits for the slot's previous
  /// request, then checks that request's output.
  Slot& acquire(std::size_t si, Raw& raw);
  /// Waits for every in-flight request and checks the outputs.
  void settle(Raw& raw);

  const Matrix& a(std::size_t si) const { return operands_[si].a; }
  const Matrix& b(std::size_t si) const { return operands_[si].b; }

 private:
  struct Operand {
    Matrix a, b;
    std::vector<double> ref;  // full fp64 reference (int8 shapes only)
    std::vector<std::unique_ptr<Slot>> ring;
    std::size_t next = 0;
  };
  void finish(std::size_t si, Slot& s, Raw& raw);

  std::vector<ServeShape> shapes_;
  std::vector<Operand> operands_;
  double total_weight_ = 0;
  std::uint64_t check_seed_ = 0;
};

struct PhaseResult {
  std::vector<double> lat_ms;  // due -> completion; -1 = refused or failed
  std::vector<int> cls;
  std::vector<double> late_ms;  // how late each submission left the generator
};

/// Paces `phase` open-loop into `engine`: each request is timed from its
/// scheduled due time to its completion callback.
PhaseResult run_phase(autogemm::serve::ShardedEngine& engine,
                      ServeFixture& fx, const Phase& phase, Raw& raw,
                      bool strict = true);
/// A fresh 2-shard fleet in serve_mixed's configuration.
std::unique_ptr<autogemm::serve::ShardedEngine> make_engine();
/// Submits request `si` now (due now) and returns its slot.
ServeFixture::Slot& submit_now(autogemm::serve::ShardedEngine& engine,
                               ServeFixture& fx, std::size_t si, Raw& raw);

/// Per-layer probes of the traced run. Each measures the public functions
/// of one module on the workload's own shapes.
struct ProbeShape {
  int m = 0, n = 0, k = 0;
  DType dtype = DType::kF32;
  int count = 1;  // calls per pass
};
struct LayerProbeInput {
  std::vector<ProbeShape> shapes;
  autogemm::Context* ctx = nullptr;  // supplies the workload's plans
  autogemm::ContextStats stats;      // the workload's cache counters
  unsigned threads = 1;
  std::uint64_t seed = 1;
};
void probe_kernels(const LayerProbeInput& in, Raw& raw);
void probe_core(const LayerProbeInput& in, Raw& raw);
void probe_quant(const LayerProbeInput& in, Raw& raw);
/// dnn.gemm_share / dnn.other_ms for a transformer block: forward time
/// against the block's census GEMMs timed alone through the same context.
/// `passes` lists (tokens, forwards of that size per pass).
void probe_transformer(const autogemm::dnn::TransformerConfig& cfg,
                       const std::vector<std::pair<int, int>>& passes,
                       autogemm::Context& ctx, Raw& raw);
/// serve.* from an open-loop phase; `before`/`after` bracket the phase.
void report_serve(const PhaseResult& pr,
                  const autogemm::serve::ShardedStats& before,
                  const autogemm::serve::ShardedStats& after,
                  const ServeFixture& fx, Raw& raw);
/// The serve probe of a closed-loop workload: its shapes, open loop, into
/// a fresh fleet configured like serve_mixed's.
void probe_serve(const std::vector<ServeShape>& shapes, const Phase& phase,
                 std::uint64_t seed, Raw& raw);
double host_peak_gflops();

// ---- workloads and layer probes ----------------------------------------

int run_resnet50(const Args& args, const Schedule& sched, Raw& raw);
int run_gpt2_block(const Args& args, const Schedule& sched, Raw& raw);
int run_serve_mixed(const Args& args, const Schedule& sched, Raw& raw);

}  // namespace perfbench
