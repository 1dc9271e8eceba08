// Open-loop load generation for the serve layer (the SLO-driven harness
// behind BENCH_serve_scale.json).
//
// bench_serve drives the engine *closed-loop*: the next request is
// submitted only after the previous completes, so the measured system can
// never be offered more load than it absorbs, and overload behaviour —
// the whole point of shedding, displacement and sharding — is invisible.
// This generator is *open-loop*: arrivals follow a precomputed schedule
// (fixed-rate or seeded Poisson) that advances regardless of completions,
// the standard methodology for latency-vs-offered-load and goodput
// measurement (and the reason p99 explodes at saturation instead of
// plateauing politely).
//
// Mechanics: one generator thread walks the arrival schedule, yield-spins
// to each absolute due time, and submits through an injected SubmitFn
// (adapting Engine or ShardedEngine identically) using the engine's
// callback flavor — completions land on the dispatcher thread and record
// outcome + latency into a preallocated per-request slot, so the
// generator never blocks on the system under test. Every request owns its
// C buffer, allocated before the run starts.
//
// The report separates *offered* load (the schedule), *achieved*
// submission rate (pacing fidelity — if the generator itself cannot keep
// up, the point is invalid and says so), and *goodput* (OK completions
// per second of wall-clock from first submission to last completion,
// i.e. including the drain of whatever backlog the run left). Outcomes
// are split per lane: ok / shed (with the displaced subset reported by
// the engine's stats, not here) / rejected / expired / errors.
//
// The generator, the router-owned OnlineTuner and GemmRequest::deadline_ns
// callers stay on the steady clock (common::now_ns()): they measure
// wall-clock time, so an engine they drive keeps the default clock.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/engine.hpp"

namespace autogemm::serve {

enum class ArrivalProcess {
  kFixedRate,  ///< constant inter-arrival gap (deterministic schedule)
  kPoisson,    ///< seeded exponential inter-arrivals (memoryless bursts)
};

struct LoadGenOptions {
  /// Offered arrival rate, requests/second. The schedule is absolute:
  /// request i is due at its precomputed offset whether or not earlier
  /// requests completed.
  double offered_rps = 1000.0;
  /// Total arrivals in the run.
  std::size_t requests = 1000;
  ArrivalProcess arrivals = ArrivalProcess::kFixedRate;
  /// Seeds the Poisson inter-arrival draws, the shape mix, and the lane
  /// mix. Same options = same workload, byte for byte.
  std::uint64_t seed = 1;
  /// Fraction of requests submitted on the interactive lane.
  double interactive_fraction = 0.25;
  /// Relative deadline stamped on every request (0 = none).
  std::uint64_t deadline_rel_ns = 0;
  /// How long to wait for stragglers after the last submission before
  /// declaring them unresolved (a reported violation, never a hang).
  std::uint64_t completion_timeout_ns = 30'000'000'000ull;
};

/// One shape in the offered mix; weights need not normalize. The dtype
/// rides along on every request generated for this shape, so a mix can
/// offer fp32 and int8 traffic side by side (they never co-batch — the
/// engine buckets on (shape, dtype)).
struct LoadShape {
  int m = 8, n = 8, k = 8;
  double weight = 1.0;
  common::DType dtype = common::DType::kF32;
};

/// Terminal-outcome counts for one lane.
struct LaneOutcomes {
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;      ///< kUnavailable (watermark shed / displaced)
  std::uint64_t rejected = 0;  ///< kResourceExhausted (admission backpressure)
  std::uint64_t expired = 0;   ///< kDeadlineExceeded
  std::uint64_t errors = 0;    ///< everything else non-OK
};

/// Per-tier slice of one run's outcomes (fp32 vs int8 when the mix offers
/// both); a tier absent from the mix reports zeros. Latency quantiles are
/// over that tier's OK requests only, same rationale as the run-level
/// p50/p99.
struct DtypeOutcomes {
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;
  double goodput_rps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

struct LoadReport {
  double offered_rps = 0;   ///< configured arrival rate
  double achieved_rps = 0;  ///< realized submission rate (pacing fidelity)
  double goodput_rps = 0;   ///< OK completions / elapsed_s
  /// First submission to last completion (includes draining the backlog
  /// the schedule left behind).
  double elapsed_s = 0;
  std::uint64_t requests = 0;
  LaneOutcomes interactive;
  LaneOutcomes bulk;
  /// fp32-vs-int8 split (BENCH_quant_serve's goodput/p99 comparison).
  DtypeOutcomes f32;
  DtypeOutcomes i8;
  /// Submission-to-completion latency over OK requests only (a shed
  /// request "completes" fast; mixing it in would flatter overload).
  double p50_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
  /// Callbacks that never fired within completion_timeout_ns. Always a
  /// harness-level violation; 0 on every healthy engine.
  std::uint64_t unresolved = 0;

  std::uint64_t total_ok() const { return interactive.ok + bulk.ok; }
  std::uint64_t total_shed() const { return interactive.shed + bulk.shed; }
  /// One human-readable line per load point (the bench and CI grep it).
  std::string summary() const;
};

/// Submission hook: must invoke the engine's callback-flavor submit (the
/// callback fires exactly once with the terminal status). Adapts Engine
/// and ShardedEngine symmetrically.
using SubmitFn =
    std::function<void(const GemmRequest&, std::function<void(Status)>)>;

/// The arrival schedule as offsets (ns) from the run start — exposed so
/// tests can pin determinism (same options => identical schedule) and
/// the Poisson/fixed shapes separately from a live engine.
std::vector<std::uint64_t> arrival_offsets_ns(const LoadGenOptions& opts);

/// Runs one open-loop experiment against `submit`. Blocks until every
/// request resolves or completion_timeout_ns expires past the last
/// submission. `shapes` must be non-empty with positive dimensions.
LoadReport run_open_loop(const SubmitFn& submit,
                         const std::vector<LoadShape>& shapes,
                         const LoadGenOptions& opts);

}  // namespace autogemm::serve
