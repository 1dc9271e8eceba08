// Seeded chaos harness for the serve engine.
//
// One run_chaos() call is one reproducible experiment: a multi-threaded
// mixed workload (both lanes, deadlines, retries, several shape buckets)
// hammers a ShardedEngine while a controller thread arms and disarms seeded
// combinations of the library's failpoints — allocation failure, dispatcher
// crash/stall, queue-full injection, execution failure, verification
// miscompare, worker-spawn failure. The schedule is a pure function of the
// seed, so a failing seed replays exactly (`autogemm chaos --seed N`, or
// the value parameterizing tests/chaos_test.cpp).
//
// The harness asserts the engine's whole-system invariants rather than any
// particular outcome — under *any* injected fault combination:
//
//   * every accepted future/callback resolves (nothing stranded, ever);
//   * only honest terminal codes appear (kOk, kUnavailable,
//     kResourceExhausted, kDeadlineExceeded, kInternal);
//   * a kOk result's C matches the double-accumulated reference;
//   * a non-OK result leaves C untouched, unless the status message says
//     "unspecified" (the documented mid-batch-fault contract);
//   * ServerStats::accounting_clean() holds after the final drain;
//   * drain(10s) completes — a respawned/degraded engine still finishes.
//
// Violations come back as human-readable strings in ChaosReport (empty =
// clean run); the CLI `chaos` subcommand and the CI chaos pass fail on any.
// Under ASan/TSan-free builds the same binary doubles as a leak/race probe
// for every failure path the schedule reaches.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/engine.hpp"

namespace autogemm::serve {

struct ChaosOptions {
  /// Seeds the workload mix, the failpoint schedule, and the engine/retry
  /// option draws. Same seed = same experiment.
  std::uint64_t seed = 1;
  /// Concurrent submitter threads.
  int submitters = 3;
  /// Requests issued by each submitter.
  int requests_per_submitter = 60;
  /// Fleet size of the ShardedEngine under test (same seeded option draws
  /// per worker, stealing at the router defaults). The accounting
  /// invariant is asserted per shard after the drain (the aggregate is
  /// their sum, so it holds too).
  int shards = 1;
  /// Print a per-run summary line to stdout.
  bool verbose = false;
};

struct ChaosReport {
  std::uint64_t seed = 0;
  int shards = 1;              ///< fleet size the run exercised
  std::uint64_t steals = 0;    ///< router diversions (sharded runs only)
  ServerStats stats;           ///< engine stats after the final drain
                               ///< (aggregate across shards when sharded)
  std::uint64_t resolved = 0;  ///< futures/retry calls that completed
  std::uint64_t ok = 0;
  std::uint64_t transient = 0;  ///< kUnavailable / kResourceExhausted
  std::uint64_t expired = 0;    ///< kDeadlineExceeded
  std::uint64_t errors = 0;     ///< kInternal
  std::uint64_t failpoint_hits = 0;  ///< injected faults that actually fired
  bool degraded_inline = false;  ///< engine (any shard, when sharded) ended
                                 ///< in inline mode
  /// Invariant violations, human-readable. Empty = clean run.
  std::vector<std::string> violations;

  bool clean() const { return violations.empty(); }
  /// "seed=7 requests=180 ok=171 ... violations=0" — one line per run.
  std::string summary() const;
};

/// Runs one seeded chaos experiment (builds its own ShardedEngine;
/// arms/disarms failpoints process-globally, restoring a fully disarmed
/// state before returning — do not run concurrently with other failpoint
/// users).
ChaosReport run_chaos(const ChaosOptions& opts);

}  // namespace autogemm::serve
