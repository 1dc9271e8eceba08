// Online input-aware tuning (ROADMAP item 3, after IAAT): a background
// tuner that closes the loop between the serve engine's observed shape
// traffic and the tuned-records table, so a process gets faster the
// longer it serves.
//
// The paper's tuning is an ahead-of-time campaign; a serving process
// instead discovers its hot irregular shapes at runtime — often shapes no
// campaign anticipated, resolving through the nearest-record or heuristic
// rung of Context's ladder. OnlineTuner periodically:
//
//   1. asks its HotShapeFn for the hottest shape buckets (the serve
//      engine feeds this from per-shape *request accounting*, not from
//      obs metric labels — the label set is FCFS-capped, so a shape that
//      becomes hot late is invisible there; see set_shape_label_cap);
//   2. skips shapes that already resolve through an exact record
//      (Context::has_exact_record);
//   3. runs a budgeted search for each remaining top-K shape: the full
//      Table III space, pre-pruned by the analytic model
//      (model_cost_seconds), with only the surviving slice measured by
//      serial wall-clock — bounded by a per-shape deadline so one giant
//      shape cannot starve the cycle;
//   4. measures the incumbent (the config the shape currently executes)
//      the same way, and on a strict win publishes the winner through
//      Context::publish_record — a short critical section that inserts
//      the record and invalidates the shape's cached plan, so the very
//      next request executes the searched config (first-use verification
//      still vets it; a bad record quarantines and the ladder recovers);
//   5. persists the updated table with TuningRecords::save_file_merged
//      (merge-on-save: concurrent external writers keep their records).
//
// The tuner runs at low priority (serial measurement, yields between
// candidates, sleeps between cycles) and never blocks the dispatcher:
// publication is the only shared critical section and it is a map insert.
// Lifecycle follows PR 7's serve invariants: pause() is honored at the
// next candidate boundary (a draining engine pauses its tuner first),
// stop() joins the thread and is idempotent.
//
// Layering: this header sits in tune/ and knows nothing about serve/ —
// the hot-shape feed is an injected callback, so the dependency stays
// serve -> tune -> core with no cycles.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "tune/search_space.hpp"

namespace autogemm {
class Context;
}  // namespace autogemm

namespace autogemm::tune {

/// One hot shape bucket as ranked by the feed (requests = how many GEMM
/// requests of this exact shape the feeder has admitted).
struct HotShape {
  int m = 0, n = 0, k = 0;
  std::uint64_t requests = 0;
};

/// Feed of hot shapes, hottest first. Called once per cycle, from the
/// tuner thread; implementations must be thread-safe.
using HotShapeFn = std::function<std::vector<HotShape>()>;

/// Merges per-feeder hot-shape snapshots (e.g. one per shard of a
/// serve::ShardedEngine) by summing request counts per exact (m, n, k),
/// returning the merged ranking hottest-first (ties broken by ascending
/// (m, n, k) so the result is deterministic). `limit` caps the output
/// (0 = all).
std::vector<HotShape> merge_hot_shapes(
    const std::vector<std::vector<HotShape>>& feeds, std::size_t limit = 0);

struct OnlineTunerOptions {
  /// Sleep between tuning cycles.
  std::uint64_t cycle_interval_ns = 100'000'000;  // 100 ms
  /// Hot shapes considered per cycle (after the exact-record filter).
  std::size_t top_k = 4;
  /// A shape is tunable only once this many requests hit it — tuning a
  /// one-off shape spends the budget on traffic that never returns.
  std::uint64_t min_requests = 16;
  /// Wall-clock repetitions per measured candidate (min is kept).
  int measure_reps = 3;
  /// Per-shape measurement budget: once this much wall-clock has been
  /// *spent measuring* candidates, the rest price as +inf and the search
  /// terminates with the best-so-far. Metered on measurement time only —
  /// the model-prune pass over the full space is not charged against it.
  std::uint64_t search_budget_ns = 250'000'000;  // 250 ms
  /// Search-space enumeration: false adds the power-of-two ladder on top
  /// of the paper's divisors (irregular serve shapes are often prime-ish,
  /// where the divisor space is degenerate).
  bool divisors_only = false;
  /// Records file the tuner persists promotions into (merge-on-save);
  /// empty = in-memory only.
  std::string records_path;
  /// Construct paused (resume() starts tuning); the engine uses this to
  /// honor its own start_paused.
  bool start_paused = false;
  /// Replaces the wall-clock measurement with a deterministic cost (used
  /// by the CI smoke and tests: model cost makes promotion reproducible
  /// on noisy shared hosts). The incumbent is priced the same way.
  std::function<double(const Candidate&, int m, int n, int k)> cost_override;
  /// Called from the tuner thread after each successful promotion (the
  /// record is already published into the bound context). The sharded
  /// serving router uses this to fan the winning record out to its other
  /// shards' contexts, keeping the tuner bound to exactly one Context and
  /// the layering acyclic (tune/ still knows nothing about serve/). Must
  /// be cheap; exceptions are swallowed.
  std::function<void(int m, int n, int k, const Candidate& best, double cost)>
      on_promote;
};

/// Monotonic counters (snapshot via OnlineTuner::stats).
struct OnlineTunerStats {
  std::uint64_t cycles = 0;       ///< tuning cycles run (incl. empty ones)
  std::uint64_t searches = 0;     ///< per-shape searches attempted
  std::uint64_t promotions = 0;   ///< searched config published (beat incumbent)
  std::uint64_t demotions = 0;    ///< search lost to the incumbent; no publish
  std::uint64_t evaluations = 0;  ///< cost-function calls spent
  std::uint64_t persisted = 0;    ///< successful merge-on-save persists
  std::uint64_t persist_failures = 0;
};

class OnlineTuner {
 public:
  /// `ctx` must outlive the tuner; `hot_shapes` is called from the tuner
  /// thread. The background thread starts immediately (paused when
  /// opts.start_paused).
  OnlineTuner(Context& ctx, HotShapeFn hot_shapes,
              OnlineTunerOptions opts = {});
  ~OnlineTuner();  // stop()

  OnlineTuner(const OnlineTuner&) = delete;
  OnlineTuner& operator=(const OnlineTuner&) = delete;

  /// Pause/resume the background loop. pause() returns once the loop is
  /// parked *between* shapes — an in-flight candidate measurement finishes
  /// first (bounded by one candidate, not one cycle).
  void pause();
  void resume();
  bool paused() const;

  /// Stops and joins the background thread; idempotent, safe after stop.
  void stop();

  /// One synchronous tuning cycle on the calling thread (test/CLI entry;
  /// serialized against the background loop, and it runs to completion
  /// even while the background loop is paused). Returns true if any
  /// shape was promoted.
  bool run_cycle();

  OnlineTunerStats stats() const;

 private:
  void loop();
  bool cycle();                        // caller holds cycle_mu_
  bool tune_shape(const HotShape& hs);  // one budgeted search + publish
  bool should_abort() const;            // pause/stop requested mid-search

  Context& ctx_;
  const HotShapeFn hot_shapes_;
  const OnlineTunerOptions opts_;

  mutable std::mutex mu_;  // stats_, paused_, stop_
  std::condition_variable cv_;
  bool paused_ = false;
  bool stop_ = false;
  OnlineTunerStats stats_;
  /// True while run_cycle() drives a cycle: pause() must not abort it
  /// (only the holder of cycle_mu_ writes this; atomic so should_abort
  /// can read it without cycle_mu_).
  std::atomic<bool> manual_cycle_{false};

  /// Serializes run_cycle() against the background loop so two searches
  /// never interleave their measurements.
  std::mutex cycle_mu_;
  std::thread thread_;
};

}  // namespace autogemm::tune
