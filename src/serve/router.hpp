// autogemm::serve::ShardedEngine — multi-engine scale-out behind one
// front door (ROADMAP item 4: the millions-of-users direction).
//
// One Engine + one Context is a single dispatcher, a single plan/packed
// cache, and a single admission queue — the throughput ceiling PR 5
// measured. The sharded engine runs N workers, each an ordinary
// serve::Engine owning a *private* Context, behind a router:
//
//   * **Shape-affine routing.** A request's home shard is a stable FNV-1a
//     hash of its (M, N, K). The whole point of autoGEMM is
//     shape-specialized plans and packed operands; hashing by shape means
//     one shard's caches serve one slice of the shape population and stay
//     hot, instead of N dispatchers thrashing one shared Context. The
//     mapping is a pure function of shape and shard count — same stream,
//     same assignment, every run (shard_for is the public contract).
//   * **Bounded work-stealing.** Shape affinity concentrates load: a
//     traffic spike on one shape (or a stalled dispatcher) backs up one
//     shard while its peers idle. At submit time, when the home shard's
//     queue depth is at least steal_min_depth and exceeds the least-loaded
//     shard's depth by steal_imbalance_ratio, the request diverts to that
//     least-loaded shard — one bounded diversion per request, counted in
//     ShardedStats::steals and autogemm_serve_steals_total. The stolen
//     request pays a cold plan/packed cache on its host shard; the ratio
//     keeps that price paid only when the imbalance is real. A ratio of 0
//     disables stealing (the determinism hook).
//   * **One tuner, fleet-wide view.** The router is the online tuner's
//     only owner (an Engine never tunes). enable_online_tuner builds a
//     single tune::OnlineTuner bound to shard 0's Context, fed by the
//     *merged* per-shard hot-shape accounting (tune::merge_hot_shapes) —
//     a shape lukewarm on every shard can still be hot fleet-wide.
//     Promotions are fanned out to every shard's Context via the tuner's
//     on_promote hook, and exactly one merge-on-save writer touches the
//     records file. drain() pauses the tuner first; a fleet built with
//     worker.start_paused starts it paused. Standalone tuning is the
//     degenerate fleet, shards = 1.
//   * **Lifecycle fan-out, failure isolation.** pause/resume/drain/
//     shutdown propagate to every shard (drains run concurrently — one
//     slow shard does not serialize the fleet's deadline). Supervision
//     stays per shard: a shard that exhausts its dispatcher restart
//     budget degrades *that shard* to inline execution; its siblings keep
//     their dispatchers, and the router keeps routing to it (inline mode
//     still serves every submission honestly).
//
// stats() aggregates per-shard ServerStats by summation (the partition
// invariant survives: an aggregate of clean shards is clean) and keeps
// the per-shard breakdown; hot_shapes() is the merged fleet ranking.
//
// Layering: router sits in serve/ and depends downward on tune/ (tuner +
// hot-shape merge), core, obs, common. See DESIGN.md §4.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <vector>

#include "serve/engine.hpp"

namespace autogemm::serve {

struct ShardedEngineOptions {
  /// Worker engines (each with a private Context). Clamped to >= 1; 1 is
  /// a valid degenerate fleet (the router adds routing accounting only).
  std::size_t shards = 2;
  /// Per-shard Context configuration (records_path is loaded read-only by
  /// every shard; the single tuner is the only records writer).
  ContextOptions context;
  /// Per-shard Engine configuration. queue_capacity etc. are *per shard*:
  /// N shards admit N * queue_capacity in aggregate. worker.shard is
  /// overwritten per shard by create().
  EngineOptions worker;
  /// Steal when home_depth + 1 >= ratio * (min_depth + 1) (the +1 keeps
  /// the test meaningful at empty queues). 0 disables stealing.
  double steal_imbalance_ratio = 2.0;
  /// Never steal while the home shard's queue is shallower than this —
  /// a short burst is cheaper to absorb than a cold-cache diversion.
  std::size_t steal_min_depth = 8;
  /// Single router-owned online tuner over the merged fleet traffic (see
  /// the header comment). Off by default: tuning spends CPU the
  /// dispatchers could use, so the embedder opts in.
  bool enable_online_tuner = false;
  tune::OnlineTunerOptions tuner;
};

/// Aggregate + per-shard accounting (see ServerStats for field meanings).
struct ShardedStats {
  ServerStats aggregate;             ///< summed across shards
  std::vector<ServerStats> shards;   ///< per-shard snapshots, index = shard
  std::uint64_t steals = 0;          ///< requests diverted off their home shard
  std::uint64_t routed = 0;          ///< total routing decisions made

  /// Clean iff the aggregate and every individual shard balance.
  bool accounting_clean() const {
    if (!aggregate.accounting_clean()) return false;
    for (const ServerStats& s : shards)
      if (!s.accounting_clean()) return false;
    return true;
  }
};

class ShardedEngine {
 public:
  /// Builds contexts + engines + (optionally) the router-owned tuner.
  /// Fails with kInvalidArgument if a shard's Context cannot be built.
  static StatusOr<std::unique_ptr<ShardedEngine>> create(
      const ShardedEngineOptions& opts = {});

  ~ShardedEngine();  // shutdown()

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Home shard of shape (m, n, k): FNV-1a over the three dimensions,
  /// mod shards(). Pure and stable — the routing determinism contract
  /// (stealing, when enabled, may divert the *placement*, never this
  /// value).
  std::size_t shard_for(int m, int n, int k) const;

  /// Routes to the home shard (or steals; see the header comment) and
  /// submits. Same completion contract as Engine::submit.
  std::future<Status> submit(const GemmRequest& req);
  void submit(const GemmRequest& req, std::function<void(Status)> done);

  /// Routes once, then delegates to the chosen shard's
  /// Engine::submit_with_retry: retries stay shape-affine (same shard,
  /// same warmed caches, that shard's retry token bucket).
  Status submit_with_retry(const GemmRequest& req,
                           const RetryPolicy& policy = {});

  void pause();   ///< fan-out to every shard
  void resume();

  /// Pauses the tuner, then drains every shard concurrently (each sees the
  /// full timeout_ns; 0 = unbounded). OK when all shards stopped; the first non-OK shard
  /// status otherwise (timed-out shards keep draining in the background,
  /// exactly like Engine::drain).
  Status drain(std::uint64_t timeout_ns = 0);

  /// Stops the tuner, then shuts every shard down. Idempotent.
  void shutdown();

  std::size_t shards() const { return engines_.size(); }
  Engine& shard_engine(std::size_t i) { return *engines_[i]; }
  /// Shard i's Context, built from ShardedEngineOptions::context.
  Context& shard_context(std::size_t i) { return *contexts_[i]; }

  /// Aggregate + per-shard accounting snapshot.
  ShardedStats stats() const;

  /// Total queued (admitted, undispatched) requests across shards.
  std::size_t queue_depth() const;

  /// Shards currently degraded to inline execution.
  std::size_t inline_shards() const;

  /// Fleet-wide hot-shape ranking: per-shard request accounting merged by
  /// exact shape (tune::merge_hot_shapes), hottest first, at most `limit`
  /// entries (0 = all). This is the router-owned tuner's feed.
  std::vector<tune::HotShape> hot_shapes(std::size_t limit = 0) const;

  /// The router-owned tuner; nullptr unless enable_online_tuner was set.
  /// Valid (stopped, stats queryable) after shutdown.
  tune::OnlineTuner* online_tuner() { return tuner_.get(); }

 private:
  ShardedEngine() = default;

  /// Routing decision for one request: home shard, possibly diverted to
  /// the least-loaded shard under imbalance.
  std::size_t route(const GemmRequest& req);

  ShardedEngineOptions opts_;
  /// Destruction order matters: tuner_ (declared last) dies first, then
  /// engines_, then the contexts they reference.
  std::vector<std::unique_ptr<Context>> contexts_;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> routed_{0};
  std::unique_ptr<tune::OnlineTuner> tuner_;
};

}  // namespace autogemm::serve
