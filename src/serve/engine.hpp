// autogemm::serve — asynchronous shape-bucketed GEMM serving engine.
//
// The ROADMAP's deployment target serves *streams* of GEMM requests whose
// shapes repeat heavily (the paper's irregular-workload observation: cost
// is dominated by dispatch and packing overhead, not flops). Every layer
// below this one is synchronous: a caller drives a Context on its own
// thread and pays the full per-call overhead per request. The serve
// engine is the missing layer between the tuned kernels and that traffic
// pattern:
//
//   * clients submit GemmRequests (operands + optional absolute deadline
//     + priority lane) and get a std::future<Status> or a completion
//     callback — submission never blocks on GEMM execution;
//   * a bounded MPSC queue applies explicit backpressure: a full queue
//     rejects with kResourceExhausted (never a silent drop), except that
//     an interactive arrival may displace the oldest bulk request (which
//     then completes with kUnavailable — shed, not dropped);
//   * the dispatcher thread coalesces same-shape, same-dtype requests
//     within a configurable max-batch-delay window and dispatches the
//     group through Context::run_batched_prevalidated, which amortizes
//     plan resolution and packs a group-shared A/B operand once (fp32) or
//     reuses the cached QPackedB of each B (int8); a lone request, or one
//     whose operands conflict with another's, is a batch of one through
//     the same entry point — dispatch never forks on dtype;
//   * a deadline scheduler completes past-deadline requests with
//     kDeadlineExceeded *before* execution (their C is never written);
//   * two priority lanes — interactive and bulk — with starvation-free
//     aging: a bulk request whose queue age exceeds bulk_aging_ns is
//     served ahead of younger interactive traffic;
//   * graceful degradation under overload: above the shed watermark the
//     bulk lane is shed oldest-first (kUnavailable), reported through
//     Status, ServerStats and the obs registry.
//
// Every admission decision and dispatch mirrors onto
// obs::default_registry() — one series per event: queue-depth gauge,
// admission/shed/expiry counters, per-lane queue-latency and batch-size
// histograms — with serve.submit / serve.batch / serve.dispatch trace
// spans. A shard engine's series carry shard="i"; read totals with
// obs::Registry::*_total.
//
// Layering: serve depends on core (Context, batched), tune (the online
// tuner the router owns) and obs/common; nothing below depends back on
// serve (see DESIGN.md). The OnlineTuner itself lives in tune/ and sees
// the serving layer only through an injected hot-shape callback.
//
// ## Online tuning
//
// An Engine never tunes. It keeps per-shape *request accounting* (every
// admitted request increments its exact (m, n, k) bucket, any dtype —
// deliberately not the obs shape labels, whose FCFS cap makes late-hot
// shapes invisible) and exposes it as hot_shapes(). The online tuner's
// single owner is serve::ShardedEngine (router.hpp), which merges the
// feeds of its workers; standalone tuning is a ShardedEngine with
// shards = 1.
//
// ## Resilience
//
// The engine treats partial failure as routine rather than fatal (the
// same philosophy the kernel layer's degradation ladder applies, lifted
// to the serving layer):
//
//   * **Dispatcher supervision.** The dispatcher publishes a heartbeat
//     every loop iteration; a monitor thread (supervision_interval_ns)
//     detects a crashed dispatcher (thread died — `serve.dispatcher_crash`
//     failpoint) or a stalled one (no heartbeat while unserved work is
//     pending for heartbeat_timeout_ns — `serve.dispatcher_stall`) and
//     respawns it with exponential backoff, up to
//     max_dispatcher_restarts. Queued requests live in the engine, not
//     the thread, so they survive every restart. A stalled thread is
//     never detached: it is superseded by a generation bump, parked, and
//     joined at shutdown. When the restart budget is exhausted the
//     engine degrades to inline mode — every submission executes
//     synchronously on the caller's thread, and whatever was queued is
//     drained by the monitor before it exits; no admitted request is
//     ever stranded. If the monitor thread cannot be spawned
//     (`serve.monitor_spawn`), a crashed dispatcher's queue waits for
//     drain(), which serves it on the draining thread.
//   * **Retry policy.** submit_with_retry(req, RetryPolicy) blocks on
//     the future and resubmits transient outcomes (is_transient in
//     common/status.hpp: kResourceExhausted, kUnavailable) with
//     exponential backoff and seeded jitter, never sleeping past the
//     request deadline. An engine-wide token bucket
//     (retry_budget_tokens, refilled by successes at retry_token_ratio)
//     caps the global retry volume so retries cannot amplify an
//     overload into a retry storm.
//   * **Circuit breakers.** Per shape bucket (m, n, k):
//     breaker_failure_threshold consecutive execution failures open the
//     breaker, and further submissions of that shape fast-fail with
//     kUnavailable at admission — without occupying a queue slot —
//     until breaker_cooldown_ns elapses. The breaker then admits one
//     half-open probe request; its success closes the breaker, its
//     failure reopens it. This sits above the config quarantine in
//     core: quarantine retires a *kernel config* after a failed
//     verification probe (the request is still served by the next
//     candidate or the reference tier), while the breaker reacts to
//     *request-level* execution failures that keep coming back non-OK.
//   * **Lifecycle.** Running → Draining → Stopped. drain(timeout_ns)
//     stops admission (new submissions complete with
//     kFailedPrecondition), finishes everything already admitted, and
//     returns OK once the engine is Stopped — or kDeadlineExceeded if
//     the timeout expires first (the drain keeps going in the
//     background; call drain again or shutdown() to finish). shutdown()
//     is drain with no timeout. A paused engine stays paused across
//     drain() (the test hook wins); shutdown() unpauses.
//
// Every resilience event mirrors to obs: breaker transition counters and
// an open-breaker gauge, dispatcher crash/stall/restart counters, retry
// counters, a drain-duration histogram and live engines per lifecycle
// state (autogemm_serve_engines{state=...}). The gauges move by deltas,
// and an engine hands its share back when destroyed, so a family's sum is
// exact however many engines are live.
//
// ## Lifecycle (mechanics)
//
// The engine owns its dispatcher and monitor threads: started in the
// constructor, drained and joined by shutdown() (the destructor calls
// it). After shutdown, submissions are rejected with
// kFailedPrecondition; requests already queued at shutdown are drained —
// executed or deadline-expired, never abandoned. Every accepted
// future/callback completes exactly once, on every path. If the
// dispatcher thread cannot be spawned at all, the engine falls back to
// inline mode: submit() executes synchronously on the caller's thread
// (no coalescing, but no lost requests either).
//
// Completion callbacks run on the dispatcher thread; they must be cheap
// and must not block (a slow callback stalls every queued request).
// Operand buffers must stay alive and unmodified from submit() until the
// request completes.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <tuple>
#include <vector>

#include "common/dtype.hpp"
#include "common/matrix.hpp"
#include "common/status.hpp"
#include "core/context.hpp"
#include "tune/online_tuner.hpp"

#include <condition_variable>

namespace autogemm::serve {

/// The engine's obs handles (engine.cpp internal; one set per shard
/// label, resolved once and shared by every engine that serves it).
struct EngineMetrics;

/// Priority lane. Interactive requests are served first; bulk requests
/// age into priority (see EngineOptions::bulk_aging_ns) and are the
/// first to be shed under overload.
enum class Lane { kInteractive, kBulk };

/// One C += A * B request. Views are not copied: the underlying buffers
/// must outlive the request's completion.
struct GemmRequest {
  common::ConstMatrixView a;
  common::ConstMatrixView b;
  common::MatrixView c;
  /// Execution tier, carried into the BatchItem the Context runs. fp32
  /// runs the tuned kernel path; int8 quantizes both operands exactly as
  /// Context::run_const_b_i8 (B's quantized packing is cached under its
  /// data pointer, so serving traffic that repeats a weight matrix
  /// amortizes the packing). Shape buckets key on (m, n, k, dtype): fp32
  /// and int8 requests of the same shape never co-batch — they run
  /// different kernels with different packed layouts. A dtype with no
  /// execution path fails validate_batch_item at admission with
  /// kInvalidArgument.
  common::DType dtype = common::DType::kF32;
  Lane lane = Lane::kBulk;
  /// Absolute deadline in common::now_ns() time; 0 = no deadline. A
  /// request past its deadline completes with kDeadlineExceeded before
  /// execution — its C is never written.
  std::uint64_t deadline_ns = 0;
};

struct EngineOptions {
  /// Bound on queued (admitted, not yet dispatched) requests across both
  /// lanes. A full queue rejects with kResourceExhausted.
  std::size_t queue_capacity = 1024;
  /// Largest same-shape group dispatched as one Context::run_batched call.
  std::size_t max_batch = 64;
  /// How long the dispatcher holds an under-filled same-shape group open
  /// for more arrivals. 0 = dispatch immediately with whatever is already
  /// queued (coalescing still happens across the backlog).
  std::uint64_t max_batch_delay_ns = 200'000;
  /// A bulk request older than this is served ahead of younger
  /// interactive traffic (starvation freedom). 0 = bulk is never made to
  /// wait behind interactive at all — a determinism hook for tests.
  std::uint64_t bulk_aging_ns = 2'000'000;
  /// Queue depth above which the dispatcher sheds the bulk lane,
  /// oldest-first, with kUnavailable. 0 = three quarters of
  /// queue_capacity.
  std::size_t shed_watermark = 0;
  /// Construct with the dispatcher paused (tests build deterministic
  /// backlogs, then resume()).
  bool start_paused = false;
  /// Shard index when this engine is one worker of a serve::ShardedEngine
  /// (-1 = standalone). A shard engine's obs series carry shard="i"
  /// (autogemm_serve_*{...,shard="i"}), so fleet dashboards can tell a hot
  /// shard from a degraded one; a standalone engine's carry no shard
  /// label.
  int shard = -1;

  // --- dispatcher supervision (see the Resilience section above) ---

  /// Monitor poll interval.
  std::uint64_t supervision_interval_ns = 5'000'000;
  /// No heartbeat for this long while unserved work is pending (and the
  /// engine is neither paused nor mid-dispatch) declares the dispatcher
  /// stalled.
  std::uint64_t heartbeat_timeout_ns = 500'000'000;
  /// How many times a crashed/stalled dispatcher is respawned before the
  /// engine degrades to inline mode.
  std::uint32_t max_dispatcher_restarts = 3;
  /// Respawn backoff: initial, doubling per restart, capped.
  std::uint64_t restart_backoff_ns = 1'000'000;
  std::uint64_t restart_backoff_max_ns = 100'000'000;
  /// How long the `serve.dispatcher_stall` failpoint wedges the
  /// dispatcher (the injected fault's magnitude; tests size it well
  /// above heartbeat_timeout_ns).
  std::uint64_t stall_inject_ns = 50'000'000;

  // --- per-shape circuit breaker ---

  /// Consecutive execution failures of one shape bucket that open its
  /// breaker. 0 disables breakers.
  std::uint32_t breaker_failure_threshold = 5;
  /// How long an open breaker fast-fails its shape before admitting one
  /// half-open probe.
  std::uint64_t breaker_cooldown_ns = 100'000'000;

  // --- retry budget (engine-wide token bucket) ---

  /// Max retry tokens (the bucket starts full; each resubmission by
  /// submit_with_retry spends one). 0 disables the budget (unlimited
  /// retries — policy-level max_attempts still applies).
  double retry_budget_tokens = 64.0;
  /// Tokens refilled per successfully completed request, capped at
  /// retry_budget_tokens. The classic ratio form: 0.1 sustains one
  /// retry per ten successes.
  double retry_token_ratio = 0.1;
};

/// Client-side retry schedule for Engine::submit_with_retry. Only
/// transient outcomes (is_transient in common/status.hpp) are retried.
struct RetryPolicy {
  /// Total attempts, including the first (1 = no retries).
  int max_attempts = 3;
  /// Backoff before the second attempt; doubles per retry, capped at
  /// max_backoff_ns.
  std::uint64_t initial_backoff_ns = 1'000'000;
  std::uint64_t max_backoff_ns = 100'000'000;
  /// Fraction of each backoff randomized away (decorrelates retry
  /// storms): the actual sleep is backoff * (1 - jitter * u) with
  /// u ~ U[0,1) from a PRNG seeded by `seed`. 0 = deterministic full
  /// backoff.
  double jitter = 0.5;
  /// Seeds the jitter PRNG — the whole retry schedule is reproducible
  /// for a given (policy, outcome sequence), which the chaos harness
  /// depends on.
  std::uint64_t seed = 0;
};

/// Engine lifecycle (see the Resilience section). state() reports it;
/// drain()/shutdown() advance it. There are no backward transitions.
enum class EngineState { kRunning, kDraining, kStopped };

/// Monotonic request accounting. Terminal outcomes partition admissions:
/// after a drain (shutdown or an idle engine),
///   submitted == admitted + rejected + invalid
///   admitted  == completed_ok + completed_error + shed + expired
/// accounting_clean() checks exactly that; serve-replay, the chaos
/// harness and CI assert it.
struct ServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  /// Backpressure (queue full), breaker fast-fail, or lifecycle
  /// (draining/stopped) — everything turned away at admission that was
  /// not malformed. breaker_rejected below splits out the breaker share.
  std::uint64_t rejected = 0;
  std::uint64_t invalid = 0;    ///< failed validation, never queued
  std::uint64_t shed = 0;       ///< bulk shed under overload (kUnavailable)
  /// Subset of `shed`: bulk requests displaced by an interactive arrival
  /// at a full queue (the priority-backpressure path), as opposed to the
  /// dispatcher's watermark shedding. Per-lane overload reporting (the
  /// open-loop load harness) splits the two.
  std::uint64_t displaced = 0;
  std::uint64_t expired = 0;    ///< deadline exceeded before execution
  std::uint64_t completed_ok = 0;
  std::uint64_t completed_error = 0;
  std::uint64_t batches = 0;            ///< run_batched dispatches
  std::uint64_t batched_requests = 0;   ///< requests inside those batches
  std::uint64_t single_dispatches = 0;  ///< requests dispatched alone
  std::uint64_t max_queue_depth = 0;

  // Resilience counters (informational; not part of the partition above
  // except breaker_rejected, which is a subset of rejected).
  std::uint64_t breaker_rejected = 0;    ///< fast-failed by an open breaker
  std::uint64_t breaker_opens = 0;       ///< transitions into kOpen
  std::uint64_t dispatcher_crashes = 0;  ///< dispatcher thread died
  std::uint64_t dispatcher_stalls = 0;   ///< heartbeat timeout detections
  std::uint64_t dispatcher_restarts = 0; ///< successful respawns
  std::uint64_t retries = 0;             ///< resubmissions by submit_with_retry
  std::uint64_t retry_budget_exhausted = 0;  ///< retries denied by the bucket

  bool accounting_clean() const {
    return submitted == admitted + rejected + invalid &&
           admitted == completed_ok + completed_error + shed + expired;
  }

  /// Accumulates another engine's stats into this one — the router's
  /// aggregate view across shards. Counters sum; max_queue_depth takes
  /// the max (a sum of per-shard maxima is not a depth any queue ever
  /// had). Summing preserves the accounting partition, so an aggregate of
  /// clean shards is itself clean.
  void merge_from(const ServerStats& o) {
    submitted += o.submitted;
    admitted += o.admitted;
    rejected += o.rejected;
    invalid += o.invalid;
    shed += o.shed;
    displaced += o.displaced;
    expired += o.expired;
    completed_ok += o.completed_ok;
    completed_error += o.completed_error;
    batches += o.batches;
    batched_requests += o.batched_requests;
    single_dispatches += o.single_dispatches;
    max_queue_depth = std::max(max_queue_depth, o.max_queue_depth);
    breaker_rejected += o.breaker_rejected;
    breaker_opens += o.breaker_opens;
    dispatcher_crashes += o.dispatcher_crashes;
    dispatcher_stalls += o.dispatcher_stalls;
    dispatcher_restarts += o.dispatcher_restarts;
    retries += o.retries;
    retry_budget_exhausted += o.retry_budget_exhausted;
  }
};

class Engine {
 public:
  explicit Engine(Context& ctx, const EngineOptions& opts = {});
  ~Engine();  // shutdown(): drains and joins every owned thread

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Submits a request; the future completes exactly once with the
  /// request's terminal Status (kOk, an execution error, kUnavailable
  /// when shed or breaker-rejected, kDeadlineExceeded when expired,
  /// kResourceExhausted when rejected at admission, kInvalidArgument
  /// when malformed, kFailedPrecondition when draining/stopped).
  /// Thread-safe (the MPSC producer side).
  std::future<Status> submit(const GemmRequest& req);

  /// Callback flavor: `done` is invoked exactly once with the terminal
  /// Status — on the dispatcher thread for queued requests, on the
  /// calling thread for admission-time rejections. Must not block.
  void submit(const GemmRequest& req, std::function<void(Status)> done);

  /// Blocking flavor with client-side retries: submits, waits, and
  /// resubmits transient outcomes per `policy` (exponential backoff,
  /// seeded jitter, deadline-aware, engine-wide retry token bucket).
  /// Returns the final attempt's terminal Status.
  Status submit_with_retry(const GemmRequest& req,
                           const RetryPolicy& policy = {});

  /// Stops/resumes dispatching (admission stays open; the queue fills up
  /// to capacity). Test hook for building deterministic backlogs.
  void pause();
  void resume();

  /// Running → Draining: stops admission (kFailedPrecondition), finishes
  /// everything already admitted (execute or expire), then → Stopped.
  /// Returns OK once Stopped; kDeadlineExceeded if `timeout_ns` (0 =
  /// unbounded) expires first — the drain continues in the background
  /// and a later drain()/shutdown() completes it. Respects pause(): a
  /// paused engine does not finish draining until resume() (or
  /// shutdown(), which unpauses). Thread-safe and idempotent.
  Status drain(std::uint64_t timeout_ns = 0);

  /// drain() with no timeout, unpausing first. Idempotent.
  void shutdown();

  EngineState state() const;

  /// Admitted-but-undispatched requests across both lanes.
  std::size_t queue_depth() const;

  ServerStats stats() const;

  /// True when the engine serves submissions synchronously on the
  /// caller's thread: the dispatcher could not be spawned at
  /// construction, or the supervision restart budget was exhausted.
  bool inline_mode() const {
    return inline_.load(std::memory_order_relaxed);
  }

  /// Hottest shape buckets by admitted-request count, descending; at most
  /// `limit` entries (0 = all). Counts are monotonic over the engine's
  /// lifetime, include inline-mode admissions, and aggregate across
  /// dtypes (a shape hot at both tiers ranks by its total traffic). This
  /// — not the obs shape labels — is the online tuner's ranking feed.
  std::vector<tune::HotShape> hot_shapes(std::size_t limit = 0) const;

 private:
  struct Pending {
    GemmRequest req;
    /// Engaged only for future-flavor submissions; the callback flavor
    /// skips the promise's shared-state allocation entirely (it is a
    /// measurable per-request cost at serving rates — see bench_serve).
    std::optional<std::promise<Status>> promise;
    std::function<void(Status)> callback;
    std::uint64_t enqueue_ns = 0;
    bool done = false;
    /// This request is a half-open breaker's single probe; if it never
    /// executes (shed/displaced/expired), the probe slot is released.
    bool breaker_probe = false;
  };

  /// Per-shape-bucket circuit breaker (guarded by mu_).
  struct Breaker {
    enum class St { kClosed, kOpen, kHalfOpen };
    St st = St::kClosed;
    std::uint32_t consecutive_failures = 0;
    std::uint64_t opened_ns = 0;
    bool probe_in_flight = false;
  };
  /// Shape-bucket key: m, n, k, dtype (as int). Carrying the dtype keeps
  /// fp32 and int8 traffic in separate buckets — batching, breakers and
  /// per-shape accounting never mix tiers.
  using ShapeKey = std::tuple<int, int, int, int>;

  std::future<Status> submit_internal(const GemmRequest& req,
                                      std::function<void(Status)> done);
  /// Thread body for dispatcher generation `gen`: runs dispatcher_run
  /// and translates its exit (normal drain / crash / superseded) into
  /// the supervision flags.
  void dispatcher_loop(std::uint64_t gen);
  void dispatcher_run(std::unique_lock<std::mutex>& lock, std::uint64_t gen);
  void monitor_loop();
  /// Restart budget exhausted, respawn impossible, or an unsupervised
  /// drain found the dispatcher dead: flips to inline mode and drains the
  /// queue on the calling thread. Lock held on entry and exit.
  void degrade_to_inline_locked(std::unique_lock<std::mutex>& lock);
  /// Supersedes the current dispatcher thread: the generation bump makes
  /// a still-running one exit at its next lock acquisition, and its handle
  /// parks in abandoned_ to be joined at shutdown — never detached.
  void retire_dispatcher_locked();
  /// Executes (or expires) a dequeued same-shape group — the one
  /// execution path, inline-mode submissions included. Runs unlocked.
  void dispatch(std::vector<Pending> batch);
  /// Publishes the depth, then dispatch()es `batch` with mu_ released.
  void dispatch_unlocked(std::unique_lock<std::mutex>& lock,
                         std::vector<Pending> batch);
  /// Completes the promise + callback exactly once (stats are counted at
  /// the call sites, which know the outcome category).
  static void finish(Pending& p, const Status& s);
  /// Moves every queued request matching (m, n, k, dtype) into *batch,
  /// both lanes, FIFO within each lane, up to max_batch. Dtype is part of
  /// the match: an int8 request never joins an fp32 group.
  void take_same_shape_locked(int m, int n, int k, common::DType dtype,
                              std::vector<Pending>* batch);
  /// Pops the head of the lane due next (interactive first, unless the
  /// bulk head aged past bulk_aging_ns) plus its queued same-shape group.
  /// The queue must be non-empty.
  std::vector<Pending> take_next_group_locked();
  /// Breaker admission decision for `key`: nullopt admits (marking
  /// *probe when this admission is the half-open probe), a Status
  /// fast-fails.
  std::optional<Status> breaker_admission_locked(const ShapeKey& key,
                                                 std::uint64_t now,
                                                 bool* probe);
  /// Feeds one executed request's outcome into its shape's breaker.
  void breaker_outcome_locked(const ShapeKey& key, bool ok, bool was_probe,
                              std::uint64_t now);
  /// A pending request left the queue without executing; if it was a
  /// half-open probe, free the probe slot so the next arrival probes.
  void release_probe_locked(const Pending& p);
  void set_breaker_state_locked(Breaker& b, Breaker::St to, std::uint64_t now);
  /// Spends one retry token, counting the retry (true) or the budget
  /// denial (false) in stats_.
  bool try_spend_retry_token();
  void refill_retry_tokens_locked(std::uint64_t completions);
  void beat();  ///< publishes the dispatcher heartbeat
  /// Joins monitor, dispatcher and abandoned threads (idempotent).
  void join_threads();
  std::size_t depth_locked() const {
    return interactive_.size() + bulk_.size();
  }
  /// Moves the depth gauge by this engine's change since its last publish.
  void publish_depth_locked();
  /// Lifecycle transition; moves one engine between engines{state=} series.
  void set_state_locked(EngineState to);

  Context& ctx_;
  const EngineOptions opts_;
  const std::size_t shed_watermark_;
  /// Points into a process-wide per-shard-label table, never freed (same
  /// lifetime contract as the registry handles themselves).
  const EngineMetrics* const metrics_;

  mutable std::mutex mu_;
  std::condition_variable cv_;        // dispatcher wakeups
  std::condition_variable monitor_cv_;  // monitor wakeups
  std::condition_variable drain_cv_;    // drain() waiters
  std::deque<Pending> interactive_;
  std::deque<Pending> bulk_;
  ServerStats stats_;
  bool paused_ = false;
  EngineState state_ = EngineState::kRunning;
  std::uint64_t drain_start_ns_ = 0;
  /// No dispatcher will ever serve again and the queue is empty — the
  /// condition drain() waits for (also true in inline mode, where there
  /// is nothing to drain).
  bool drained_ = false;

  // Supervision state (guarded by mu_ unless noted).
  std::uint64_t dispatcher_gen_ = 0;  ///< current generation; stale exits
  bool dispatcher_alive_ = false;
  bool dispatcher_dead_ = false;      ///< crashed, awaiting the monitor
  bool dispatch_active_ = false;      ///< executing a batch (unlocked)
  bool monitor_stop_ = false;
  bool monitor_started_ = false;  ///< set once by the constructor
  std::uint32_t restarts_used_ = 0;
  std::atomic<std::uint64_t> last_beat_ns_{0};
  std::vector<std::thread> abandoned_;  ///< superseded stalled dispatchers

  // Breakers + retry budget (guarded by mu_).
  std::map<ShapeKey, Breaker> breakers_;
  std::size_t breakers_open_ = 0;
  double published_depth_ = 0;  ///< this engine's share of the depth gauge
  double retry_tokens_ = 0;

  /// Admitted requests per exact (m, n, k), every dtype counted together
  /// (guarded by mu_): the hot-shape feed for the online tuner. Unbounded
  /// in distinct shapes by design — one uint64 per shape is cheap next to
  /// the plan cache, and capping it would reintroduce the FCFS-label
  /// blindness this exists to fix.
  std::map<std::tuple<int, int, int>, std::uint64_t> shape_requests_;

  std::atomic<bool> inline_{false};
  std::mutex join_mu_;
  std::thread dispatcher_;
  std::thread monitor_;
};

}  // namespace autogemm::serve
