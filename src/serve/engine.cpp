#include "serve/engine.hpp"

#include <algorithm>
#include <span>
#include <string>
#include <system_error>
#include <utility>

#include "common/failpoint.hpp"
#include "core/batched.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace autogemm::serve {

/// The engine's obs handles: one series per event and metric. An engine
/// with EngineOptions::shard >= 0 carries shard="i" after its other labels;
/// a standalone engine carries none. Resolved once per shard label and
/// cached process-wide, so engines that serve one label (one fleet torn
/// down, another built) share handles — the registry's own lifetime.
struct EngineMetrics {
  // Lane-indexed arrays: [0] interactive, [1] bulk. `batches` is indexed
  // by the servable DTypes: [0] f32, [1] i8.
  obs::Counter *submitted[2], *admitted, *rejected_full, *rejected_stopped,
      *rejected_draining, *rejected_breaker, *invalid, *shed, *displaced,
      *expired, *completed_ok, *completed_error, *batches[2],
      *dispatched_batched, *dispatched_single, *breaker_open,
      *breaker_half_open, *breaker_closed, *dispatcher_crash,
      *dispatcher_stall, *dispatcher_restart, *inline_fallback, *retries,
      *retry_budget_exhausted;
  /// Delta-maintained (Gauge::add), so each family's sum is exact for any
  /// number of live engines.
  obs::Gauge *queue_depth, *breakers_open, *engines[3];
  obs::Histogram *queue_seconds[2], *batch_size, *drain_seconds;
};

namespace {

// The engine's timers (engine.hpp, Resilience), on EngineOptions::clock.
constexpr std::uint64_t kBulkAgingNs = 2'000'000;
constexpr std::uint64_t kSupervisionIntervalNs = 5'000'000;
constexpr std::uint64_t kHeartbeatTimeoutNs = 500'000'000;
constexpr std::uint64_t kRestartBackoffNs = 1'000'000;  // doubles per restart
constexpr std::uint64_t kRestartBackoffMaxNs = 100'000'000;
constexpr std::uint64_t kBreakerCooldownNs = 100'000'000;
constexpr double kRetryTokenRatio = 0.1;  // tokens per completed request

const EngineMetrics* engine_metrics(int shard) {
  static std::mutex mu;
  static std::map<int, EngineMetrics>& table = *new std::map<int, EngineMetrics>;
  std::lock_guard lock(mu);
  auto [it, fresh] = table.try_emplace(std::max(-1, shard));
  EngineMetrics& x = it->second;
  if (!fresh) return &x;
  obs::Registry& r = obs::default_registry();
  const std::string sh =
      shard < 0 ? "" : "shard=\"" + std::to_string(shard) + "\"";
  // autogemm_serve_<metric>{<k>="<v>",shard="i"}, either label optional.
  const auto name = [&](const char* metric, const char* k = "",
                        const char* v = "") {
    std::string l = *k ? k + ("=\"" + std::string(v) + "\"") : "";
    l += l.empty() || sh.empty() ? sh : "," + sh;
    if (!l.empty()) l = "{" + l + "}";
    return "autogemm_serve_" + std::string(metric) + l;
  };
  const auto c = [&](auto... a) { return &r.counter(name(a...)); };
  const auto g = [&](auto... a) { return &r.gauge(name(a...)); };
  const auto h = [&](auto... a) { return &r.histogram(name(a...)); };
  x.submitted[0] = c("submitted_total", "lane", "interactive");
  x.submitted[1] = c("submitted_total", "lane", "bulk");
  x.admitted = c("admitted_total");
  x.rejected_full = c("rejected_total", "reason", "queue_full");
  x.rejected_stopped = c("rejected_total", "reason", "stopped");
  x.rejected_draining = c("rejected_total", "reason", "draining");
  x.rejected_breaker = c("rejected_total", "reason", "breaker");
  x.invalid = c("rejected_total", "reason", "invalid");
  x.shed = c("shed_total");
  x.displaced = c("displaced_total");
  x.expired = c("expired_total");
  x.completed_ok = c("completed_total", "result", "ok");
  x.completed_error = c("completed_total", "result", "error");
  x.batches[0] = c("batches_total", "dtype", "f32");
  x.batches[1] = c("batches_total", "dtype", "i8");
  x.dispatched_batched = c("dispatched_total", "mode", "batched");
  x.dispatched_single = c("dispatched_total", "mode", "single");
  x.breaker_open = c("breaker_transitions_total", "to", "open");
  x.breaker_half_open = c("breaker_transitions_total", "to", "half_open");
  x.breaker_closed = c("breaker_transitions_total", "to", "closed");
  x.dispatcher_crash = c("dispatcher_events_total", "event", "crash");
  x.dispatcher_stall = c("dispatcher_events_total", "event", "stall");
  x.dispatcher_restart = c("dispatcher_events_total", "event", "restart");
  x.inline_fallback = c("inline_fallback_total");
  x.retries = c("retries_total");
  x.retry_budget_exhausted = c("retry_budget_exhausted_total");
  x.queue_depth = g("queue_depth");
  x.breakers_open = g("breakers_open");
  // Indexed by EngineState: live engines per lifecycle state.
  x.engines[0] = g("engines", "state", "running");
  x.engines[1] = g("engines", "state", "draining");
  x.engines[2] = g("engines", "state", "stopped");
  x.queue_seconds[0] = h("queue_seconds", "lane", "interactive");
  x.queue_seconds[1] = h("queue_seconds", "lane", "bulk");
  // Batch sizes are small integers; scale 1 keeps the log2 buckets
  // aligned on request counts instead of microseconds.
  x.batch_size = &r.histogram(name("batch_size"), /*scale=*/1.0);
  x.drain_seconds = h("drain_seconds");
  return &x;
}

bool past_deadline(const GemmRequest& req, std::uint64_t now) {
  return req.deadline_ns != 0 && now >= req.deadline_ns;
}

Status deadline_status(const GemmRequest& req, std::uint64_t now) {
  return DeadlineExceededError(
      "serve: request deadline passed " +
      std::to_string((now - req.deadline_ns) / 1000) +
      "us before execution; C untouched");
}

Status shed_status() {
  return UnavailableError(
      "serve: shed under overload (bulk lane, oldest first); C untouched — "
      "resubmit when load drops");
}

Status exec_failpoint_status() {
  return InternalError(
      "failpoint: serve.execute — execution failed before touching C");
}

std::string shape_text(int m, int n, int k) {
  return std::to_string(m) + "x" + std::to_string(n) + "x" + std::to_string(k);
}

}  // namespace

void Engine::beat() {
  last_beat_ns_.store(clock_.now_ns(), std::memory_order_relaxed);
}

Engine::Engine(Context& ctx, const EngineOptions& opts)
    : ctx_(ctx),
      opts_([&] {
        EngineOptions o = opts;
        if (o.queue_capacity == 0) o.queue_capacity = 1;
        if (o.max_batch == 0) o.max_batch = 1;
        return o;
      }()),
      clock_(opts.clock != nullptr ? *opts.clock : common::steady_clock()),
      shed_watermark_(opts_.shed_watermark != 0
                          ? opts_.shed_watermark
                          : std::max<std::size_t>(
                                1, opts_.queue_capacity * 3 / 4)),
      metrics_(engine_metrics(opts_.shard)),
      paused_(opts_.start_paused) {
  metrics_->engines[static_cast<int>(EngineState::kRunning)]->add(1);
  retry_tokens_ = opts_.retry_budget_tokens;
  beat();
  try {
    if (failpoint::should_fail("serve.spawn"))
      throw std::system_error(std::make_error_code(
          std::errc::resource_unavailable_try_again));
    dispatcher_alive_ = true;
    dispatcher_ = std::thread([this] { dispatcher_loop(0); });
  } catch (const std::system_error&) {
    // No dispatcher thread: serve synchronously on the caller's thread
    // rather than refusing to serve at all. No coalescing, no lanes —
    // but every submission still completes with an honest Status.
    dispatcher_alive_ = false;
    inline_.store(true, std::memory_order_relaxed);
    drained_ = true;  // nothing will ever queue
  }
  if (!inline_mode()) {
    try {
      if (failpoint::should_fail("serve.monitor_spawn"))
        throw std::system_error(std::make_error_code(
            std::errc::resource_unavailable_try_again));
      monitor_ = std::thread([this] { monitor_loop(); });
      monitor_started_ = true;
    } catch (const std::system_error&) {
      // Unsupervised but serving: a dispatcher crash strands its queue
      // until drain(), which then serves the backlog on its own thread.
    }
  }
}

Engine::~Engine() {
  shutdown();
  // Hand back this engine's share of the delta-maintained gauges.
  std::lock_guard lock(mu_);
  metrics_->queue_depth->add(-published_depth_);
  metrics_->breakers_open->add(-static_cast<double>(breakers_open_));
  metrics_->engines[static_cast<int>(state_)]->add(-1);
}

std::vector<tune::HotShape> Engine::hot_shapes(std::size_t limit) const {
  std::vector<tune::HotShape> feed;
  {
    std::lock_guard lock(mu_);
    feed.reserve(shape_requests_.size());
    for (const auto& [key, count] : shape_requests_) {
      const auto [m, n, k] = key;
      feed.push_back(tune::HotShape{m, n, k, count});
    }
  }
  return tune::merge_hot_shapes({std::move(feed)}, limit);  // rank + cap
}

std::future<Status> Engine::submit(const GemmRequest& req) {
  return submit_internal(req, nullptr);
}

void Engine::submit(const GemmRequest& req, std::function<void(Status)> done) {
  (void)submit_internal(req, std::move(done));
}

void Engine::finish(Pending& p, const Status& s) {
  if (p.done) return;
  p.done = true;
  if (p.promise.has_value()) p.promise->set_value(s);
  if (p.callback) {
    try {
      p.callback(s);
    } catch (...) {
      // A throwing completion callback must not take down the dispatcher;
      // the status already reached the future.
    }
  }
}

std::future<Status> Engine::submit_internal(const GemmRequest& req,
                                            std::function<void(Status)> done) {
  const EngineMetrics& o = *metrics_;
  obs::SpanScope span("serve.submit",
                      static_cast<std::uint64_t>(std::max(0, req.c.rows)),
                      static_cast<std::uint64_t>(std::max(0, req.c.cols)));
  o.submitted[req.lane == Lane::kInteractive ? 0 : 1]->add(1);

  Pending p;
  p.req = req;
  std::future<Status> fut;
  if (done == nullptr) {
    p.promise.emplace();
    fut = p.promise->get_future();
  } else {
    p.callback = std::move(done);
  }

  // Validation happens at admission so a malformed request (bad operands
  // or a dtype with no execution path) never occupies a queue slot, and
  // its error surfaces immediately, not a batch window later.
  const Status valid =
      validate_batch_item(BatchItem{req.a, req.b, req.c, req.dtype});
  const ShapeKey shape{req.c.rows, req.c.cols, req.a.cols,
                       static_cast<int>(req.dtype)};

  Status reject;
  obs::Counter* reject_counter = nullptr;
  bool run_inline = false;
  bool have_victim = false;
  Pending victim;
  {
    std::lock_guard lock(mu_);
    ++stats_.submitted;
    bool probe = false;
    std::optional<Status> braked;
    if (!valid.ok()) {
      ++stats_.invalid;
      reject = valid;
      reject_counter = o.invalid;
    } else if (state_ != EngineState::kRunning) {
      // Lifecycle rejections are kFailedPrecondition: the caller must
      // observe the state change, retrying is useless by definition
      // (is_transient classifies it accordingly).
      ++stats_.rejected;
      if (state_ == EngineState::kDraining) {
        reject = FailedPreconditionError(
            "serve: engine draining; new submissions are not admitted "
            "(in-flight work is completing)");
        reject_counter = o.rejected_draining;
      } else {
        reject = FailedPreconditionError(
            "serve: engine stopped; request not admitted");
        reject_counter = o.rejected_stopped;
      }
    } else if ((braked = breaker_admission_locked(shape, clock_.now_ns(),
                                                  &probe))
                   .has_value()) {
      // Open circuit breaker: fast-fail without occupying a queue slot.
      ++stats_.rejected;
      ++stats_.breaker_rejected;
      reject = *braked;
      reject_counter = o.rejected_breaker;
    } else {
      p.breaker_probe = probe;
      // Inline mode has no queue to fill: the request runs right here.
      bool full = !inline_mode() &&
                  (depth_locked() >= opts_.queue_capacity ||
                   failpoint::should_fail("serve.queue_full"));
      if (full && req.lane == Lane::kInteractive && !bulk_.empty()) {
        // Backpressure with priority: an interactive arrival displaces
        // the oldest bulk request instead of being turned away.
        release_probe_locked(bulk_.front());
        victim = std::move(bulk_.front());
        bulk_.pop_front();
        have_victim = true;
        ++stats_.shed;
        ++stats_.displaced;
        full = false;
      }
      if (full) {
        release_probe_locked(p);  // the probe slot must not leak
        ++stats_.rejected;
        reject = ResourceExhaustedError(
            "serve: submission queue full (capacity " +
            std::to_string(opts_.queue_capacity) +
            "); backpressure — retry after completions drain");
        reject_counter = o.rejected_full;
      } else {
        ++stats_.admitted;
        ++shape_requests_[{req.c.rows, req.c.cols, req.a.cols}];
        o.admitted->add(1);
        p.enqueue_ns = clock_.now_ns();
        run_inline = inline_mode();
        if (!run_inline) {
          (req.lane == Lane::kInteractive ? interactive_ : bulk_)
              .push_back(std::move(p));
          stats_.max_queue_depth =
              std::max<std::uint64_t>(stats_.max_queue_depth, depth_locked());
          publish_depth_locked();
        }
      }
    }
  }
  if (have_victim) {
    o.shed->add(1);
    o.displaced->add(1);
    finish(victim, shed_status());
  }
  if (reject_counter != nullptr) {
    reject_counter->add(1);
    finish(p, reject);
  } else if (run_inline) {
    // Inline mode: a one-member group through the dispatcher's own path
    // (deadline check, failpoint, execution, stats, breaker).
    std::vector<Pending> one;
    one.push_back(std::move(p));
    dispatch(std::move(one));
  } else {
    cv_.notify_one();
  }
  return fut;
}

Status Engine::submit_with_retry(const GemmRequest& req,
                                 const RetryPolicy& policy) {
  const EngineMetrics& o = *metrics_;
  const int attempts = std::max(1, policy.max_attempts);
  std::uint64_t rng = policy.seed;
  std::uint64_t backoff =
      std::max<std::uint64_t>(1, policy.initial_backoff_ns);
  Status last;
  for (int attempt = 1;; ++attempt) {
    last = submit(req).get();
    if (last.ok() || !is_transient(last) || attempt >= attempts) return last;
    std::uint64_t delay = backoff;
    if (policy.jitter > 0) {
      // splitmix64 step — the schedule is reproducible per policy.seed.
      std::uint64_t z = (rng += 0x9E3779B97F4A7C15ull);
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      z ^= z >> 31;
      const double u =
          static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);
      delay = static_cast<std::uint64_t>(
          static_cast<double>(delay) *
          (1.0 - std::min(1.0, policy.jitter) * u));
    }
    if (req.deadline_ns != 0 && clock_.now_ns() + delay >= req.deadline_ns)
      return last;  // the retried attempt would expire anyway
    if (!try_spend_retry_token()) {
      o.retry_budget_exhausted->add(1);
      return last;
    }
    o.retries->add(1);
    if (delay > 0) clock_.sleep_for(delay);
    backoff = backoff < policy.max_backoff_ns / 2 ? 2 * backoff
                                                  : policy.max_backoff_ns;
  }
}

bool Engine::try_spend_retry_token() {
  std::lock_guard lock(mu_);
  if (opts_.retry_budget_tokens > 0) {  // 0 = budget disabled
    if (retry_tokens_ < 1.0) {
      ++stats_.retry_budget_exhausted;
      return false;
    }
    retry_tokens_ -= 1.0;
  }
  ++stats_.retries;
  return true;
}

void Engine::refill_retry_tokens_locked(std::uint64_t completions) {
  if (opts_.retry_budget_tokens <= 0) return;
  retry_tokens_ =
      std::min(opts_.retry_budget_tokens,
               retry_tokens_ +
                   kRetryTokenRatio * static_cast<double>(completions));
}

std::optional<Status> Engine::breaker_admission_locked(const ShapeKey& key,
                                                       std::uint64_t now,
                                                       bool* probe) {
  if (opts_.breaker_failure_threshold == 0) return std::nullopt;
  auto it = breakers_.find(key);
  if (it == breakers_.end()) return std::nullopt;
  Breaker& b = it->second;
  if (b.st == Breaker::St::kOpen) {
    if (now - b.opened_ns < kBreakerCooldownNs) {
      return UnavailableError(
          "serve: circuit breaker open for shape " +
          shape_text(std::get<0>(key), std::get<1>(key), std::get<2>(key)) +
          " after consecutive execution failures; fast-fail without "
          "queueing, C untouched — retry after the cooldown");
    }
    set_breaker_state_locked(b, Breaker::St::kHalfOpen, now);
  }
  if (b.st == Breaker::St::kHalfOpen) {
    if (b.probe_in_flight) {
      return UnavailableError(
          "serve: circuit breaker half-open for shape " +
          shape_text(std::get<0>(key), std::get<1>(key), std::get<2>(key)) +
          " with its probe in flight; fast-fail, C untouched");
    }
    b.probe_in_flight = true;
    *probe = true;
  }
  return std::nullopt;
}

void Engine::breaker_outcome_locked(const ShapeKey& key, bool ok,
                                    bool was_probe, std::uint64_t now) {
  if (opts_.breaker_failure_threshold == 0) return;
  if (ok) {
    auto it = breakers_.find(key);
    if (it == breakers_.end()) return;
    Breaker& b = it->second;
    b.consecutive_failures = 0;
    if (was_probe) b.probe_in_flight = false;
    if (b.st != Breaker::St::kClosed)
      set_breaker_state_locked(b, Breaker::St::kClosed, now);
    return;
  }
  Breaker& b = breakers_[key];
  ++b.consecutive_failures;
  if (was_probe) b.probe_in_flight = false;
  if (b.st == Breaker::St::kHalfOpen ||
      (b.st == Breaker::St::kClosed &&
       b.consecutive_failures >= opts_.breaker_failure_threshold)) {
    set_breaker_state_locked(b, Breaker::St::kOpen, now);
  } else if (b.st == Breaker::St::kOpen) {
    // Failures from requests admitted before the breaker opened keep the
    // cooldown fresh — the bucket is demonstrably still unhealthy.
    b.opened_ns = now;
  }
}

void Engine::set_breaker_state_locked(Breaker& b, Breaker::St to,
                                      std::uint64_t now) {
  if (b.st == to) return;
  const EngineMetrics& o = *metrics_;
  if (b.st == Breaker::St::kOpen) {
    --breakers_open_;
    o.breakers_open->add(-1);
  }
  b.st = to;
  b.probe_in_flight = false;
  switch (to) {
    case Breaker::St::kOpen:
      ++breakers_open_;
      o.breakers_open->add(1);
      b.opened_ns = now;
      ++stats_.breaker_opens;
      o.breaker_open->add(1);
      break;
    case Breaker::St::kHalfOpen:
      o.breaker_half_open->add(1);
      break;
    case Breaker::St::kClosed:
      b.consecutive_failures = 0;
      o.breaker_closed->add(1);
      break;
  }
}

void Engine::release_probe_locked(const Pending& p) {
  if (!p.breaker_probe) return;
  auto it = breakers_.find(ShapeKey{p.req.c.rows, p.req.c.cols, p.req.a.cols,
                                    static_cast<int>(p.req.dtype)});
  if (it == breakers_.end()) return;
  if (it->second.st == Breaker::St::kHalfOpen)
    it->second.probe_in_flight = false;
}

void Engine::take_same_shape_locked(int m, int n, int k, common::DType dtype,
                                    std::vector<Pending>* batch) {
  for (std::deque<Pending>* lane : {&interactive_, &bulk_}) {
    for (auto it = lane->begin();
         it != lane->end() && batch->size() < opts_.max_batch;) {
      const GemmRequest& r = it->req;
      if (r.c.rows == m && r.c.cols == n && r.a.cols == k &&
          r.dtype == dtype) {
        batch->push_back(std::move(*it));
        it = lane->erase(it);
      } else {
        ++it;
      }
    }
  }
}

std::vector<Engine::Pending> Engine::take_next_group_locked() {
  // Lane pick: interactive first, unless the bulk head has aged past the
  // starvation bound.
  std::deque<Pending>* lane = &interactive_;
  if (interactive_.empty() ||
      (!bulk_.empty() &&
       clock_.now_ns() - bulk_.front().enqueue_ns >= kBulkAgingNs))
    lane = &bulk_;
  std::vector<Pending> batch;
  batch.push_back(std::move(lane->front()));
  lane->pop_front();
  const GemmRequest& seed = batch.front().req;
  take_same_shape_locked(seed.c.rows, seed.c.cols, seed.a.cols, seed.dtype,
                         &batch);
  return batch;
}

void Engine::publish_depth_locked() {
  const double depth = static_cast<double>(depth_locked());
  metrics_->queue_depth->add(depth - published_depth_);
  published_depth_ = depth;
}

void Engine::set_state_locked(EngineState to) {
  metrics_->engines[static_cast<int>(state_)]->add(-1);
  metrics_->engines[static_cast<int>(to)]->add(1);
  state_ = to;
}

void Engine::dispatcher_loop(std::uint64_t gen) {
  std::unique_lock<std::mutex> lock(mu_);
  bool crashed = false;
  try {
    dispatcher_run(lock, gen);
  } catch (...) {
    // The dispatcher thread died mid-loop (the serve.dispatcher_crash
    // failpoint, or an allocation failure in the loop bookkeeping). The
    // queue is intact — every Pending lives in the engine, not on this
    // stack — so the monitor can respawn a replacement that picks the
    // backlog straight up.
    crashed = true;
  }
  if (!lock.owns_lock()) lock.lock();
  if (gen != dispatcher_gen_) return;  // superseded; successor owns the flags
  dispatcher_alive_ = false;
  if (crashed) {
    dispatcher_dead_ = true;
    ++stats_.dispatcher_crashes;
    metrics_->dispatcher_crash->add(1);
    monitor_cv_.notify_all();
    drain_cv_.notify_all();  // an unsupervised drain() serves the backlog
  } else if (state_ != EngineState::kRunning && depth_locked() == 0) {
    drained_ = true;
    drain_cv_.notify_all();
  }
}

void Engine::dispatcher_run(std::unique_lock<std::mutex>& lock,
                            std::uint64_t gen) {
  for (;;) {
    beat();
    cv_.wait(lock, [&] {
      if (gen != dispatcher_gen_) return true;
      const bool work = !interactive_.empty() || !bulk_.empty();
      // Draining: wake to finish the backlog (or exit when it is gone) —
      // but a paused engine stays paused until resume()/shutdown().
      if (state_ != EngineState::kRunning && (!work || !paused_)) return true;
      return !paused_ && work;
    });
    if (gen != dispatcher_gen_) return;
    beat();
    if (failpoint::should_fail("serve.dispatcher_crash"))
      throw std::runtime_error("failpoint: serve.dispatcher_crash");
    if (failpoint::should_fail("serve.dispatcher_stall")) {
      // A wedged dispatcher: publishes no heartbeat, makes no progress,
      // holds no lock — exactly what the monitor must detect and route
      // around — until it is superseded or a drain starts. It parks on
      // monitor_cv_: on cv_ it could take a submit's notify_one meant for
      // its replacement.
      monitor_cv_.wait(lock, [&] {
        return gen != dispatcher_gen_ || state_ != EngineState::kRunning;
      });
      if (gen != dispatcher_gen_) return;  // superseded while wedged
      continue;
    }
    if (interactive_.empty() && bulk_.empty()) {
      if (state_ != EngineState::kRunning) return;  // drained
      continue;
    }
    // While draining: no shedding, no batch-window waits — everything
    // already admitted is executed or expired, never dropped.
    const bool draining = state_ != EngineState::kRunning;

    if (!draining && depth_locked() > shed_watermark_) {
      // Graceful degradation: bulk goes first, oldest first, until the
      // queue is back under the watermark (or the bulk lane is empty —
      // interactive traffic is never shed here, it is bounded by
      // admission capacity instead).
      std::vector<Pending> victims;
      while (!bulk_.empty() && depth_locked() > shed_watermark_) {
        release_probe_locked(bulk_.front());
        victims.push_back(std::move(bulk_.front()));
        bulk_.pop_front();
        ++stats_.shed;
      }
      if (!victims.empty()) {
        publish_depth_locked();
        lock.unlock();
        metrics_->shed->add(victims.size());
        for (auto& v : victims) finish(v, shed_status());
        lock.lock();
        continue;
      }
    }

    std::vector<Pending> batch = take_next_group_locked();
    const GemmRequest& seed = batch.front().req;
    const int m = seed.c.rows, n = seed.c.cols, k = seed.a.cols;
    const common::DType dt = seed.dtype;

    if (!draining && opts_.max_batch_delay_ns > 0 &&
        batch.size() < opts_.max_batch) {
      // Hold the group open for late same-shape arrivals, but never past
      // the earliest member deadline (a full window that expires its own
      // members would be self-defeating).
      obs::SpanScope window_span("serve.batch",
                                 static_cast<std::uint64_t>(m) * n,
                                 static_cast<std::uint64_t>(batch.size()));
      std::uint64_t wait_end = clock_.now_ns() + opts_.max_batch_delay_ns;
      for (const auto& p : batch)
        if (p.req.deadline_ns != 0 && p.req.deadline_ns < wait_end)
          wait_end = p.req.deadline_ns;
      while (batch.size() < opts_.max_batch &&
             state_ == EngineState::kRunning && gen == dispatcher_gen_) {
        if (clock_.wait_until(cv_, lock, wait_end) ==
            std::cv_status::timeout) {
          take_same_shape_locked(m, n, k, dt, &batch);
          break;
        }
        take_same_shape_locked(m, n, k, dt, &batch);
      }
    }
    dispatch_active_ = true;  // the monitor must not abandon us mid-GEMM
    beat();
    dispatch_unlocked(lock, std::move(batch));
    dispatch_active_ = false;
    beat();
    if (gen != dispatcher_gen_) return;  // superseded while dispatching
  }
}

void Engine::monitor_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    clock_.wait_until(monitor_cv_, lock,
                      clock_.now_ns() + kSupervisionIntervalNs,
                      [&] { return monitor_stop_ || dispatcher_dead_; });
    if (monitor_stop_) return;
    if (drained_ || inline_mode()) return;  // nothing left to supervise
    const std::uint64_t now = clock_.now_ns();
    const bool crash = dispatcher_dead_;
    bool stall = false;
    if (!crash) {
      const bool work = !interactive_.empty() || !bulk_.empty();
      const std::uint64_t beat_ns =
          last_beat_ns_.load(std::memory_order_relaxed);
      // A stall is only declarable when the dispatcher *should* be making
      // progress: work is pending, the engine is not paused, and the
      // dispatcher is not legitimately inside a long GEMM dispatch.
      if (dispatcher_alive_ && work && !paused_ && !dispatch_active_ &&
          now > beat_ns && now - beat_ns > kHeartbeatTimeoutNs)
        stall = true;
    }
    if (!crash && !stall) continue;
    const EngineMetrics& o = *metrics_;
    if (stall) {
      ++stats_.dispatcher_stalls;
      o.dispatcher_stall->add(1);
      retire_dispatcher_locked();
    }
    dispatcher_dead_ = false;
    if (restarts_used_ >= opts_.max_dispatcher_restarts) {
      degrade_to_inline_locked(lock);
      return;
    }
    // Exponential backoff between respawns: a dispatcher that dies on
    // arrival (e.g. a persistently armed crash failpoint) must not spin
    // the monitor.
    const std::uint64_t backoff = std::min(
        kRestartBackoffMaxNs,
        kRestartBackoffNs << std::min<std::uint32_t>(restarts_used_, 7));
    ++restarts_used_;
    if (clock_.wait_until(monitor_cv_, lock, clock_.now_ns() + backoff,
                          [&] { return monitor_stop_; }))
      return;
    ++dispatcher_gen_;
    const std::uint64_t gen = dispatcher_gen_;
    // A crashed thread has already exited; reclaim its handle before
    // reusing the slot (a stalled one was parked in abandoned_ above).
    if (dispatcher_.joinable()) dispatcher_.join();
    beat();
    try {
      dispatcher_ = std::thread([this, gen] { dispatcher_loop(gen); });
      dispatcher_alive_ = true;
      ++stats_.dispatcher_restarts;
      o.dispatcher_restart->add(1);
      cv_.notify_all();
    } catch (const std::system_error&) {
      degrade_to_inline_locked(lock);
      return;
    }
  }
}

void Engine::retire_dispatcher_locked() {
  ++dispatcher_gen_;
  dispatcher_alive_ = false;
  if (dispatcher_.joinable()) abandoned_.push_back(std::move(dispatcher_));
  cv_.notify_all();
  monitor_cv_.notify_all();  // a wedged dispatcher leaves its wedge
}

void Engine::dispatch_unlocked(std::unique_lock<std::mutex>& lock,
                               std::vector<Pending> batch) {
  publish_depth_locked();
  lock.unlock();
  try {
    dispatch(std::move(batch));
  } catch (...) {
    // dispatch() completes each member as it goes; nothing to repair
    // beyond not letting an exception kill the calling thread. (The
    // Context entry points return Status rather than throwing; this
    // guards allocation failure in the dispatch bookkeeping itself.)
  }
  lock.lock();
}

void Engine::degrade_to_inline_locked(std::unique_lock<std::mutex>& lock) {
  // Restart budget exhausted (or respawn impossible): from here on every
  // submission executes synchronously on its caller's thread. inline_ is
  // set under mu_, so no request can slip into the queue afterwards.
  inline_.store(true, std::memory_order_relaxed);
  metrics_->inline_fallback->add(1);
  retire_dispatcher_locked();  // no dispatcher owns the queue anymore
  dispatcher_dead_ = false;
  // Drain the backlog on this thread, batch by shape like the dispatcher
  // would — no admitted request is stranded by the degradation.
  while (!interactive_.empty() || !bulk_.empty())
    dispatch_unlocked(lock, take_next_group_locked());
  publish_depth_locked();
  drained_ = true;  // queue empty and no dispatcher will ever serve again
  drain_cv_.notify_all();
}

void Engine::dispatch(std::vector<Pending> batch) {
  const EngineMetrics& o = *metrics_;
  const std::uint64_t now = clock_.now_ns();
  for (const auto& p : batch)
    o.queue_seconds[p.req.lane == Lane::kInteractive ? 0 : 1]->observe(
        static_cast<double>(now - p.enqueue_ns) * 1e-9);

  // Deadline pass: expire before execution, C untouched. Stats land
  // before any future resolves, so a caller that saw every future of a
  // dispatch complete reads consistent accounting.
  std::vector<Pending> live;
  std::vector<Pending> expired;
  live.reserve(batch.size());
  for (auto& p : batch) {
    (past_deadline(p.req, now) ? expired : live).push_back(std::move(p));
  }
  if (!expired.empty()) {
    o.expired->add(expired.size());
    {
      std::lock_guard lock(mu_);
      stats_.expired += expired.size();
      for (const auto& p : expired) release_probe_locked(p);
    }
    for (auto& p : expired) finish(p, deadline_status(p.req, now));
  }
  if (live.empty()) return;
  // take_same_shape_locked built a same-shape same-dtype batch, so one
  // breaker key covers every live member.
  const common::DType dt = live.front().req.dtype;
  const ShapeKey shape{live.front().req.c.rows, live.front().req.c.cols,
                       live.front().req.a.cols, static_cast<int>(dt)};

  obs::SpanScope span("serve.dispatch",
                      static_cast<std::uint64_t>(live.size()),
                      static_cast<std::uint64_t>(live.front().req.c.rows));

  // Members whose operands conflict (a C feeding another member, or two
  // members sharing an output) cannot run concurrently in one batch;
  // both sides of each conflicting pair demote to single-shot dispatches
  // after the group (sweep-based, shared with validate_batch's check).
  std::vector<BatchItem> items;
  items.reserve(live.size());
  for (const auto& p : live)
    items.push_back(BatchItem{p.req.a, p.req.b, p.req.c, p.req.dtype});
  const std::vector<std::size_t> conflicted =
      find_cross_member_conflicts(items);
  std::vector<std::size_t> grouped, singles;
  for (std::size_t i = 0, c = 0; i < live.size(); ++i) {
    if (c < conflicted.size() && conflicted[c] == i) {
      singles.push_back(i);
      ++c;
    } else {
      grouped.push_back(i);
    }
  }
  if (grouped.size() < 2) {
    singles.insert(singles.begin(), grouped.begin(), grouped.end());
    std::sort(singles.begin(), singles.end());
    grouped.clear();
  }

  // Execute everything, then publish stats, then resolve futures — same
  // ordering rationale as the deadline pass above. Every dispatch, the
  // group and each demoted single, is one prevalidated batch: every member
  // passed validate_batch_item at admission and conflicting members run
  // alone, so the Context's group executor serves both dtypes.
  std::vector<Status> statuses(live.size());
  std::uint64_t ok = 0;
  const auto execute = [&](const std::vector<BatchItem>& batch,
                           std::span<const std::size_t> members) {
    const Status s = failpoint::should_fail("serve.execute")
                         ? exec_failpoint_status()
                         : ctx_.run_batched_prevalidated(batch);
    if (s.ok()) ok += members.size();
    for (std::size_t i : members) statuses[i] = s;
  };
  if (!grouped.empty()) {
    if (!singles.empty()) {
      // `items` holds every live member; the group is a subset.
      items.clear();
      for (std::size_t i : grouped)
        items.push_back(BatchItem{live[i].req.a, live[i].req.b, live[i].req.c,
                                  live[i].req.dtype});
    }
    execute(items, grouped);
    o.batches[static_cast<int>(dt)]->add(1);
    o.dispatched_batched->add(grouped.size());
    o.batch_size->observe(static_cast<double>(grouped.size()));
  }
  std::vector<BatchItem> one(1);
  for (const std::size_t& i : singles) {
    const GemmRequest& r = live[i].req;
    one.front() = BatchItem{r.a, r.b, r.c, r.dtype};
    execute(one, {&i, 1});
  }
  if (!singles.empty()) o.dispatched_single->add(singles.size());
  const std::uint64_t failed = live.size() - ok;
  if (ok > 0) o.completed_ok->add(ok);
  if (failed > 0) o.completed_error->add(failed);
  {
    std::lock_guard lock(mu_);
    stats_.completed_ok += ok;
    stats_.completed_error += failed;
    if (!grouped.empty()) {
      ++stats_.batches;
      stats_.batched_requests += grouped.size();
    }
    stats_.single_dispatches += singles.size();
    const std::uint64_t done_ns = clock_.now_ns();
    for (std::size_t i = 0; i < live.size(); ++i)
      breaker_outcome_locked(shape, statuses[i].ok(), live[i].breaker_probe,
                             done_ns);
    refill_retry_tokens_locked(ok);
  }
  for (std::size_t i = 0; i < live.size(); ++i) finish(live[i], statuses[i]);
}

void Engine::pause() {
  std::lock_guard lock(mu_);
  paused_ = true;
}

void Engine::resume() {
  {
    std::lock_guard lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

EngineState Engine::state() const {
  std::lock_guard lock(mu_);
  return state_;
}

Status Engine::drain(std::uint64_t timeout_ns) {
  std::unique_lock<std::mutex> lock(mu_);
  if (state_ == EngineState::kStopped) return Status::OK();
  if (state_ == EngineState::kRunning) {
    set_state_locked(EngineState::kDraining);
    drain_start_ns_ = clock_.now_ns();
    if (inline_mode() && depth_locked() == 0) drained_ = true;
    cv_.notify_all();
    monitor_cv_.notify_all();  // a wedged dispatcher leaves its wedge
  }
  const std::uint64_t wait_deadline =
      timeout_ns == 0 ? 0 : clock_.now_ns() + timeout_ns;
  while (!drained_) {
    if (dispatcher_dead_ && !monitor_started_) {
      // No monitor will ever respawn the crashed dispatcher: this caller
      // serves the backlog (the dispatcher's crash path wakes us).
      degrade_to_inline_locked(lock);
    } else if (wait_deadline == 0) {
      drain_cv_.wait(lock);
    } else if (clock_.wait_until(drain_cv_, lock, wait_deadline) ==
                   std::cv_status::timeout &&
               !drained_) {
      return DeadlineExceededError(
          "serve: drain timed out with admitted work still pending; the "
          "drain continues — call drain() again or shutdown() to finish");
    }
  }
  if (state_ != EngineState::kStopped) {
    set_state_locked(EngineState::kStopped);
    metrics_->drain_seconds->observe(
        static_cast<double>(clock_.now_ns() - drain_start_ns_) * 1e-9);
    drain_cv_.notify_all();
  }
  lock.unlock();
  join_threads();
  return Status::OK();
}

void Engine::shutdown() {
  {
    std::lock_guard lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
  (void)drain(0);
}

void Engine::join_threads() {
  std::lock_guard jl(join_mu_);
  {
    std::lock_guard lock(mu_);
    monitor_stop_ = true;
  }
  monitor_cv_.notify_all();
  cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
  std::vector<std::thread> doomed;
  {
    std::lock_guard lock(mu_);
    doomed.swap(abandoned_);
  }
  for (auto& t : doomed)
    if (t.joinable()) t.join();
  if (dispatcher_.joinable()) dispatcher_.join();
}

std::size_t Engine::queue_depth() const {
  std::lock_guard lock(mu_);
  return depth_locked();
}

ServerStats Engine::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

}  // namespace autogemm::serve
