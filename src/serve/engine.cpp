#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <system_error>
#include <utility>

#include "common/failpoint.hpp"
#include "common/threadpool.hpp"
#include "common/timer.hpp"
#include "core/batched.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace autogemm::serve {

namespace {

/// Process-wide registry handles, resolved once (handles are stable for
/// the registry's lifetime — same pattern as core/context.cpp).
struct ServeObs {
  obs::Counter* submitted_interactive;
  obs::Counter* submitted_bulk;
  obs::Counter* admitted;
  obs::Counter* rejected_full;
  obs::Counter* rejected_stopped;
  obs::Counter* rejected_draining;
  obs::Counter* rejected_breaker;
  obs::Counter* invalid;
  obs::Counter* shed;
  obs::Counter* expired;
  obs::Counter* completed_ok;
  obs::Counter* completed_error;
  obs::Counter* batches;
  obs::Counter* dispatched_batched;
  obs::Counter* dispatched_single;
  obs::Counter* breaker_open;
  obs::Counter* breaker_half_open;
  obs::Counter* breaker_closed;
  obs::Counter* dispatcher_crash;
  obs::Counter* dispatcher_stall;
  obs::Counter* dispatcher_restart;
  obs::Counter* inline_fallback;
  obs::Counter* retries;
  obs::Counter* retry_budget_exhausted;
  obs::Gauge* queue_depth;
  obs::Gauge* breakers_open;
  obs::Gauge* state;
  obs::Histogram* queue_seconds_interactive;
  obs::Histogram* queue_seconds_bulk;
  obs::Histogram* batch_size;
  obs::Histogram* drain_seconds;
};

ServeObs& serve_obs() {
  static ServeObs h = [] {
    obs::Registry& r = obs::default_registry();
    ServeObs x;
    x.submitted_interactive =
        &r.counter("autogemm_serve_submitted_total{lane=\"interactive\"}");
    x.submitted_bulk =
        &r.counter("autogemm_serve_submitted_total{lane=\"bulk\"}");
    x.admitted = &r.counter("autogemm_serve_admitted_total");
    x.rejected_full =
        &r.counter("autogemm_serve_rejected_total{reason=\"queue_full\"}");
    x.rejected_stopped =
        &r.counter("autogemm_serve_rejected_total{reason=\"stopped\"}");
    x.rejected_draining =
        &r.counter("autogemm_serve_rejected_total{reason=\"draining\"}");
    x.rejected_breaker =
        &r.counter("autogemm_serve_rejected_total{reason=\"breaker\"}");
    x.invalid = &r.counter("autogemm_serve_rejected_total{reason=\"invalid\"}");
    x.shed = &r.counter("autogemm_serve_shed_total");
    x.expired = &r.counter("autogemm_serve_expired_total");
    x.completed_ok =
        &r.counter("autogemm_serve_completed_total{result=\"ok\"}");
    x.completed_error =
        &r.counter("autogemm_serve_completed_total{result=\"error\"}");
    x.batches = &r.counter("autogemm_serve_batches_total");
    x.dispatched_batched =
        &r.counter("autogemm_serve_dispatched_total{mode=\"batched\"}");
    x.dispatched_single =
        &r.counter("autogemm_serve_dispatched_total{mode=\"single\"}");
    x.breaker_open =
        &r.counter("autogemm_serve_breaker_transitions_total{to=\"open\"}");
    x.breaker_half_open = &r.counter(
        "autogemm_serve_breaker_transitions_total{to=\"half_open\"}");
    x.breaker_closed =
        &r.counter("autogemm_serve_breaker_transitions_total{to=\"closed\"}");
    x.dispatcher_crash =
        &r.counter("autogemm_serve_dispatcher_events_total{event=\"crash\"}");
    x.dispatcher_stall =
        &r.counter("autogemm_serve_dispatcher_events_total{event=\"stall\"}");
    x.dispatcher_restart =
        &r.counter("autogemm_serve_dispatcher_events_total{event=\"restart\"}");
    x.inline_fallback = &r.counter("autogemm_serve_inline_fallback_total");
    x.retries = &r.counter("autogemm_serve_retries_total");
    x.retry_budget_exhausted =
        &r.counter("autogemm_serve_retry_budget_exhausted_total");
    x.queue_depth = &r.gauge("autogemm_serve_queue_depth");
    x.breakers_open = &r.gauge("autogemm_serve_breakers_open");
    // 0 = running, 1 = draining, 2 = stopped (EngineState order).
    x.state = &r.gauge("autogemm_serve_state");
    x.queue_seconds_interactive =
        &r.histogram("autogemm_serve_queue_seconds{lane=\"interactive\"}");
    x.queue_seconds_bulk =
        &r.histogram("autogemm_serve_queue_seconds{lane=\"bulk\"}");
    // Batch sizes are small integers; scale 1 keeps the log2 buckets
    // aligned on request counts instead of microseconds.
    x.batch_size = &r.histogram("autogemm_serve_batch_size", /*scale=*/1.0);
    x.drain_seconds = &r.histogram("autogemm_serve_drain_seconds");
    return x;
  }();
  return h;
}

/// Dtype-labeled twin of the batch counter, alongside (never instead of)
/// the unlabeled aggregate: autogemm_serve_batches_total{dtype=...} splits
/// dispatch volume by execution tier, the serving-side mirror of the
/// autogemm_gemm_seconds{shape=,dtype=} latency series in core.
/// Executes one request on its tier: fp32 through the tuned plan path,
/// int8 through the cached-QPackedB quantized path (a serving stream
/// repeats B data pointers per shape, so the quantized packing is built
/// once and hits the packed LRU on every later request).
Status run_request(Context& ctx, const serve::GemmRequest& req) {
  if (req.dtype == common::DType::kI8)
    return ctx.run_const_b_i8(req.a, req.b, req.c);
  return ctx.run(req.a, req.b, req.c);
}

obs::Counter& dtype_batches_counter(common::DType dtype) {
  static std::mutex mu;
  static std::map<common::DType, obs::Counter*>& cache =
      *new std::map<common::DType, obs::Counter*>;
  std::lock_guard lock(mu);
  auto it = cache.find(dtype);
  if (it == cache.end()) {
    obs::Counter& c = obs::default_registry().counter(
        "autogemm_serve_batches_total{dtype=\"" +
        std::string(common::dtype_name(dtype)) + "\"}");
    it = cache.emplace(dtype, &c).first;
  }
  return *it->second;
}

}  // namespace

/// Shard-labeled twins of the key serve metrics. Resolved once per shard
/// index and cached process-wide: two engines serving the same shard label
/// (one fleet torn down, another built) share handles, mirroring how the
/// registry itself deduplicates by name.
struct ShardObs {
  obs::Counter* submitted;
  obs::Counter* admitted;
  obs::Counter* rejected;
  obs::Counter* shed;
  obs::Counter* displaced;
  obs::Counter* expired;
  obs::Counter* completed_ok;
  obs::Counter* completed_error;
  obs::Gauge* queue_depth;
};

namespace {

ShardObs* shard_obs_for(int shard) {
  if (shard < 0) return nullptr;
  static std::mutex mu;
  // Map nodes are stable, so &value survives later insertions; entries
  // live for the process (one per shard label ever seen, bounded).
  static std::map<int, ShardObs> table;
  std::lock_guard lock(mu);
  auto it = table.find(shard);
  if (it != table.end()) return &it->second;
  obs::Registry& r = obs::default_registry();
  const std::string label = "{shard=\"" + std::to_string(shard) + "\"}";
  ShardObs x;
  x.submitted = &r.counter("autogemm_serve_submitted_total" + label);
  x.admitted = &r.counter("autogemm_serve_admitted_total" + label);
  x.rejected = &r.counter("autogemm_serve_rejected_total" + label);
  x.shed = &r.counter("autogemm_serve_shed_total" + label);
  x.displaced = &r.counter("autogemm_serve_displaced_total" + label);
  x.expired = &r.counter("autogemm_serve_expired_total" + label);
  x.completed_ok =
      &r.counter("autogemm_serve_completed_total{result=\"ok\",shard=\"" +
                 std::to_string(shard) + "\"}");
  x.completed_error =
      &r.counter("autogemm_serve_completed_total{result=\"error\",shard=\"" +
                 std::to_string(shard) + "\"}");
  x.queue_depth = &r.gauge("autogemm_serve_queue_depth" + label);
  return &table.emplace(shard, x).first->second;
}

std::chrono::steady_clock::time_point to_time_point(std::uint64_t ns) {
  // common::now_ns() is steady_clock time-since-epoch in nanoseconds, so
  // an absolute ns value converts losslessly to a steady time_point.
  return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns));
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

std::uint64_t Engine::common_now() { return common::now_ns(); }

Engine::Engine(Context& ctx, const EngineOptions& opts)
    : ctx_(ctx),
      opts_([&] {
        EngineOptions o = opts;
        if (o.queue_capacity == 0) o.queue_capacity = 1;
        if (o.max_batch == 0) o.max_batch = 1;
        return o;
      }()),
      shed_watermark_(opts_.shed_watermark != 0
                          ? opts_.shed_watermark
                          : std::max<std::size_t>(
                                1, opts_.queue_capacity * 3 / 4)),
      paused_(opts_.start_paused) {
  shard_obs_ = shard_obs_for(opts_.shard);
  retry_tokens_ = opts_.retry_budget_tokens;
  last_beat_ns_.store(common::now_ns(), std::memory_order_relaxed);
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
  if (!inline_mode() && opts_.supervision_interval_ns > 0) {
    try {
      monitor_ = std::thread([this] { monitor_loop(); });
    } catch (const std::system_error&) {
      // Unsupervised but serving: a dispatcher crash now strands its
      // queue exactly as before supervision existed. drain() still
      // recovers (it detects the dead dispatcher itself).
    }
  }
  {
    std::lock_guard lock(mu_);
    publish_state_locked();
  }
  if (opts_.enable_online_tuner) {
    // Constructed last so the tuner's background thread never observes a
    // half-built engine. The feed reads shape_requests_ under mu_; the
    // tuner applies its own top_k, so the feed hands over the full
    // ranking.
    tune::OnlineTunerOptions topts = opts_.tuner;
    topts.start_paused = topts.start_paused || opts_.start_paused;
    tuner_ = std::make_unique<tune::OnlineTuner>(
        ctx_, [this] { return hot_shapes(); }, topts);
  }
}

Engine::~Engine() { shutdown(); }

std::vector<tune::HotShape> Engine::hot_shapes(std::size_t limit) const {
  std::vector<tune::HotShape> out;
  {
    std::lock_guard lock(mu_);
    // Buckets key on (m, n, k, dtype); the tuner prices *shapes*, so a
    // shape's fp32 and int8 traffic counts as one bucket here. The map is
    // ordered, so all dtypes of one shape are adjacent.
    out.reserve(shape_requests_.size());
    for (const auto& [key, count] : shape_requests_) {
      if (!out.empty() && out.back().m == std::get<0>(key) &&
          out.back().n == std::get<1>(key) && out.back().k == std::get<2>(key)) {
        out.back().requests += count;
      } else {
        out.push_back(tune::HotShape{std::get<0>(key), std::get<1>(key),
                                     std::get<2>(key), count});
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const tune::HotShape& a, const tune::HotShape& b) {
                     return a.requests > b.requests;
                   });
  if (limit != 0 && out.size() > limit) out.resize(limit);
  return out;
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
  ServeObs& o = serve_obs();
  obs::SpanScope span("serve.submit",
                      static_cast<std::uint64_t>(std::max(0, req.c.rows)),
                      static_cast<std::uint64_t>(std::max(0, req.c.cols)));
  (req.lane == Lane::kInteractive ? o.submitted_interactive : o.submitted_bulk)
      ->add(1);
  if (shard_obs_ != nullptr) shard_obs_->submitted->add(1);

  Pending p;
  p.req = req;
  std::future<Status> fut;
  if (done == nullptr) {
    p.promise.emplace();
    fut = p.promise->get_future();
  } else {
    p.callback = std::move(done);
  }

  // Validation happens at admission so a malformed request never occupies
  // a queue slot (and its error surfaces immediately, not a batch window
  // later).
  Status valid = validate_batch_item(BatchItem{req.a, req.b, req.c});
  if (valid.ok() && req.dtype != common::DType::kF32 &&
      req.dtype != common::DType::kI8) {
    valid = InvalidArgumentError(
        std::string("serve: unsupported request dtype \"") +
        common::dtype_name(req.dtype) + "\" (servable tiers: f32, i8)");
  }
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
    } else if ((braked = breaker_admission_locked(shape, common::now_ns(),
                                                  &probe))
                   .has_value()) {
      // Open circuit breaker: fast-fail without occupying a queue slot.
      ++stats_.rejected;
      ++stats_.breaker_rejected;
      reject = *braked;
      reject_counter = o.rejected_breaker;
    } else if (inline_mode()) {
      ++stats_.admitted;
      ++shape_requests_[shape];
      o.admitted->add(1);
      if (shard_obs_ != nullptr) shard_obs_->admitted->add(1);
      p.breaker_probe = probe;
      run_inline = true;
    } else {
      p.breaker_probe = probe;
      bool full = depth_locked() >= opts_.queue_capacity;
      if (!full && failpoint::should_fail("serve.queue_full")) full = true;
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
        ++shape_requests_[shape];
        o.admitted->add(1);
        if (shard_obs_ != nullptr) shard_obs_->admitted->add(1);
        p.enqueue_ns = common::now_ns();
        (req.lane == Lane::kInteractive ? interactive_ : bulk_)
            .push_back(std::move(p));
        stats_.max_queue_depth =
            std::max<std::uint64_t>(stats_.max_queue_depth, depth_locked());
        publish_depth_locked();
      }
    }
  }
  if (have_victim) {
    o.shed->add(1);
    if (shard_obs_ != nullptr) {
      shard_obs_->shed->add(1);
      shard_obs_->displaced->add(1);
    }
    finish(victim, shed_status());
  }
  if (reject_counter != nullptr) {
    reject_counter->add(1);
    if (shard_obs_ != nullptr) shard_obs_->rejected->add(1);
    finish(p, reject);
    return fut;
  }
  if (run_inline) {
    const std::uint64_t now = common::now_ns();
    Status s;
    if (past_deadline(req, now)) {
      s = deadline_status(req, now);
      o.expired->add(1);
      if (shard_obs_ != nullptr) shard_obs_->expired->add(1);
      std::lock_guard lock(mu_);
      ++stats_.expired;
      release_probe_locked(p);
    } else {
      if (failpoint::should_fail("serve.execute")) {
        s = exec_failpoint_status();
      } else {
        s = run_request(ctx_, req);
      }
      o.dispatched_single->add(1);
      (s.ok() ? o.completed_ok : o.completed_error)->add(1);
      if (shard_obs_ != nullptr)
        (s.ok() ? shard_obs_->completed_ok : shard_obs_->completed_error)
            ->add(1);
      std::lock_guard lock(mu_);
      ++stats_.single_dispatches;
      ++(s.ok() ? stats_.completed_ok : stats_.completed_error);
      breaker_outcome_locked(shape, s.ok(), p.breaker_probe,
                             common::now_ns());
      if (s.ok()) refill_retry_tokens_locked(1);
    }
    finish(p, s);
    return fut;
  }
  cv_.notify_one();
  return fut;
}

Status Engine::submit_with_retry(const GemmRequest& req,
                                 const RetryPolicy& policy) {
  ServeObs& o = serve_obs();
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
    if (req.deadline_ns != 0 && common::now_ns() + delay >= req.deadline_ns)
      return last;  // the retried attempt would expire anyway
    if (!try_spend_retry_token()) {
      {
        std::lock_guard lock(mu_);
        ++stats_.retry_budget_exhausted;
      }
      o.retry_budget_exhausted->add(1);
      return last;
    }
    {
      std::lock_guard lock(mu_);
      ++stats_.retries;
    }
    o.retries->add(1);
    if (delay > 0)
      std::this_thread::sleep_for(std::chrono::nanoseconds(delay));
    backoff = static_cast<std::uint64_t>(std::min(
        static_cast<double>(policy.max_backoff_ns),
        std::max(1.0,
                 static_cast<double>(backoff) * policy.backoff_multiplier)));
  }
}

bool Engine::try_spend_retry_token() {
  if (opts_.retry_budget_tokens <= 0) return true;  // budget disabled
  std::lock_guard lock(mu_);
  if (retry_tokens_ < 1.0) return false;
  retry_tokens_ -= 1.0;
  return true;
}

void Engine::refill_retry_tokens_locked(std::uint64_t completions) {
  if (opts_.retry_budget_tokens <= 0) return;
  retry_tokens_ =
      std::min(opts_.retry_budget_tokens,
               retry_tokens_ + opts_.retry_token_ratio *
                                   static_cast<double>(completions));
}

std::optional<Status> Engine::breaker_admission_locked(const ShapeKey& key,
                                                       std::uint64_t now,
                                                       bool* probe) {
  if (opts_.breaker_failure_threshold == 0) return std::nullopt;
  auto it = breakers_.find(key);
  if (it == breakers_.end()) return std::nullopt;
  Breaker& b = it->second;
  if (b.st == Breaker::St::kOpen) {
    if (now - b.opened_ns < opts_.breaker_cooldown_ns) {
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
  ServeObs& o = serve_obs();
  if (b.st == Breaker::St::kOpen && breakers_open_ > 0) --breakers_open_;
  b.st = to;
  switch (to) {
    case Breaker::St::kOpen:
      ++breakers_open_;
      b.opened_ns = now;
      b.probe_in_flight = false;
      ++stats_.breaker_opens;
      o.breaker_open->add(1);
      break;
    case Breaker::St::kHalfOpen:
      b.probe_in_flight = false;
      o.breaker_half_open->add(1);
      break;
    case Breaker::St::kClosed:
      b.consecutive_failures = 0;
      b.probe_in_flight = false;
      o.breaker_closed->add(1);
      break;
  }
  o.breakers_open->set(static_cast<double>(breakers_open_));
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

void Engine::publish_depth_locked() {
  const double depth = static_cast<double>(depth_locked());
  serve_obs().queue_depth->set(depth);
  if (shard_obs_ != nullptr) shard_obs_->queue_depth->set(depth);
}

void Engine::publish_state_locked() {
  serve_obs().state->set(static_cast<double>(static_cast<int>(state_)));
}

void Engine::dispatcher_loop(std::uint64_t gen) {
  // Placement hint only: a respawned dispatcher re-pins itself, and a
  // host without the assigned CPUs just leaves the thread unpinned.
  if (!opts_.affinity_cpus.empty())
    common::pin_current_thread(opts_.affinity_cpus);
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
    serve_obs().dispatcher_crash->add(1);
    monitor_cv_.notify_all();
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
      // around.
      lock.unlock();
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(opts_.stall_inject_ns));
      lock.lock();
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
        serve_obs().shed->add(victims.size());
        if (shard_obs_ != nullptr) shard_obs_->shed->add(victims.size());
        for (auto& v : victims) finish(v, shed_status());
        lock.lock();
        continue;
      }
    }

    // Lane pick: interactive first, unless the bulk head has aged past
    // the starvation bound (bulk_aging_ns == 0 means bulk never waits
    // behind interactive).
    std::deque<Pending>* lane = &interactive_;
    if (interactive_.empty()) {
      lane = &bulk_;
    } else if (!bulk_.empty()) {
      const std::uint64_t age = common::now_ns() - bulk_.front().enqueue_ns;
      if (age >= opts_.bulk_aging_ns) lane = &bulk_;
    }
    std::vector<Pending> batch;
    batch.push_back(std::move(lane->front()));
    lane->pop_front();

    const GemmRequest& seed = batch.front().req;
    const int m = seed.c.rows, n = seed.c.cols, k = seed.a.cols;
    const common::DType dt = seed.dtype;
    take_same_shape_locked(m, n, k, dt, &batch);

    if (!draining && opts_.max_batch_delay_ns > 0 &&
        batch.size() < opts_.max_batch) {
      // Hold the group open for late same-shape arrivals, but never past
      // the earliest member deadline (a full window that expires its own
      // members would be self-defeating).
      obs::SpanScope window_span("serve.batch",
                                 static_cast<std::uint64_t>(m) * n,
                                 static_cast<std::uint64_t>(batch.size()));
      std::uint64_t wait_end = common::now_ns() + opts_.max_batch_delay_ns;
      for (const auto& p : batch)
        if (p.req.deadline_ns != 0 && p.req.deadline_ns < wait_end)
          wait_end = p.req.deadline_ns;
      while (batch.size() < opts_.max_batch &&
             state_ == EngineState::kRunning && gen == dispatcher_gen_) {
        if (cv_.wait_until(lock, to_time_point(wait_end)) ==
            std::cv_status::timeout) {
          take_same_shape_locked(m, n, k, dt, &batch);
          break;
        }
        take_same_shape_locked(m, n, k, dt, &batch);
      }
    }
    publish_depth_locked();
    dispatch_active_ = true;  // the monitor must not abandon us mid-GEMM
    beat();
    lock.unlock();
    try {
      dispatch(std::move(batch));
    } catch (...) {
      // dispatch() completes each member as it goes; nothing to repair
      // here beyond not letting an exception kill the dispatcher. (The
      // Context entry points return Status rather than throwing; this
      // guards allocation failure in the dispatch bookkeeping itself.)
    }
    lock.lock();
    dispatch_active_ = false;
    beat();
    if (gen != dispatcher_gen_) return;  // superseded while dispatching
  }
}

void Engine::monitor_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  const auto interval = std::chrono::nanoseconds(
      std::max<std::uint64_t>(1, opts_.supervision_interval_ns));
  for (;;) {
    monitor_cv_.wait_for(lock, interval, [&] {
      return monitor_stop_ || dispatcher_dead_;
    });
    if (monitor_stop_) return;
    if (drained_ || inline_mode()) return;  // nothing left to supervise
    const std::uint64_t now = common::now_ns();
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
          now > beat_ns && now - beat_ns > opts_.heartbeat_timeout_ns)
        stall = true;
    }
    if (!crash && !stall) continue;
    ServeObs& o = serve_obs();
    if (stall) {
      ++stats_.dispatcher_stalls;
      o.dispatcher_stall->add(1);
      // Supersede the wedged thread: it observes the generation bump at
      // its next lock acquisition and exits; the handle parks in
      // abandoned_ and is joined at shutdown — never detached.
      ++dispatcher_gen_;
      dispatcher_alive_ = false;
      if (dispatcher_.joinable()) abandoned_.push_back(std::move(dispatcher_));
      cv_.notify_all();
    }
    dispatcher_dead_ = false;
    if (restarts_used_ >= opts_.max_dispatcher_restarts) {
      degrade_to_inline_locked(lock);
      return;
    }
    // Exponential backoff between respawns: a dispatcher that dies on
    // arrival (e.g. a persistently armed crash failpoint) must not spin
    // the monitor.
    std::uint64_t backoff = opts_.restart_backoff_ns;
    for (std::uint32_t i = 0;
         i < restarts_used_ && backoff < opts_.restart_backoff_max_ns; ++i)
      backoff *= 2;
    backoff = std::min(backoff, opts_.restart_backoff_max_ns);
    ++restarts_used_;
    if (backoff > 0) {
      monitor_cv_.wait_for(lock, std::chrono::nanoseconds(backoff),
                           [&] { return monitor_stop_; });
      if (monitor_stop_) return;
    }
    ++dispatcher_gen_;
    const std::uint64_t gen = dispatcher_gen_;
    // A crashed thread has already exited; reclaim its handle before
    // reusing the slot (a stalled one was parked in abandoned_ above).
    if (dispatcher_.joinable()) dispatcher_.join();
    last_beat_ns_.store(common::now_ns(), std::memory_order_relaxed);
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

void Engine::degrade_to_inline_locked(std::unique_lock<std::mutex>& lock) {
  ServeObs& o = serve_obs();
  // Restart budget exhausted (or respawn impossible): from here on every
  // submission executes synchronously on its caller's thread. inline_ is
  // set under mu_, so no request can slip into the queue afterwards.
  inline_.store(true, std::memory_order_relaxed);
  o.inline_fallback->add(1);
  ++dispatcher_gen_;  // no dispatcher owns the queue anymore
  dispatcher_alive_ = false;
  dispatcher_dead_ = false;
  if (dispatcher_.joinable()) abandoned_.push_back(std::move(dispatcher_));
  cv_.notify_all();
  // Drain the backlog on this thread, batch by shape like the dispatcher
  // would — no admitted request is stranded by the degradation.
  while (!interactive_.empty() || !bulk_.empty()) {
    std::deque<Pending>& lane = !interactive_.empty() ? interactive_ : bulk_;
    std::vector<Pending> batch;
    batch.push_back(std::move(lane.front()));
    lane.pop_front();
    const GemmRequest& seed = batch.front().req;
    take_same_shape_locked(seed.c.rows, seed.c.cols, seed.a.cols, seed.dtype,
                           &batch);
    publish_depth_locked();
    lock.unlock();
    try {
      dispatch(std::move(batch));
    } catch (...) {
    }
    lock.lock();
  }
  publish_depth_locked();
  drained_ = true;  // queue empty and no dispatcher will ever serve again
  drain_cv_.notify_all();
}

void Engine::dispatch(std::vector<Pending> batch) {
  ServeObs& o = serve_obs();
  const std::uint64_t now = common::now_ns();
  for (const auto& p : batch) {
    obs::Histogram* h = p.req.lane == Lane::kInteractive
                            ? o.queue_seconds_interactive
                            : o.queue_seconds_bulk;
    h->observe(static_cast<double>(now - p.enqueue_ns) * 1e-9);
  }

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
    if (shard_obs_ != nullptr) shard_obs_->expired->add(expired.size());
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
    items.push_back(BatchItem{p.req.a, p.req.b, p.req.c});
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
  // ordering rationale as the deadline pass above.
  std::vector<Status> statuses(live.size());
  std::uint64_t ok = 0, failed = 0;
  if (!grouped.empty()) {
    if (dt == common::DType::kI8) {
      // Quantized group: there is no run_batched for the int8 tier, but
      // the group still amortizes — every member hits the same cached
      // QPackedB (packed on the first request of this B pointer), so the
      // per-member cost is quantize-A plus the widening kernel.
      for (std::size_t i : grouped) {
        if (failpoint::should_fail("serve.execute")) {
          statuses[i] = exec_failpoint_status();
        } else {
          statuses[i] =
              ctx_.run_const_b_i8(live[i].req.a, live[i].req.b, live[i].req.c);
        }
        (statuses[i].ok() ? o.completed_ok : o.completed_error)->add(1);
        ++(statuses[i].ok() ? ok : failed);
      }
    } else {
      if (singles.empty()) {
        // The common path: the whole dispatch is one group; `items` is
        // already exactly it.
      } else {
        items.clear();
        for (std::size_t i : grouped)
          items.push_back(
              BatchItem{live[i].req.a, live[i].req.b, live[i].req.c});
      }
      // Prevalidated: every member passed validate_batch_item at admission
      // and conflict-swept members were demoted to singles above.
      Status s;
      if (failpoint::should_fail("serve.execute")) {
        s = exec_failpoint_status();
      } else {
        s = ctx_.run_batched_prevalidated(items);
      }
      (s.ok() ? o.completed_ok : o.completed_error)->add(grouped.size());
      (s.ok() ? ok : failed) += grouped.size();
      for (std::size_t i : grouped) statuses[i] = s;
    }
    o.batches->add(1);
    dtype_batches_counter(dt).add(1);
    o.dispatched_batched->add(grouped.size());
    o.batch_size->observe(static_cast<double>(grouped.size()));
  }
  for (std::size_t i : singles) {
    if (failpoint::should_fail("serve.execute")) {
      statuses[i] = exec_failpoint_status();
    } else {
      statuses[i] = run_request(ctx_, live[i].req);
    }
    o.dispatched_single->add(1);
    (statuses[i].ok() ? o.completed_ok : o.completed_error)->add(1);
    ++(statuses[i].ok() ? ok : failed);
  }
  if (shard_obs_ != nullptr) {
    if (ok > 0) shard_obs_->completed_ok->add(ok);
    if (failed > 0) shard_obs_->completed_error->add(failed);
  }
  {
    std::lock_guard lock(mu_);
    stats_.completed_ok += ok;
    stats_.completed_error += failed;
    if (!grouped.empty()) {
      ++stats_.batches;
      stats_.batched_requests += grouped.size();
    }
    stats_.single_dispatches += singles.size();
    const std::uint64_t done_ns = common::now_ns();
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
  ServeObs& o = serve_obs();
  // Tuner first, and without mu_ held: pause() blocks until any in-flight
  // tuning cycle parks, and that cycle's hot-shape feed takes mu_ itself.
  // A parked tuner cannot publish mid-drain, preserving the lifecycle
  // invariant that nothing mutates plan resolution while the backlog
  // finishes.
  if (tuner_ != nullptr) tuner_->pause();
  std::unique_lock<std::mutex> lock(mu_);
  if (state_ == EngineState::kStopped) return Status::OK();
  if (state_ == EngineState::kRunning) {
    state_ = EngineState::kDraining;
    drain_start_ns_ = common::now_ns();
    publish_state_locked();
    if (inline_mode() && depth_locked() == 0) drained_ = true;
    cv_.notify_all();
  }
  if (dispatcher_dead_ && !drained_ && opts_.supervision_interval_ns == 0) {
    // Supervision is disabled (the A/B hook) and the dispatcher died:
    // nobody else will serve the backlog, so this caller does.
    degrade_to_inline_locked(lock);
  }
  const std::uint64_t wait_deadline =
      timeout_ns == 0 ? 0 : common::now_ns() + timeout_ns;
  while (!drained_) {
    if (wait_deadline == 0) {
      drain_cv_.wait(lock);
    } else if (drain_cv_.wait_until(lock, to_time_point(wait_deadline)) ==
                   std::cv_status::timeout &&
               !drained_) {
      return DeadlineExceededError(
          "serve: drain timed out with admitted work still pending; the "
          "drain continues — call drain() again or shutdown() to finish");
    }
  }
  if (state_ != EngineState::kStopped) {
    state_ = EngineState::kStopped;
    publish_state_locked();
    o.drain_seconds->observe(
        static_cast<double>(common::now_ns() - drain_start_ns_) * 1e-9);
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
  // Stop (join) the tuner before the engine's own threads: its thread is
  // the only one that can still reach ctx_ through the engine. The object
  // survives so online_tuner()->stats() stays valid after shutdown.
  if (tuner_ != nullptr) tuner_->stop();
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
