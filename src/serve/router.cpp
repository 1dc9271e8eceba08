#include "serve/router.hpp"

#include <algorithm>
#include <string>
#include <system_error>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"

namespace autogemm::serve {

StatusOr<std::unique_ptr<ShardedEngine>> ShardedEngine::create(
    const ShardedEngineOptions& opts) {
  std::unique_ptr<ShardedEngine> se(new ShardedEngine());
  se->opts_ = opts;
  const std::size_t shards = std::max<std::size_t>(1, opts.shards);
  se->opts_.shards = shards;

  se->contexts_.reserve(shards);
  se->engines_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    EngineOptions eopts = opts.worker;
    eopts.shard = static_cast<int>(i);
    try {
      se->contexts_.push_back(std::make_unique<Context>(opts.context));
    } catch (const std::exception& e) {
      return Status(StatusCode::kInvalidArgument,
                    std::string("sharded serve: shard context construction "
                                "failed: ") +
                        e.what());
    }
    se->engines_.push_back(
        std::make_unique<Engine>(*se->contexts_.back(), eopts));
  }

  if (opts.enable_online_tuner) {
    // One tuner, bound to shard 0's context, fed by the merged per-shard
    // accounting; promotions fan out to the sibling contexts through the
    // on_promote hook so every shard executes the searched config. The
    // raw pointer captures are safe: the tuner is stopped (thread joined)
    // before engines_/contexts_ are destroyed.
    ShardedEngine* raw = se.get();
    tune::OnlineTunerOptions topts = opts.tuner;
    topts.start_paused = topts.start_paused || opts.worker.start_paused;
    topts.on_promote = [raw](int m, int n, int k,
                             const tune::Candidate& best, double cost) {
      for (std::size_t i = 1; i < raw->contexts_.size(); ++i)
        (void)raw->contexts_[i]->publish_record(m, n, k, best, cost);
    };
    se->tuner_ = std::make_unique<tune::OnlineTuner>(
        *se->contexts_[0], [raw] { return raw->hot_shapes(); }, topts);
  }
  return se;
}

ShardedEngine::~ShardedEngine() { shutdown(); }

std::size_t ShardedEngine::shard_for(int m, int n, int k) const {
  // FNV-1a over the little-endian bytes of (m, n, k). Stable across runs,
  // platforms and shard teardown — the determinism contract routing tests
  // pin down.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      h ^= (v >> (8 * b)) & 0xFFu;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint32_t>(m));
  mix(static_cast<std::uint32_t>(n));
  mix(static_cast<std::uint32_t>(k));
  // Avalanche before the modulo (the murmur3 finalizer): raw FNV-1a's low
  // bit is just the XOR of the inputs' low bits, so `h % 2` would route
  // every all-even shape mix — common in GEMM traffic — onto one shard.
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ull;
  h ^= h >> 33;
  return static_cast<std::size_t>(h % engines_.size());
}

std::size_t ShardedEngine::route(const GemmRequest& req) {
  static obs::Counter& routed =
      obs::default_registry().counter("autogemm_serve_routed_total");
  static obs::Counter& steals =
      obs::default_registry().counter("autogemm_serve_steals_total");
  routed_.fetch_add(1, std::memory_order_relaxed);
  routed.add(1);
  const std::size_t home = shard_for(req.c.rows, req.c.cols, req.a.cols);
  if (engines_.size() < 2 || opts_.steal_imbalance_ratio <= 0) return home;
  const std::size_t home_depth = engines_[home]->queue_depth();
  if (home_depth < opts_.steal_min_depth) return home;
  std::size_t best = home;
  std::size_t best_depth = home_depth;
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    if (i == home) continue;
    const std::size_t d = engines_[i]->queue_depth();
    if (d < best_depth) {
      best = i;
      best_depth = d;
    }
  }
  if (best == home) return home;
  // Imbalance test on +1-shifted depths so an empty victim queue still
  // yields a finite ratio. One diversion per request, to the single
  // least-loaded shard — bounded by construction.
  if (static_cast<double>(home_depth + 1) <
      opts_.steal_imbalance_ratio * static_cast<double>(best_depth + 1))
    return home;
  steals_.fetch_add(1, std::memory_order_relaxed);
  steals.add(1);
  return best;
}

std::future<Status> ShardedEngine::submit(const GemmRequest& req) {
  return engines_[route(req)]->submit(req);
}

void ShardedEngine::submit(const GemmRequest& req,
                           std::function<void(Status)> done) {
  engines_[route(req)]->submit(req, std::move(done));
}

Status ShardedEngine::submit_with_retry(const GemmRequest& req,
                                        const RetryPolicy& policy) {
  return engines_[route(req)]->submit_with_retry(req, policy);
}

void ShardedEngine::pause() {
  for (auto& e : engines_) e->pause();
}

void ShardedEngine::resume() {
  for (auto& e : engines_) e->resume();
}

Status ShardedEngine::drain(std::uint64_t timeout_ns) {
  // Tuner first, and before any shard lock is taken: pause() blocks until
  // an in-flight cycle parks, and that cycle's hot-shape feed takes every
  // shard's lock. A parked tuner cannot publish mid-drain into any shard.
  if (tuner_ != nullptr) tuner_->pause();
  std::vector<Status> results(engines_.size(), Status::OK());
  std::vector<std::thread> drainers;
  drainers.reserve(engines_.size());
  std::size_t spawned = 0;
  for (std::size_t i = 1; i < engines_.size(); ++i) {
    try {
      drainers.emplace_back(
          [this, i, timeout_ns, &results] {
            results[i] = engines_[i]->drain(timeout_ns);
          });
      ++spawned;
    } catch (const std::system_error&) {
      break;  // drain the rest sequentially below
    }
  }
  results[0] = engines_[0]->drain(timeout_ns);
  for (auto& t : drainers) t.join();
  // Shards a failed thread-spawn left out drain on this thread (their
  // siblings' drains already consumed wall-clock, so a shared timeout is
  // approximate here — the unbounded case, the common one, is exact).
  for (std::size_t i = 1 + spawned; i < engines_.size(); ++i)
    results[i] = engines_[i]->drain(timeout_ns);
  for (const Status& s : results)
    if (!s.ok()) return s;
  return Status::OK();
}

void ShardedEngine::shutdown() {
  // Tuner first: its thread is the only one reaching into sibling
  // contexts (on_promote fan-out) and the merged hot-shape feed. Both the
  // tuner stop and the per-engine shutdowns are idempotent.
  if (tuner_ != nullptr) tuner_->stop();
  for (auto& e : engines_) e->shutdown();
}

ShardedStats ShardedEngine::stats() const {
  ShardedStats out;
  out.shards.reserve(engines_.size());
  for (const auto& e : engines_) {
    out.shards.push_back(e->stats());
    out.aggregate.merge_from(out.shards.back());
  }
  out.steals = steals_.load(std::memory_order_relaxed);
  out.routed = routed_.load(std::memory_order_relaxed);
  return out;
}

std::size_t ShardedEngine::queue_depth() const {
  std::size_t total = 0;
  for (const auto& e : engines_) total += e->queue_depth();
  return total;
}

std::size_t ShardedEngine::inline_shards() const {
  std::size_t n = 0;
  for (const auto& e : engines_)
    if (e->inline_mode()) ++n;
  return n;
}

std::vector<tune::HotShape> ShardedEngine::hot_shapes(
    std::size_t limit) const {
  std::vector<std::vector<tune::HotShape>> feeds;
  feeds.reserve(engines_.size());
  for (const auto& e : engines_) feeds.push_back(e->hot_shapes());
  return tune::merge_hot_shapes(feeds, limit);
}

}  // namespace autogemm::serve
