#include "core/context.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "backend/backend.hpp"
#include "common/failpoint.hpp"
#include "common/reference_gemm.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "quant/qgemm.hpp"
#include "quant/qpacked.hpp"

namespace autogemm {

namespace {

using common::ConstMatrixView;
using common::MatrixView;

constexpr std::size_t kMaxHealthEvents = 64;
/// Probe depth (K) for first-use verification.
constexpr int kProbeKc = 8;

tune::TuningRecords load_records_or_throw(const std::string& path,
                                          std::uint64_t* skipped) {
  tune::TuningRecords records;
  if (path.empty()) return records;
  tune::TuningRecords::LoadReport report;
  const Status s = records.load_file(path, &report);
  // kDataLoss means valid records were salvaged around corrupt lines —
  // that is a degraded load (reported through health()), not a dead
  // context. Anything else (unreadable file, unknown format version)
  // leaves nothing usable, so the constructor contract stays throwing.
  if (!s.ok() && s.code() != StatusCode::kDataLoss)
    throw std::runtime_error("Context: cannot read records file: " + path +
                             " (" + s.to_string() + ")");
  *skipped = report.skipped;
  return records;
}

ContextOptions sanitized(ContextOptions opts) {
  if (opts.plan_capacity == 0) opts.plan_capacity = 1;
  if (opts.packed_capacity == 0) opts.packed_capacity = 1;
  return opts;
}

/// C += alpha * op(A) * op(B), double accumulation — the bottom tier of the
/// degradation ladder. beta must already be applied to C. Allocates
/// nothing and touches only the caller's buffers, so it cannot itself
/// fault.
void accumulate_reference(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                          const GemmExParams& params) {
  const bool ta = params.trans_a == Trans::kYes;
  const bool tb = params.trans_b == Trans::kYes;
  const int k = ta ? a.rows : a.cols;
  for (int i = 0; i < c.rows; ++i) {
    for (int j = 0; j < c.cols; ++j) {
      double acc = 0;
      for (int p = 0; p < k; ++p) {
        const float av = ta ? a.at(p, i) : a.at(i, p);
        const float bv = tb ? b.at(j, p) : b.at(p, j);
        acc += static_cast<double>(av) * bv;
      }
      c.at(i, j) = static_cast<float>(c.at(i, j) + params.alpha * acc);
    }
  }
}

/// Deterministic small-magnitude fill for probe operands.
void fill_probe(std::vector<float>& buf, unsigned seed) {
  unsigned s = seed * 2654435761u + 1u;
  for (auto& x : buf) {
    s = s * 1664525u + 1013904223u;
    x = static_cast<float>((s >> 8) & 0xFFFF) / 65536.0f - 0.5f;
  }
}

std::string shape_string(int m, int n, int k) {
  return std::to_string(m) + "x" + std::to_string(n) + "x" + std::to_string(k);
}

/// The first-use probe: runs every distinct (rows x cols, kernel) the plan
/// resolved for its tiles — the same kernels::TileKernel the executor's
/// run_block calls — on deterministic operands of depth kc into a zeroed C,
/// and compares C with common::reference_gemm.
Status probe_host_kernels(const Plan& plan, int kc) {
  using Probed = std::tuple<int, int, kernels::MicroKernelFn,
                            kernels::MaskedKernelFn>;
  std::set<Probed> seen;
  for (const auto& [shape, block] : plan.blocks()) {
    if (block.tiling.tiles.empty())
      return InternalError("probe: tiling produced no tiles for block " +
                           shape_string(shape[0], shape[1], shape[2]));
    for (std::size_t i = 0; i < block.tiling.tiles.size(); ++i) {
      const int rows = block.tiling.tiles[i].rows_used;
      const int cols = block.tiling.tiles[i].cols_used;
      const kernels::TileKernel& tk = block.kernels[i];
      if (!seen.emplace(rows, cols, tk.exact, tk.masked).second) continue;
      std::vector<float> a(static_cast<std::size_t>(rows) * kc);
      std::vector<float> b(static_cast<std::size_t>(kc) * cols);
      std::vector<float> c(static_cast<std::size_t>(rows) * cols, 0.0f);
      std::vector<float> c_ref(c.size(), 0.0f);
      fill_probe(a, 31);
      fill_probe(b, 43);
      tk.run(rows, cols, a.data(), kc, b.data(), cols, c.data(), cols, kc);
      common::reference_gemm(ConstMatrixView{a.data(), rows, kc, kc},
                             ConstMatrixView{b.data(), kc, cols, cols},
                             MatrixView{c_ref.data(), rows, cols, cols});
      const float tol = 1e-4f * static_cast<float>(kc);
      for (std::size_t j = 0; j < c.size(); ++j) {
        const float diff = std::fabs(c[j] - c_ref[j]);
        if (!(diff <= tol))  // negated comparison so NaN fails too
          return InternalError("probe: host " + std::to_string(rows) + "x" +
                               std::to_string(cols) +
                               " kernel diverges from reference (|diff| = " +
                               std::to_string(diff) + ")");
      }
    }
  }
  return Status::OK();
}

std::string config_string(const GemmConfig& cfg) {
  return "{mc=" + std::to_string(cfg.mc) + " nc=" + std::to_string(cfg.nc) +
         " kc=" + std::to_string(cfg.kc) + " order=" +
         loop_order_name(cfg.loop_order) + "}";
}

/// Process-wide registry handles, resolved once. Per-context snapshots stay
/// on stats_/health_ (tests depend on counts-from-zero per context); these
/// aggregate the same events across every context in the process.
struct ObsHandles {
  obs::Counter* calls;
  obs::Counter* failures;
  obs::Counter* flops;
  obs::Counter* plan_hits;
  obs::Counter* plan_misses;
  obs::Counter* plan_evictions;
  obs::Counter* packed_hits;
  obs::Counter* packed_misses;
  obs::Counter* packed_evictions;
  obs::Counter* packed_invalidations;
  obs::Counter* plan_invalidations;
  obs::Counter* resolved_exact;
  obs::Counter* resolved_nearest;
  obs::Counter* resolved_heuristic;
  obs::Counter* probe_failures;
};

ObsHandles& obs_handles() {
  static ObsHandles h = [] {
    obs::Registry& r = obs::default_registry();
    ObsHandles x;
    x.calls = &r.counter("autogemm_gemm_calls_total");
    x.failures = &r.counter("autogemm_gemm_failures_total");
    x.flops = &r.counter("autogemm_gemm_flops_total");
    x.plan_hits = &r.counter("autogemm_plan_cache_hits_total");
    x.plan_misses = &r.counter("autogemm_plan_cache_misses_total");
    x.plan_evictions = &r.counter("autogemm_plan_cache_evictions_total");
    x.packed_hits = &r.counter("autogemm_packed_cache_hits_total");
    x.packed_misses = &r.counter("autogemm_packed_cache_misses_total");
    x.packed_evictions = &r.counter("autogemm_packed_cache_evictions_total");
    x.packed_invalidations =
        &r.counter("autogemm_packed_cache_invalidations_total");
    x.plan_invalidations =
        &r.counter("autogemm_plan_cache_invalidations_total");
    x.resolved_exact =
        &r.counter("autogemm_plan_resolved_total{source=\"exact\"}");
    x.resolved_nearest =
        &r.counter("autogemm_plan_resolved_total{source=\"nearest\"}");
    x.resolved_heuristic =
        &r.counter("autogemm_plan_resolved_total{source=\"heuristic\"}");
    x.probe_failures = &r.counter("autogemm_verify_probe_failures_total");
    return x;
  }();
  return h;
}

/// Backend-labeled series: autogemm_backend_dispatch_total{backend=...}
/// counts every plan-driven execution a context dispatches under a
/// backend, and the strategy/probe families carry the backend label so
/// NEON and simulated-SVE traffic is separable in one process (read a
/// family's total with obs::Registry::counter_total).
struct BackendObs {
  obs::Counter* dispatch;
  obs::Counter* probes;
  obs::Counter* strategy_serial;
  obs::Counter* strategy_blocks;
  obs::Counter* strategy_ksplit;
};

const BackendObs& backend_obs(backend::BackendId id) {
  static std::mutex mu;
  static std::map<backend::BackendId, BackendObs>& cache =
      *new std::map<backend::BackendId, BackendObs>;
  std::lock_guard lock(mu);
  auto it = cache.find(id);
  if (it == cache.end()) {
    obs::Registry& r = obs::default_registry();
    const std::string bn(backend_name(id));
    BackendObs x;
    x.dispatch =
        &r.counter("autogemm_backend_dispatch_total{backend=\"" + bn + "\"}");
    x.probes =
        &r.counter("autogemm_verify_probes_total{backend=\"" + bn + "\"}");
    x.strategy_serial = &r.counter(
        "autogemm_strategy_total{strategy=\"serial\",backend=\"" + bn + "\"}");
    x.strategy_blocks = &r.counter(
        "autogemm_strategy_total{strategy=\"blocks\",backend=\"" + bn + "\"}");
    x.strategy_ksplit = &r.counter(
        "autogemm_strategy_total{strategy=\"ksplit\",backend=\"" + bn + "\"}");
    it = cache.emplace(id, x).first;
  }
  return it->second;
}

const char* health_kind_name(HealthEvent::Kind kind) {
  switch (kind) {
    case HealthEvent::Kind::kQuarantine: return "quarantine";
    case HealthEvent::Kind::kReferenceFallback: return "reference_fallback";
    case HealthEvent::Kind::kAllocFallback: return "alloc_fallback";
    case HealthEvent::Kind::kPoolDegraded: return "pool_degraded";
    case HealthEvent::Kind::kRecordsDamaged: return "records_damaged";
  }
  return "unknown";
}

/// Cardinality cap for the per-shape latency series (see the
/// set_shape_label_cap contract in context.hpp): labels go to the first
/// `cap` distinct shapes, first-come-first-served; later shapes share
/// "other" so an adversarial shape stream cannot grow the registry without
/// bound, and every call still lands in exactly one series of the family.
/// AUTOGEMM_SHAPE_LABEL_CAP overrides the default of 128.
std::atomic<std::size_t>& shape_label_cap_storage() {
  static std::atomic<std::size_t> cap{[]() -> std::size_t {
    if (const char* env = std::getenv("AUTOGEMM_SHAPE_LABEL_CAP")) {
      char* end = nullptr;
      const unsigned long v = std::strtoul(env, &end, 10);
      if (end != env && *end == '\0') return static_cast<std::size_t>(v);
    }
    return 128;
  }()};
  return cap;
}

/// The per-shape latency series autogemm_gemm_seconds{shape=...,dtype=...}.
/// Shape labels go FCFS to the first `cap` distinct shapes, shared by every
/// dtype; later shapes land on "other" in each dtype series. Resolved
/// histograms are cached by (label, dtype), so a call pays one label
/// string build and one locked lookup (registry entries are stable for the
/// registry's lifetime, so caching the pointers is safe).
obs::Histogram& shape_latency_histogram(int m, int n, int k,
                                        common::DType dtype) {
  static std::mutex mu;
  static std::set<std::string>& labeled = *new std::set<std::string>;
  static std::map<std::pair<std::string, common::DType>, obs::Histogram*>&
      series = *new std::map<std::pair<std::string, common::DType>,
                             obs::Histogram*>;
  std::string label = shape_string(m, n, k);
  std::lock_guard lock(mu);
  if (labeled.count(label) == 0) {
    if (labeled.size() >= shape_label_cap_storage().load()) label = "other";
    else labeled.insert(label);
  }
  auto [it, inserted] = series.try_emplace({std::move(label), dtype}, nullptr);
  if (inserted)
    it->second = &obs::default_registry().histogram(
        "autogemm_gemm_seconds{shape=\"" + it->first.first + "\",dtype=\"" +
        common::dtype_name(dtype) + "\"}");
  return *it->second;
}

}  // namespace

Context::Context() : Context(ContextOptions{}) {}

Context::Context(const ContextOptions& opts)
    : opts_(sanitized(opts)),
      backend_(backend::resolve_backend(opts.backend)),
      records_(load_records_or_throw(opts.records_path, &records_skipped_)) {
  if (records_skipped_ > 0) {
    health_.records_skipped = records_skipped_;
    record_event(HealthEvent::Kind::kRecordsDamaged,
                 "records file '" + opts_.records_path + "': skipped " +
                     std::to_string(records_skipped_) + " corrupt line(s)");
  }
}

Context::Context(tune::TuningRecords records, const ContextOptions& opts)
    : opts_(sanitized(opts)),
      backend_(backend::resolve_backend(opts.backend)),
      records_(std::move(records)) {}

common::ThreadPool* Context::effective_pool() {
  if (opts_.threads == 1) return nullptr;
  if (pool_degraded_.load(std::memory_order_relaxed)) return nullptr;
  std::call_once(pool_once_, [this] {
    auto p = std::make_unique<common::ThreadPool>(opts_.threads);
    if (p->spawn_failures() > 0) {
      record_event(HealthEvent::Kind::kPoolDegraded,
                   "thread pool spawned " + std::to_string(p->size()) + " of " +
                       std::to_string(p->size() + p->spawn_failures()) +
                       " workers");
      // Zero workers: parallel_for would run inline anyway, but mark the
      // pool retired so health() tells the truth.
      if (p->size() == 0) pool_degraded_.store(true);
    }
    pool_ = std::move(p);
  });
  if (pool_degraded_.load(std::memory_order_relaxed)) return nullptr;
  return pool_.get();
}

common::ThreadPool* Context::pool() { return effective_pool(); }

void Context::record_event(HealthEvent::Kind kind, std::string detail) {
  // Degradation events are rare; the registry lookup's lock is fine here.
  obs::default_registry()
      .counter(std::string("autogemm_health_events_total{kind=\"") +
               health_kind_name(kind) + "\"}")
      .add(1);
  std::lock_guard lock(mu_);
  health_.degraded = true;
  if (health_.events.size() >= kMaxHealthEvents)
    health_.events.erase(health_.events.begin());
  health_.events.push_back(HealthEvent{kind, std::move(detail)});
}

Status Context::record_error(Status s) {
  if (!s.ok()) {
    obs_handles().failures->add(1);
    std::lock_guard lock(mu_);
    health_.last_error = s;
  }
  return s;
}

Status Context::verify_config(const Plan& plan) {
  obs::SpanScope span("verify.probe",
                      static_cast<std::uint64_t>(plan.m()),
                      static_cast<std::uint64_t>(plan.n()));
  const GemmConfig& cfg = plan.config();
  backend_obs(cfg.backend).probes->add(1);
  {
    std::lock_guard lock(mu_);
    ++health_.probes;
  }
  // Probe depth: the plan's K block (Plan clamps it to [1, K]), capped.
  const int kc = std::clamp(cfg.kc, 1, kProbeKc);
  if (failpoint::should_fail("verify.portable"))
    return InternalError("failpoint: verify.portable");
  return probe_host_kernels(plan, kc);
}

Context::PlanEntry Context::entry_for(int m, int n, int k) {
  const ShapeKey key{m, n, k};
  {
    std::lock_guard lock(mu_);
    auto it = plan_index_.find(key);
    if (it != plan_index_.end()) {
      if (it->second->second.generation == records_gen_) {
        ++stats_.plan_hits;
        obs_handles().plan_hits->add(1);
        plan_lru_.splice(plan_lru_.begin(), plan_lru_, it->second);
        return it->second->second;
      }
      // Stale hit: the records table changed since this entry resolved
      // (publish_record bumped the generation), so the cached plan may no
      // longer be the shape's best resolution — exact records beat the
      // nearest/heuristic rung this entry may be on, and even a nearest
      // resolution can improve when a neighbor shape was published. Drop
      // it and re-resolve through the full ladder below.
      plan_lru_.erase(it->second);
      plan_index_.erase(it);
    }
    ++stats_.plan_misses;
    obs_handles().plan_misses->add(1);
  }
  // The resolve span covers candidate construction, DMT tiling and the
  // first-use probes — the cold-path cost a cache hit amortizes away.
  obs::SpanScope resolve_span("plan.resolve", static_cast<std::uint64_t>(m),
                              static_cast<std::uint64_t>(n));

  // Candidate ladder: tuned record (exact, else nearest), then the
  // heuristic. Each candidate must build a Plan and pass first-use
  // verification; a failure quarantines it and the next candidate serves.
  // Plan construction, DMT and the probes all run outside the lock so
  // concurrent misses on distinct shapes don't serialize; a racing build
  // of the same shape is deterministic, so first-in wins below.
  struct Candidate {
    GemmConfig cfg;
    int kind;  // 0 = exact record, 1 = nearest record, 2 = heuristic
  };
  std::vector<Candidate> candidates;
  const tune::ShapeKey shape{m, n, k};
  // Record resolution is scoped to this context's backend: a mixed-backend
  // records file never hands an SVE blocking to a NEON context (or vice
  // versa), for both the exact and the nearest-shape rung. The lookups
  // hold mu_ — publish_record mutates the table — and the generation is
  // snapshotted in the same critical section, so a publish racing this
  // resolve leaves the inserted entry stale and the next hit re-resolves.
  std::uint64_t resolve_gen = 0;
  {
    std::lock_guard lock(mu_);
    resolve_gen = records_gen_;
    if (auto exact = records_.lookup(shape, backend_)) {
      candidates.push_back({tune::config_from_candidate(m, n, k, *exact), 0});
    } else if (auto nearest = records_.lookup_nearest(
                   shape, /*max_log2_distance=*/1.0, backend_)) {
      // Plan construction clamps the transferred blocking to this problem.
      candidates.push_back({tune::config_from_candidate(m, n, k, *nearest), 1});
    }
  }
  candidates.push_back({default_config(m, n, k, backend_), 2});
  // A context-level strategy override beats whatever the candidates carry
  // (tuned records may pin a strategy per shape; kAuto leaves them alone).
  // The backend is pinned unconditionally: it is a property of the
  // context, not of any individual record.
  for (auto& cand : candidates) {
    cand.cfg.backend = backend_;
    if (opts_.parallel_strategy != ParallelStrategy::kAuto)
      cand.cfg.parallel_strategy = opts_.parallel_strategy;
  }

  PlanEntry entry;  // plan == nullptr -> reference pin
  entry.latency = &shape_latency_histogram(m, n, k, common::DType::kF32);
  entry.generation = resolve_gen;
  for (const auto& cand : candidates) {
    StatusOr<Plan> plan_or = Plan::create(m, n, k, cand.cfg);
    if (!plan_or.ok()) {
      record_event(HealthEvent::Kind::kQuarantine,
                   "shape " + shape_string(m, n, k) + " config " +
                       config_string(cand.cfg) + ": " +
                       plan_or.status().to_string());
      continue;
    }
    auto plan = std::make_shared<const Plan>(std::move(plan_or).value());
    const GemmConfig& cfg = plan->config();  // post-clamp values
    const ConfigKey ck{cfg.mc,
                       cfg.nc,
                       cfg.kc,
                       static_cast<int>(cfg.loop_order),
                       static_cast<int>(cfg.packing),
                       static_cast<int>(cfg.tiling),
                       cfg.hw.lanes,
                       static_cast<int>(cfg.backend)};
    bool quarantined = false, verified = false;
    {
      std::lock_guard lock(mu_);
      quarantined = quarantined_.count(ck) > 0;
      verified = verified_.count(ck) > 0;
    }
    if (quarantined) continue;
    if (opts_.verify_kernels && !verified) {
      const Status v = verify_config(*plan);
      if (!v.ok()) {
        obs_handles().probe_failures->add(1);
        {
          std::lock_guard lock(mu_);
          ++health_.probe_failures;
          quarantined_[ck] = v.to_string();
        }
        record_event(HealthEvent::Kind::kQuarantine,
                     "config " + config_string(cfg) + " for shape " +
                         shape_string(m, n, k) + ": " + v.to_string());
        continue;
      }
      std::lock_guard lock(mu_);
      verified_[ck] = true;
    }
    {
      std::lock_guard lock(mu_);
      if (cand.kind == 0) ++stats_.resolved_exact;
      else if (cand.kind == 1) ++stats_.resolved_nearest;
      else ++stats_.resolved_heuristic;
    }
    if (cand.kind == 0) obs_handles().resolved_exact->add(1);
    else if (cand.kind == 1) obs_handles().resolved_nearest->add(1);
    else obs_handles().resolved_heuristic->add(1);
    entry.plan = std::move(plan);
    break;
  }
  if (entry.plan == nullptr) {
    {
      std::lock_guard lock(mu_);
      ++health_.reference_shapes;
    }
    record_event(HealthEvent::Kind::kReferenceFallback,
                 "shape " + shape_string(m, n, k) +
                     ": every candidate config quarantined; pinned to the "
                     "reference path");
  }

  std::lock_guard lock(mu_);
  auto it = plan_index_.find(key);
  if (it != plan_index_.end()) {
    plan_lru_.splice(plan_lru_.begin(), plan_lru_, it->second);
    return it->second->second;
  }
  plan_lru_.emplace_front(key, entry);
  plan_index_[key] = plan_lru_.begin();
  while (plan_lru_.size() > opts_.plan_capacity) {
    plan_index_.erase(plan_lru_.back().first);
    plan_lru_.pop_back();
    ++stats_.plan_evictions;
    obs_handles().plan_evictions->add(1);
  }
  return entry;
}

std::shared_ptr<const Plan> Context::plan_for(int m, int n, int k) {
  PlanEntry entry = entry_for(m, n, k);
  if (entry.plan != nullptr) return entry.plan;
  // Reference-pinned shape: legacy callers still need a Plan object to
  // hand to the free gemm() overloads; run() is where the pin is honored.
  return std::make_shared<const Plan>(m, n, k,
                                      default_config(m, n, k, backend_));
}

void Context::note_strategy(const Plan* plan, const common::ThreadPool* pool,
                            std::size_t count) {
  const bool serial = plan == nullptr || pool == nullptr || pool->size() <= 1;
  const ParallelStrategy chosen =
      serial || count > 1 ? ParallelStrategy::kBlocksOnly
                          : choose_parallel_strategy(*plan, pool->size());
  const BackendObs& bo = backend_obs(backend_);
  bo.dispatch->add(count);
  std::lock_guard lock(mu_);
  if (serial) {
    bo.strategy_serial->add(1);
    ++stats_.strategy_serial;
    health_.last_parallel_strategy = "serial";
  } else if (chosen == ParallelStrategy::kKSplit) {
    bo.strategy_ksplit->add(1);
    ++stats_.strategy_ksplit;
    health_.last_parallel_strategy = "k-split";
  } else {
    bo.strategy_blocks->add(1);
    ++stats_.strategy_blocks;
    health_.last_parallel_strategy = "blocks-only";
  }
}

Status Context::run(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                    const GemmExParams& params) {
  return execute({a, b, c, params, common::DType::kF32, Constant::kNone});
}

Status Context::run_const_a(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                            const GemmExParams& params) {
  return execute({a, b, c, params, common::DType::kF32, Constant::kA});
}

Status Context::run_const_b(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                            const GemmExParams& params) {
  return execute({a, b, c, params, common::DType::kF32, Constant::kB});
}

Status Context::run_const_b_i8(ConstMatrixView a, ConstMatrixView b,
                               MatrixView c, float alpha, float beta) {
  GemmExParams params;
  params.alpha = alpha;
  params.beta = beta;
  return execute({a, b, c, params, common::DType::kI8, Constant::kB});
}

Status Context::execute(const Call& call) {
  const GemmExParams& params = call.params;
  obs::SpanScope span("context.run",
                      static_cast<std::uint64_t>(std::max(0, call.c.rows)),
                      static_cast<std::uint64_t>(std::max(0, call.c.cols)));
  const Status v = validate_operands(call.a, call.b, call.c, params);
  if (!v.ok()) return record_error(v);
  const int m = call.c.rows, n = call.c.cols;
  const int k = params.trans_a == Trans::kNo ? call.a.cols : call.a.rows;
  // Degenerate shapes are well-defined no-ops: an empty C has nothing to
  // write; K == 0 makes op(A)*op(B) the zero matrix, so C = beta*C.
  if (m == 0 || n == 0) return Status::OK();
  if (k == 0) {
    detail::scale_c(call.c, params.beta);
    return Status::OK();
  }

  const detail::GroupMember member{call.a, call.b, call.c};
  Group g{&member, 1, call.dtype, m, n, k, params};
  // int8 calls never consult the plan cache (the quantized kernels carry
  // no blocking) and run_group finds their packed B.
  if (call.dtype != common::DType::kF32) return run_group(g);

  g.entry = entry_for(m, n, k);
  // The fp32 packed layouts need canonical operands (no transposes,
  // alpha = 1) and a plan (a reference-pinned shape has none); other
  // calls ignore the constant hint.
  const bool canonical = params.trans_a == Trans::kNo &&
                         params.trans_b == Trans::kNo && params.alpha == 1.0f;
  PackedOperand packed;
  if (call.constant != Constant::kNone && canonical &&
      g.entry.plan != nullptr) {
    StatusOr<PackedOperand> packed_or =
        packed_for(call.constant == Constant::kA ? call.a : call.b,
                   call.constant, call.dtype, g.entry.plan.get());
    // A packing error leaves C untouched.
    if (!packed_or.ok()) return record_error(packed_or.status());
    packed = std::move(packed_or).value();
    g.packed_a = packed.a.get();
    g.packed_b = packed.b.get();
  }
  // beta is applied exactly once: every fp32 tier accumulates into a
  // pre-scaled C (and ignores params.beta).
  if (params.beta != 1.0f) detail::scale_c(call.c, params.beta);
  return run_group(g);
}

Status Context::run_group(const Group& g) {
  const bool f32 = g.dtype == common::DType::kF32;
  const Plan* plan = g.entry.plan.get();
  common::ThreadPool* pool =
      f32 && plan == nullptr ? nullptr : effective_pool();
  if (pool != nullptr && pool->size() <= 1) pool = nullptr;
  const bool pooled = pool != nullptr;
  if (f32) note_strategy(plan, pool, g.count);
  obs::Histogram& latency =
      f32 ? *g.entry.latency : shape_latency_histogram(g.m, g.n, g.k, g.dtype);
  const auto reference = [&] {
    for (std::size_t i = 0; i < g.count; ++i)
      accumulate_reference(g.members[i].a, g.members[i].b, g.members[i].c,
                           g.params);
  };
  const auto fault = [&](StatusCode code, const std::string& what) {
    return execution_fault(pooled, code, what, shape_string(g.m, g.n, g.k));
  };

  Status s;
  double seconds = 0;
  {
    obs::SpanScope exec_span("context.execute",
                             static_cast<std::uint64_t>(g.m) * g.n,
                             static_cast<std::uint64_t>(g.k));
    const std::uint64_t t0 = common::now_ns();
    std::size_t began = 0;
    try {
      if (!f32) {
        quant::QGemmOptions qopts;
        qopts.alpha = g.params.alpha;
        qopts.beta = g.params.beta;
        for (std::size_t i = 0; i < g.count && s.ok(); ++i) {
          const detail::GroupMember& m = g.members[i];
          StatusOr<PackedOperand> packed =
              packed_for(m.b, Constant::kB, g.dtype, nullptr);
          if (!packed.ok()) s = packed.status();
          else if (packed->qb != nullptr)
            s = quant::qgemm(m.a, *packed->qb, m.c, qopts, pool);
          else
            s = quant::qgemm(m.a, m.b, m.c, qopts, pool);
        }
      } else if (plan == nullptr) {
        reference();
      } else {
        detail::execute(g.members, g.count, g.packed_a, g.packed_b, g.params,
                        *plan, pool, &began);
      }
    } catch (const std::bad_alloc&) {
      if (began > 0 || !f32) {
        s = fault(StatusCode::kResourceExhausted, "allocation failed");
      } else {
        // The scratch allocation failed before any C was touched, so C
        // still holds exactly beta*C and the reference tier finishes the
        // call with a correct answer.
        {
          std::lock_guard lock(mu_);
          ++health_.alloc_fallbacks;
        }
        record_event(HealthEvent::Kind::kAllocFallback,
                     "scratch allocation failed for shape " +
                         shape_string(g.m, g.n, g.k) +
                         "; call served by the reference path");
        reference();
      }
    } catch (const std::exception& e) {
      s = fault(StatusCode::kInternal,
                std::string(pooled ? "worker fault: " : "execution fault: ") +
                    e.what());
    }
    seconds = static_cast<double>(common::now_ns() - t0) * 1e-9;
  }
  ObsHandles& h = obs_handles();
  h.calls->add(g.count);
  h.flops->add(2ull * static_cast<std::uint64_t>(g.m) *
               static_cast<std::uint64_t>(g.n) *
               static_cast<std::uint64_t>(g.k) * g.count);
  latency.observe(seconds / static_cast<double>(g.count), g.count);
  return record_error(s);
}

Status Context::execution_fault(bool pooled, StatusCode code,
                                const std::string& what,
                                const std::string& shape) {
  // A fault after some C was written cannot be repaired in place.
  if (pooled) {
    pool_degraded_.store(true);
    record_event(HealthEvent::Kind::kPoolDegraded,
                 what + "; pool retired, subsequent calls run serial");
  }
  return Status(code, "gemm: " + what + " for shape " + shape +
                          "; C contents are unspecified for this call" +
                          (pooled ? " (subsequent calls degrade to serial)"
                                  : ""));
}

StatusOr<Context::PackedOperand> Context::packed_for(ConstMatrixView v,
                                                     Constant operand,
                                                     common::DType dtype,
                                                     const Plan* plan) {
  const bool is_a = operand == Constant::kA;
  PackedKey key{v.data, v.rows, v.cols, v.ld, operand, dtype};
  if (plan != nullptr) {
    key.block_mn = is_a ? plan->config().mc : plan->config().nc;
    key.block_k = plan->config().kc;
  }
  {
    std::lock_guard lock(mu_);
    auto it = packed_index_.find(key);
    if (it != packed_index_.end()) {
      ++stats_.packed_hits;
      obs_handles().packed_hits->add(1);
      packed_lru_.splice(packed_lru_.begin(), packed_lru_, it->second);
      return it->second->second;
    }
    ++stats_.packed_misses;
    obs_handles().packed_misses->add(1);
  }
  PackedOperand packed;
  Status s;
  if (dtype == common::DType::kI8) {
    StatusOr<quant::QPackedB> q = quant::QPackedB::create(v);
    if (q.ok())
      packed.qb = std::make_shared<const quant::QPackedB>(std::move(q).value());
    s = q.status();
  } else if (is_a) {
    StatusOr<PackedA> p = PackedA::create(v, *plan);
    if (p.ok())
      packed.a = std::make_shared<const PackedA>(std::move(p).value());
    s = p.status();
  } else {
    StatusOr<PackedB> p = PackedB::create(v, *plan);
    if (p.ok())
      packed.b = std::make_shared<const PackedB>(std::move(p).value());
    s = p.status();
  }
  if (s.code() == StatusCode::kResourceExhausted) {
    // Packing scratch did not fit; the unpacked path (which may itself
    // degrade further) serves the call.
    record_event(HealthEvent::Kind::kAllocFallback,
                 "packing allocation failed for a " +
                     std::to_string(v.rows) + "x" + std::to_string(v.cols) +
                     " operand; serving unpacked");
    return PackedOperand{};
  }
  if (!s.ok()) return s;
  std::lock_guard lock(mu_);
  auto it = packed_index_.find(key);
  if (it != packed_index_.end()) {  // a racing miss packed it first
    packed_lru_.splice(packed_lru_.begin(), packed_lru_, it->second);
    return it->second->second;
  }
  packed_lru_.emplace_front(key, packed);
  packed_index_[key] = packed_lru_.begin();
  while (packed_lru_.size() > opts_.packed_capacity) {
    packed_index_.erase(packed_lru_.back().first);
    packed_lru_.pop_back();
    ++stats_.packed_evictions;
    obs_handles().packed_evictions->add(1);
  }
  return packed;
}

Status Context::run_batched(const std::vector<BatchItem>& items) {
  return run_batched_impl(items, /*validate=*/true);
}

Status Context::run_batched_prevalidated(const std::vector<BatchItem>& items) {
  return run_batched_impl(items, /*validate=*/false);
}

Status Context::run_batched_impl(const std::vector<BatchItem>& items,
                                 bool validate) {
  obs::SpanScope span("context.run_batched",
                      static_cast<std::uint64_t>(items.size()), 0);
  // Whole-batch validation (per-member + cross-member aliasing) before
  // any C is written: a bad member fails the batch with every output
  // untouched, so callers can safely retry member-by-member. The
  // prevalidated entry skips this: the serve engine has already run
  // validate_batch_item per admission and demoted every member flagged
  // by find_cross_member_conflicts, so the checks would be pure repeat
  // work on the hot dispatch path.
  if (validate) {
    const Status v = validate_batch(items);
    if (!v.ok()) return record_error(v);
  }

  // Members in (shape, dtype) order, submission order within a group.
  // Degenerate members (M, N or K of zero) are accumulate no-ops — an
  // empty product adds nothing to C — matching run() at beta == 1.
  const auto key = [&items](std::size_t i) {
    const BatchItem& it = items[i];
    return std::tuple(it.c.rows, it.c.cols, it.a.cols, it.dtype);
  };
  std::vector<std::size_t> order;
  order.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i)
    if (items[i].c.rows != 0 && items[i].c.cols != 0 && items[i].a.cols != 0)
      order.push_back(i);
  const auto by_key = [&](std::size_t x, std::size_t y) {
    return key(x) < key(y);
  };
  // A serve dispatch is one group already: no sort, no sort buffer.
  if (!std::is_sorted(order.begin(), order.end(), by_key))
    std::stable_sort(order.begin(), order.end(), by_key);
  std::vector<detail::GroupMember> members;
  members.reserve(order.size());
  for (const std::size_t i : order)
    members.push_back({items[i].a, items[i].b, items[i].c});

  // Groups run one after another, each through run_group; the first
  // failure is the batch's Status, and later groups still run.
  Status result;
  for (std::size_t begin = 0, end = 0; begin < order.size(); begin = end) {
    end = begin + 1;
    while (end < order.size() && key(order[end]) == key(order[begin])) ++end;
    const BatchItem& first = items[order[begin]];
    Group g{members.data() + begin, end - begin, first.dtype,
            first.c.rows, first.c.cols, first.a.cols, GemmExParams{}};
    // Transient packing of an fp32 operand every member shares: packed
    // once, reused by every member, never entered into the packed LRU —
    // fp32 batch operands carry no constancy promise beyond this call. A
    // packing failure is not an error: the unpacked path serves.
    std::optional<PackedA> packed_a;
    std::optional<PackedB> packed_b;
    if (g.dtype == common::DType::kF32) {
      g.entry = entry_for(g.m, g.n, g.k);
      const Plan* plan = g.entry.plan.get();
      const ConstMatrixView a0 = g.members[0].a, b0 = g.members[0].b;
      bool shared_a = true, shared_b = true;
      for (std::size_t i = 1; i < g.count; ++i) {
        const detail::GroupMember& m = g.members[i];
        shared_a = shared_a && m.a.data == a0.data && m.a.ld == a0.ld;
        shared_b = shared_b && m.b.data == b0.data && m.b.ld == b0.ld;
      }
      if (plan != nullptr && g.count >= 2 && shared_a) {
        if (StatusOr<PackedA> p = PackedA::create(a0, *plan); p.ok())
          g.packed_a = &packed_a.emplace(std::move(p).value());
      } else if (plan != nullptr && g.count >= 2 && shared_b) {
        if (StatusOr<PackedB> p = PackedB::create(b0, *plan); p.ok())
          g.packed_b = &packed_b.emplace(std::move(p).value());
      }
    }
    const Status s = run_group(g);
    if (result.ok()) result = s;
  }
  return result;
}

std::size_t Context::invalidate(const void* data) {
  std::lock_guard lock(mu_);
  std::size_t dropped = 0;
  for (auto it = packed_lru_.begin(); it != packed_lru_.end();) {
    if (it->first.data == data) {
      packed_index_.erase(it->first);
      it = packed_lru_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  stats_.packed_invalidations += dropped;
  obs_handles().packed_invalidations->add(dropped);
  return dropped;
}

bool Context::invalidate_plan(int m, int n, int k) {
  const ShapeKey key{m, n, k};
  std::lock_guard lock(mu_);
  auto it = plan_index_.find(key);
  if (it == plan_index_.end()) return false;
  plan_lru_.erase(it->second);
  plan_index_.erase(it);
  ++stats_.plan_invalidations;
  obs_handles().plan_invalidations->add(1);
  return true;
}

bool Context::publish_record(int m, int n, int k,
                             const tune::Candidate& candidate, double cost) {
  // The backend is a property of the context, not of the record handed in:
  // pin it so a tuner that enumerated under kAuto cannot publish a record
  // this context's resolution (scoped to backend_) would never see.
  tune::Candidate pinned = candidate;
  pinned.backend = backend_;
  std::lock_guard lock(mu_);
  if (!records_.add(tune::ShapeKey{m, n, k}, pinned, cost)) return false;
  // Every cached entry resolved against the old table; bumping the
  // generation makes each re-resolve lazily on its next hit (neighbors of
  // the published shape may now prefer it on the nearest rung). The
  // published shape itself is dropped eagerly so the very next request
  // executes the new config even through plan_for's shared_ptr path.
  ++records_gen_;
  auto it = plan_index_.find(ShapeKey{m, n, k});
  if (it != plan_index_.end()) {
    plan_lru_.erase(it->second);
    plan_index_.erase(it);
    ++stats_.plan_invalidations;
    obs_handles().plan_invalidations->add(1);
  }
  return true;
}

bool Context::has_exact_record(int m, int n, int k) const {
  std::lock_guard lock(mu_);
  return records_.lookup(tune::ShapeKey{m, n, k}, backend_).has_value();
}

tune::TuningRecords Context::records_snapshot() const {
  std::lock_guard lock(mu_);
  return records_;
}

void Context::clear() {
  std::lock_guard lock(mu_);
  plan_index_.clear();
  plan_lru_.clear();
  packed_index_.clear();
  packed_lru_.clear();
  // quarantined_/verified_/health_ survive on purpose: a poisoned config
  // stays poisoned across cache resets.
}

ContextStats Context::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

HealthReport Context::health() const {
  std::lock_guard lock(mu_);
  HealthReport r = health_;
  r.quarantined_configs = quarantined_.size();
  r.pool_degraded = pool_degraded_.load(std::memory_order_relaxed);
  r.records_skipped = records_skipped_;
  r.degraded = r.degraded || r.pool_degraded;
  return r;
}

std::size_t Context::plan_cache_size() const {
  std::lock_guard lock(mu_);
  return plan_lru_.size();
}

std::size_t Context::packed_cache_size() const {
  std::lock_guard lock(mu_);
  return packed_lru_.size();
}

Context& default_context() {
  // Serial so the free-function wrappers behave exactly like the
  // pre-Context API (plan caching aside, which they already had).
  static Context ctx([] {
    ContextOptions opts;
    opts.threads = 1;
    return opts;
  }());
  return ctx;
}

void set_shape_label_cap(std::size_t cap) {
  shape_label_cap_storage().store(cap);
}

std::size_t shape_label_cap() { return shape_label_cap_storage().load(); }

}  // namespace autogemm
