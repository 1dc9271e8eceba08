// autogemm::Context — the runtime layer of the public API.
//
// The paper's deployment model ("optimal parameters are tuned ahead of
// time per shape, then baked into the library", §IV-C) assumes per-shape
// work is amortized across calls. Context is where that amortization
// lives for a process serving repeated GEMM traffic:
//
//   * a thread-safe, shape-keyed LRU cache of Plan objects, so DMT tiling
//     and hardware-model costing run once per distinct (M, N, K);
//   * an LRU cache of offline-packed constant operands (PackedA/PackedB,
//     and quant::QPackedB for int8), keyed by the operand's data pointer,
//     shape, dtype and packed blocking, so a DNN's weight matrices are
//     packed once and reused every inference;
//   * optional tune::TuningRecords backing: a context constructed with a
//     records file resolves each incoming shape to its tuned GemmConfig
//     (exact match first, then nearest-shape fallback) before falling back
//     to the default_config heuristic;
//   * an owned persistent ThreadPool, so callers stop threading pool
//     pointers through every call.
//
// ## Hardened runtime: Status, verification, quarantine
//
// Context::run is the primary entry point and reports through
// autogemm::Status: operand validation (dimensions, leading dims, null
// pointers, C overlapping A or B, non-finite alpha/beta — one
// validate_operands in core/batched.hpp; see common/status.hpp for the
// NaN/Inf policy), well-defined degenerate shapes (M/N/K of zero), and a
// degradation ladder that keeps answers correct when parts of the stack
// misbehave:
//
//   1. On the first use of each distinct GemmConfig, a probe runs every
//      distinct host kernel the plan will execute (the same
//      kernels::TileKernel its tiles call) against common::reference_gemm.
//      Generated instruction streams are never executed here; they are
//      vetted where they are produced (the codegen and interpreter tests,
//      `autogemm crosscheck`).
//   2. A probe fault or miscompare quarantines that config; resolution
//      retries with the next candidate (tuned -> heuristic). Tuned records
//      transferred across shapes/machines can be stale or invalid — this
//      is where that is caught instead of assumed away.
//   3. If every candidate is quarantined, the shape is pinned to the
//      reference path: slow, but never wrong.
//   4. Runtime faults degrade too: a scratch allocation failure before
//      any C is written falls back to the reference kernel; a worker
//      exception quarantines the pool (subsequent calls run serial) and
//      reports kInternal for the affected call.
//
// Everything the ladder does is observable through health(). Every entry
// point reports through Status; the free functions (core/gemm.hpp,
// core/gemm_ex.hpp) return default_context().run()'s Status unchanged.
//
// ## One execution path
//
// Every entry point ends in one private group executor, run_group(), over
// same-(shape, dtype) members. The four single-call entry points (run,
// run_const_a, run_const_b, run_const_b_i8) differ only in the call they
// describe — its dtype and which operand, if any, is promised constant —
// and forward to execute(), which validates, handles M/N/K of zero,
// resolves the plan and cached packing, applies beta once, and runs the
// call as a group of one on the stack. The batched entry points split a
// batch into (shape, dtype) groups and run them in turn. run_group is the
// only place that notes the strategy, times, counts and turns a fault
// into a Status. fp32 groups reach core/gemm.hpp's one executor
// (transposed and alpha calls included; several members run
// member-parallel on the pool); int8 groups run each member through
// quant::qgemm on the cached QPackedB of its B.
//
// Packed-operand caching is keyed by pointer identity plus the blocking
// the operand was packed for: the cache cannot see through the pointer,
// so callers that mutate or free a cached operand must call
// invalidate(ptr) (or clear()) before the next call on that buffer. This
// is the standard contract for prepacked-weight APIs.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "backend/backend_id.hpp"
#include "common/dtype.hpp"
#include "common/matrix.hpp"
#include "common/status.hpp"
#include "common/threadpool.hpp"
#include "core/batched.hpp"
#include "core/gemm.hpp"
#include "core/gemm_ex.hpp"
#include "tune/records.hpp"

namespace autogemm::obs {
class Histogram;
}  // namespace autogemm::obs

namespace autogemm::quant {
class QPackedB;
}  // namespace autogemm::quant

namespace autogemm {

struct ContextOptions {
  /// Max distinct shapes whose Plans stay cached (LRU beyond that).
  std::size_t plan_capacity = 256;
  /// Max packed constant operands kept (LRU beyond that).
  std::size_t packed_capacity = 64;
  /// Worker threads for the owned pool: 0 = hardware_concurrency,
  /// 1 = serial (no pool is created).
  unsigned threads = 0;
  /// Optional tuned-parameter table (see tune/records.hpp); empty = none.
  /// The constructor throws std::runtime_error if the file cannot be read;
  /// a *damaged* but readable file loads its valid records and shows up in
  /// health().
  std::string records_path;
  /// Parallel scheduling policy for pooled execution. kAuto defers to the
  /// per-plan choice (tuned records may carry a strategy; otherwise
  /// choose_parallel_strategy picks per shape and pool size); any other
  /// value overrides every plan this context resolves.
  ParallelStrategy parallel_strategy = ParallelStrategy::kAuto;
  /// First-use verification of each distinct GemmConfig against the
  /// reference GEMM (the quarantine ladder above). Costs one tile-sized
  /// probe per distinct kernel of each distinct config; disable only for
  /// benchmarking the unhardened path.
  bool verify_kernels = true;
  /// Kernel backend every plan this context resolves is tiled and priced
  /// for. kAuto consults the AUTOGEMM_BACKEND environment variable, then
  /// falls back to the highest-priority host-executable backend: x86_wide
  /// on a CPU with AVX2+FMA or AVX-512F, the 128-bit neon tier otherwise.
  /// An explicit id must be registered; the constructor throws
  /// std::out_of_range otherwise.
  backend::BackendId backend = backend::BackendId::kAuto;
};

/// Monotonic cache counters (see Context::stats); the cache hit-rate bench
/// reports these as JSON.
struct ContextStats {
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
  std::uint64_t plan_evictions = 0;
  std::uint64_t packed_hits = 0;
  std::uint64_t packed_misses = 0;
  std::uint64_t packed_evictions = 0;
  std::uint64_t packed_invalidations = 0;
  /// Plans dropped by shape: explicit invalidate_plan() calls plus entries
  /// evicted by publish_record() so the published config takes effect.
  /// Stale-generation re-resolves (a cache hit observing a newer records
  /// generation) count as plan_misses, not invalidations.
  std::uint64_t plan_invalidations = 0;
  /// How plan configs were resolved on miss: tuned record (exact shape),
  /// tuned record (nearest shape), or the default_config heuristic.
  std::uint64_t resolved_exact = 0;
  std::uint64_t resolved_nearest = 0;
  std::uint64_t resolved_heuristic = 0;
  /// How fp32 executions were scheduled: serial (no pool, pool retired,
  /// or reference-pinned), blocks-only C-block parallelism (a batch group
  /// of several members running member-parallel counts here), or the
  /// k-split partial-C path. One increment per single call or batch group,
  /// so the split of traffic between strategies is directly readable.
  std::uint64_t strategy_serial = 0;
  std::uint64_t strategy_blocks = 0;
  std::uint64_t strategy_ksplit = 0;
};

/// One degradation event (see Context::health). Kept as a bounded log of
/// human-readable entries; counters summarize the totals.
struct HealthEvent {
  enum class Kind {
    kQuarantine,         ///< a config failed verification and was retired
    kReferenceFallback,  ///< a shape was pinned to the reference path
    kAllocFallback,      ///< one call served by reference after bad_alloc
    kPoolDegraded,       ///< worker fault; pool retired, now serial
    kRecordsDamaged,     ///< corrupt lines skipped while loading records
  };
  Kind kind;
  std::string detail;
};

/// Snapshot of the context's degradation state: "is this process serving
/// full-speed, degraded, or limping" — the query a service health endpoint
/// forwards to.
struct HealthReport {
  /// True when any degradation event has been recorded.
  bool degraded = false;
  /// First-use verification probes executed / failed.
  std::uint64_t probes = 0;
  std::uint64_t probe_failures = 0;
  /// Distinct GemmConfigs currently quarantined.
  std::uint64_t quarantined_configs = 0;
  /// Shapes pinned to the reference path (every candidate quarantined).
  std::uint64_t reference_shapes = 0;
  /// Calls served by the reference path after a scratch-allocation failure.
  std::uint64_t alloc_fallbacks = 0;
  /// True when a worker fault retired the pool (calls now run serial).
  bool pool_degraded = false;
  /// Corrupt lines skipped while loading the records file.
  std::uint64_t records_skipped = 0;
  /// Scheduling of the most recent plan-driven call: "serial",
  /// "blocks-only", "k-split", or "none" before any call ran (see the
  /// strategy_* counters in ContextStats for totals).
  std::string last_parallel_strategy = "none";
  /// Most recent non-OK status any entry point reported (by any thread).
  Status last_error;
  /// Bounded event log, oldest first (capped; counters stay exact).
  std::vector<HealthEvent> events;
};

class Context {
 public:
  Context();
  explicit Context(const ContextOptions& opts);
  /// Tuned records handed over directly (e.g. straight from a tuning run).
  explicit Context(tune::TuningRecords records, const ContextOptions& opts = {});

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  /// Primary entry point: C = alpha * op(A) * op(B) + beta * C with the
  /// shape's cached (tuned or heuristic) Plan and the owned pool, behind
  /// full operand validation and the degradation ladder documented above.
  /// On a non-OK return C is either untouched (validation errors) or
  /// explicitly unspecified (kResourceExhausted/kInternal from a fault
  /// mid-parallel-execution; the message says so).
  Status run(common::ConstMatrixView a, common::ConstMatrixView b,
             common::MatrixView c, const GemmExParams& params = {});

  /// As run(), with A promised constant across calls: its offline-packed
  /// form (PackedA) is cached under A's data pointer + shape and the
  /// plan's (mc, kc) blocking, so a shape whose plan changes (a published
  /// record) repacks instead of reading a stale layout. The cached
  /// fast path requires canonical operands (no transposes, alpha = 1);
  /// other params fall back to the plain run() path. Conv-as-GEMM weight
  /// matrices are the motivating caller.
  Status run_const_a(common::ConstMatrixView a, common::ConstMatrixView b,
                     common::MatrixView c, const GemmExParams& params = {});

  /// As run(), with B promised constant across calls (cached PackedB,
  /// keyed by the plan's (kc, nc) blocking).
  Status run_const_b(common::ConstMatrixView a, common::ConstMatrixView b,
                     common::MatrixView c, const GemmExParams& params = {});

  /// Quantized int8 entry point with B promised constant across calls:
  /// C = alpha * deq(q(A) * q(B)) + beta * C with symmetric per-channel
  /// int8 quantization of both fp32 operands and exact int32 accumulation
  /// (quant/qgemm.hpp; the accuracy contract — relative Frobenius error
  /// <= 1e-2 vs an fp64 reference — lives there). No transposes: operands
  /// are taken canonical. B's quantized packed form (quant::QPackedB —
  /// int8 blocks + per-column scales) is cached in the same pointer-keyed
  /// LRU as the fp32 PackedA/PackedB entries, under the same
  /// invalidate(ptr)/clear() contract; fp32 and int8 packings of the same
  /// buffer coexist (the cache key carries the dtype). int8 calls never
  /// touch the plan cache, plan stats or strategy counters. The call runs
  /// on the owned pool (quant::qgemm's panel split) with the same bits as
  /// a serial one. int8 batch members (run_batched) run through exactly
  /// this path and make the same constant-B promise. DNN weight matrices
  /// served at int8 are the motivating caller.
  Status run_const_b_i8(common::ConstMatrixView a, common::ConstMatrixView b,
                        common::MatrixView c, float alpha = 1.0f,
                        float beta = 1.0f);

  /// C_i += A_i * B_i at each item's dtype, through the cached per-shape
  /// plans and the owned pool. The whole batch is validated up front
  /// (per-member operands and dtype plus cross-member aliasing — see
  /// validate_batch in core/batched.hpp) before any C is written;
  /// kInvalidArgument leaves every C untouched. Degenerate members
  /// (M, N or K of zero) are well-defined accumulate no-ops. Members run
  /// in (shape, dtype) groups, one group after another; the first failing
  /// group's Status is the batch's. In an fp32 group, members that share
  /// an A (or B) operand amortize packing: the shared operand is packed
  /// once for the group and reused by every member — the serve engine's
  /// shape-bucketed streams are the motivating traffic — and on a pool
  /// several members run whole, in parallel. An int8 member is exactly a
  /// run_const_b_i8 call at alpha = beta = 1: its B is promised constant
  /// and its QPackedB cached. Each group is timed once and every member
  /// observes its share in autogemm_gemm_seconds{shape,dtype};
  /// quarantine/reference pins and the degradation ladder apply per shape
  /// exactly as in run().
  Status run_batched(const std::vector<BatchItem>& items);

  /// run_batched minus the whole-batch validation pass, for callers that
  /// have already established the batch invariants (per-member validity
  /// via validate_batch_item and cross-member disjointness via
  /// find_cross_member_conflicts). The serve engine validates each
  /// request once at admission and sweeps conflicts at dispatch; paying
  /// validate_batch again per dispatch is measurable at serving rates
  /// (see bench_serve). Behavior on an *invalid* batch is undefined here
  /// — external callers should use run_batched.
  Status run_batched_prevalidated(const std::vector<BatchItem>& items);

  /// Plan for a shape: tuned record (exact, then nearest) over the
  /// heuristic default, LRU-cached, quarantined configs skipped. Shared so
  /// a caller can keep executing a plan that gets evicted mid-flight. For
  /// a shape pinned to the reference path this still returns the heuristic
  /// plan (callers driving the Plan-level gemm() need one); run() is where
  /// the reference pin is honored.
  std::shared_ptr<const Plan> plan_for(int m, int n, int k);

  /// Drops every cached packed operand built from `data` (call after
  /// mutating or freeing a buffer previously passed to run_const_*).
  /// Returns the number of entries dropped.
  std::size_t invalidate(const void* data);

  /// Drops the cached Plan for one shape so the next call re-resolves it
  /// through the full candidate ladder (tuned exact -> nearest ->
  /// heuristic). This is the shape-keyed counterpart to invalidate(ptr):
  /// without it a shape resolved heuristically before a record existed
  /// stays pinned to that plan for the cache's lifetime. Quarantine and
  /// verification state survive — a poisoned config stays poisoned.
  /// Returns true if an entry was dropped.
  bool invalidate_plan(int m, int n, int k);

  /// Publishes a tuned candidate into the live context: inserts it into
  /// the in-memory records table (kept only if `cost` beats any stored
  /// record for the shape under this context's backend — the candidate's
  /// backend field is pinned to backend_id() first), bumps the records
  /// generation so every cached plan re-resolves on its next hit (nearest
  /// -shape neighbors refresh too), and drops this shape's cached entry so
  /// the very next request executes the published config. The critical
  /// section is a map insert plus one list erase — safe to call from a
  /// background tuner while the dispatcher is serving. Returns true if the
  /// record was stored (false: an equal-or-better record already existed).
  /// Persistence is the caller's job (records_snapshot + save_file_merged).
  bool publish_record(int m, int n, int k, const tune::Candidate& candidate,
                      double cost);

  /// True when the records table holds an exact-shape record for this
  /// context's backend — the online tuner's "already tuned" test.
  bool has_exact_record(int m, int n, int k) const;

  /// Thread-safe copy of the records table (the publication target of
  /// publish_record), for persistence via TuningRecords::save_file_merged.
  tune::TuningRecords records_snapshot() const;

  /// Drops all cached plans and packed operands (stats, quarantine and
  /// health are kept — a poisoned config stays poisoned).
  void clear();

  /// Owned pool; nullptr when the context is serial (threads == 1) or the
  /// pool has been quarantined after a worker fault. Created lazily on
  /// first use.
  common::ThreadPool* pool();

  ContextStats stats() const;
  /// Degradation snapshot (see HealthReport).
  HealthReport health() const;

  std::size_t plan_cache_size() const;
  std::size_t packed_cache_size() const;
  /// Direct reference to the records table. Unsynchronized: publish_record
  /// mutates the table under the context lock, so this reference is only
  /// safe while no concurrent publisher (e.g. a running OnlineTuner) is
  /// attached — use records_snapshot() otherwise.
  const tune::TuningRecords& records() const { return records_; }
  /// The backend this context resolved at construction (never kAuto).
  backend::BackendId backend_id() const { return backend_; }
  const ContextOptions& options() const { return opts_; }

 private:
  struct ShapeKey {
    int m = 0, n = 0, k = 0;
    auto operator<=>(const ShapeKey&) const = default;
  };
  /// Identity of a GemmConfig for verification/quarantine bookkeeping.
  /// Includes the backend: the same blocking verified under NEON says
  /// nothing about the SVE instruction stream for that tile, and vice
  /// versa, so quarantine entries never cross backends.
  struct ConfigKey {
    int mc = 0, nc = 0, kc = 0;
    int loop_order = 0, packing = 0, tiling = 0, lanes = 0;
    int backend = 0;
    auto operator<=>(const ConfigKey&) const = default;
  };
  /// The operand a call promises constant across calls (its packed form
  /// is cached).
  enum class Constant : std::uint8_t { kNone, kA, kB };
  /// One single GEMM call, as every single-call entry point describes it
  /// to execute().
  struct Call {
    common::ConstMatrixView a;
    common::ConstMatrixView b;
    common::MatrixView c;
    GemmExParams params;
    common::DType dtype = common::DType::kF32;
    Constant constant = Constant::kNone;
  };
  struct PackedKey {
    const void* data = nullptr;
    int rows = 0, cols = 0, ld = 0;
    Constant operand = Constant::kNone;
    /// Packing tier the entry was built for: fp32 (PackedA/PackedB) and
    /// int8 (quant::QPackedB) packings of the same buffer are distinct
    /// cache lines; invalidate(ptr) drops both.
    common::DType dtype = common::DType::kF32;
    /// The blocking the packed layout depends on: (mc, kc) for A, (nc, kc)
    /// for B, zero for int8 (QPackedB is independent of any plan). Keying
    /// on the layout, not the whole config, lets plans that block the
    /// operand alike share one packing.
    int block_mn = 0, block_k = 0;
    auto operator<=>(const PackedKey&) const = default;
  };
  /// One cached packing; the member matching the key's operand and dtype
  /// is set (none when the packing did not fit and the unpacked path
  /// serves).
  struct PackedOperand {
    std::shared_ptr<const PackedA> a;
    std::shared_ptr<const PackedB> b;
    std::shared_ptr<const quant::QPackedB> qb;
  };
  /// A cached, verified resolution for one shape. `plan == nullptr` means
  /// the shape is pinned to the reference path. `latency` is the shape's
  /// {shape=...,dtype="f32"} latency series in the process-wide obs
  /// registry (stable for the registry's lifetime, so caching the pointer
  /// is safe).
  struct PlanEntry {
    std::shared_ptr<const Plan> plan;
    obs::Histogram* latency = nullptr;
    /// records_gen_ observed when this entry resolved. A hit whose
    /// generation is behind the live counter is stale — the records table
    /// changed since — and re-resolves as a miss.
    std::uint64_t generation = 0;
  };

  /// Same-(shape, dtype) members as both paths hand them to run_group(): a
  /// single call is a group of one on the caller's stack, a batch one
  /// group per distinct (shape, dtype). fp32 groups carry the shape's plan
  /// entry and any operand packed once for every member; their beta is
  /// already applied to C, while int8 folds params.beta into requantization.
  struct Group {
    const detail::GroupMember* members = nullptr;
    std::size_t count = 0;
    common::DType dtype = common::DType::kF32;
    int m = 0, n = 0, k = 0;
    GemmExParams params;
    PlanEntry entry{};
    const PackedA* packed_a = nullptr;
    const PackedB* packed_b = nullptr;
  };

  PlanEntry entry_for(int m, int n, int k);
  /// The single-call path: validate, degenerate shapes, the plan and
  /// cached packing (fp32), beta, then run_group on a group of one.
  Status execute(const Call& call);
  /// The group executor (see "One execution path"): notes the fp32
  /// strategy, times the group (each member observes its share), counts
  /// calls/flops/dispatches and turns a fault into a Status. A scratch
  /// allocation failure before any fp32 C is written is served by the
  /// reference tier, as is a pinned shape (no plan); a later fault returns
  /// non-OK and, on a pool, retires it.
  Status run_group(const Group& g);
  /// The Status of a fault that may have come after some C was written:
  /// C is unspecified for the call. On a pool the fault may have hit any
  /// worker, so `pooled` also retires the pool and later calls run serial.
  Status execution_fault(bool pooled, StatusCode code,
                         const std::string& what, const std::string& shape);
  /// Cached packing of the constant operand `v` (`operand` A or B) for
  /// `plan` (fp32) or for the int8 tier (plan unused). A packing that does
  /// not fit is recorded as an alloc-fallback event and returned empty.
  StatusOr<PackedOperand> packed_for(common::ConstMatrixView v,
                                     Constant operand, common::DType dtype,
                                     const Plan* plan);
  Status run_batched_impl(const std::vector<BatchItem>& items, bool validate);
  Status verify_config(const Plan& plan);
  common::ThreadPool* effective_pool();
  /// Counts one fp32 group's members as backend dispatches and the
  /// schedule it runs: serial without a plan or a pool, member-parallel
  /// (counted as blocks-only) for several members, else
  /// choose_parallel_strategy's pick.
  void note_strategy(const Plan* plan, const common::ThreadPool* pool,
                     std::size_t count);
  void record_event(HealthEvent::Kind kind, std::string detail);
  Status record_error(Status s);  // stores non-OK into health, passes through

  const ContextOptions opts_;
  /// Resolved at construction from opts_.backend (kAuto -> env/registry).
  backend::BackendId backend_ = backend::BackendId::kNeon;
  std::uint64_t records_skipped_ = 0;  // set before records_ loads
  /// Mutated only by publish_record (under mu_); every read on the plan
  /// resolution path also holds mu_. The records() accessor hands out an
  /// unsynchronized reference — see its comment.
  tune::TuningRecords records_;

  mutable std::mutex mu_;
  /// Bumped by publish_record under mu_; PlanEntry::generation snapshots
  /// it at resolve so stale cache hits re-resolve.
  std::uint64_t records_gen_ = 0;
  // Plan LRU: list front = most recently used; index into the list.
  std::list<std::pair<ShapeKey, PlanEntry>> plan_lru_;
  std::map<ShapeKey, decltype(plan_lru_)::iterator> plan_index_;
  std::list<std::pair<PackedKey, PackedOperand>> packed_lru_;
  std::map<PackedKey, decltype(packed_lru_)::iterator> packed_index_;
  ContextStats stats_;

  // Verification/quarantine state (guarded by mu_).
  std::map<ConfigKey, std::string> quarantined_;  // key -> reason
  std::map<ConfigKey, bool> verified_;            // probes already passed
  HealthReport health_;                           // counters + event log

  std::atomic<bool> pool_degraded_{false};
  std::once_flag pool_once_;
  std::unique_ptr<common::ThreadPool> pool_;
};

/// Process-wide context backing the free-function API. Deliberately
/// serial (threads = 1) so the historical behavior of the free functions
/// is preserved exactly; construct your own Context to opt into the pool.
Context& default_context();

/// Cardinality cap for the per-shape latency series
/// (autogemm_gemm_seconds{shape="MxNxK",dtype=...}): shape labels are
/// assigned first-come-first-served to the first `cap` distinct shapes a
/// process executes; every later shape shares the "other" label in every
/// dtype series. The cap bounds registry growth under an adversarial shape
/// stream — it does NOT track hotness, so a shape that becomes hot after
/// the cap fills stays aggregated under "other" forever (which is why the
/// online tuner ranks hot shapes from the serve engine's per-shape request
/// accounting, never from these labels). Initialized from
/// AUTOGEMM_SHAPE_LABEL_CAP (default 128); raising the cap at runtime
/// admits new labels, lowering it never evicts already-assigned ones. Every
/// call lands in exactly one series of the family, so the family total
/// (obs::Registry::histogram_total) counts every call regardless of the
/// cap.
void set_shape_label_cap(std::size_t cap);
std::size_t shape_label_cap();

}  // namespace autogemm
