// autogemm::obs metrics — always-on counters, gauges, and histograms.
//
// The paper attributes cycles to phases (packing vs. micro-kernel vs.
// write-back, §III); a serving deployment of this library needs the same
// attribution continuously and cheaply. This registry is the always-on
// half of the obs subsystem (the sampled half is trace.hpp):
//
//   * Counter — monotonic, sharded across cache lines so concurrent
//     workers increment without bouncing one line; reads sum the shards
//     and are exact once writers quiesce (relaxed atomics, no locks).
//   * Gauge — last-write-wins double (pool size, cache occupancy).
//   * Histogram — log2-bucketed (bucket i spans (scale*2^(i-1),
//     scale*2^i]); with the default scale of 1 microsecond the 32 buckets
//     cover 1 us .. ~4000 s, which brackets any GEMM this repo serves.
//     Snapshots merge, so per-context or per-period snapshots can be
//     aggregated offline.
//
// Metric names follow Prometheus conventions and may carry a label block
// baked into the name
// ("autogemm_gemm_seconds{shape=\"64x64x64\",dtype=\"f32\"}");
// exporters keep it intact. Handles returned by the registry are stable
// for the registry's lifetime — resolve once, increment forever.
//
// One family per metric: every instrumentation site increments exactly
// one series, the most-labeled one. Totals are aggregated on read — by
// the scraper from the exported series, or in-process by
// Registry::*_total with an optional label filter.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace autogemm::obs {

namespace detail {
/// Shard slot for the calling thread: threads are striped over shards at
/// first use, so a fixed worker set hits disjoint cache lines.
unsigned shard_slot() noexcept;
}  // namespace detail

class Counter {
 public:
  static constexpr unsigned kShards = 16;

  void add(std::uint64_t delta = 1) noexcept {
    cells_[detail::shard_slot() & (kShards - 1)].v.fetch_add(
        delta, std::memory_order_relaxed);
  }

  /// Sum over shards: exact once concurrent writers have quiesced.
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, kShards> cells_{};
};

class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

class Histogram {
 public:
  static constexpr int kBuckets = 32;

  /// `scale` is the upper bound of bucket 0; bucket i's upper bound is
  /// scale * 2^i, and the last bucket absorbs everything above.
  explicit Histogram(double scale = 1e-6) : scale_(scale) {}

  /// Records `n` samples of value `v`.
  void observe(double v, std::uint64_t n = 1) noexcept {
    buckets_[bucket_index(v)].fetch_add(n, std::memory_order_relaxed);
    count_.fetch_add(n, std::memory_order_relaxed);
    sum_.fetch_add(v * static_cast<double>(n), std::memory_order_relaxed);
  }

  /// Upper bound of bucket i (inclusive); +infinity for the last bucket.
  double bucket_bound(int i) const noexcept;

  /// Bucket that `v` lands in: first i with v <= bucket_bound(i). Exact at
  /// power-of-two boundaries (no log() rounding).
  int bucket_index(double v) const noexcept;

  struct Snapshot {
    std::array<std::uint64_t, kBuckets> buckets{};
    std::uint64_t count = 0;
    double sum = 0;
    double scale = 1e-6;

    /// Element-wise accumulate; both snapshots must share a scale.
    void merge(const Snapshot& other);
    /// Upper bound estimate of quantile q in [0, 1] from the buckets.
    double quantile(double q) const;
  };
  Snapshot snapshot() const;

  double scale() const noexcept { return scale_; }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  double scale_;
};

/// Name-keyed metric store. Acquisition takes a lock (do it once, at a
/// cold site); the returned references stay valid for the registry's
/// lifetime and their operations are lock-free.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, double scale = 1e-6);

  /// Family totals, aggregated on read: the sum over every series of
  /// `family` (the name before any label block) whose labels include each
  /// `k="v"` of `filter` — "" matches every series; several labels are
  /// comma-separated in any order and match whole labels only (shard="1"
  /// never matches shard="10" or xshard="1"). An absent family reads 0 (an
  /// empty snapshot for histograms). Reads never create a series.
  std::uint64_t counter_total(const std::string& family,
                              const std::string& filter = "") const;
  double gauge_total(const std::string& family,
                     const std::string& filter = "") const;
  Histogram::Snapshot histogram_total(const std::string& family,
                                      const std::string& filter = "") const;

  std::size_t counter_count() const;
  std::size_t histogram_count() const;

  /// Prometheus text exposition (counters as `counter`, gauges as `gauge`,
  /// histograms as cumulative `_bucket`/`_sum`/`_count` series). Names
  /// carrying a label block export with the labels in place.
  std::string prometheus_text() const;

  /// The same snapshot as one JSON object:
  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  std::string json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The process-wide registry every built-in instrumentation site reports
/// to; exporters (CLI `trace` command, bench --json-out) read it.
Registry& default_registry();

}  // namespace autogemm::obs
