#include "obs/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>

namespace autogemm::obs {

namespace detail {

unsigned shard_slot() noexcept {
  static std::atomic<unsigned> next{0};
  static thread_local unsigned slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace detail

double Histogram::bucket_bound(int i) const noexcept {
  if (i >= kBuckets - 1) return std::numeric_limits<double>::infinity();
  return scale_ * static_cast<double>(1ull << i);
}

int Histogram::bucket_index(double v) const noexcept {
  // NaN and everything <= scale land in bucket 0; the negated comparison
  // routes NaN there instead of UB in frexp-based math.
  if (!(v > scale_)) return 0;
  int exp = 0;
  const double mant = std::frexp(v / scale_, &exp);  // v/scale = mant * 2^exp
  // mant in [0.5, 1): v/scale == 2^(exp-1) exactly when mant == 0.5, which
  // belongs to bucket exp-1 (bounds are inclusive).
  const int idx = (mant == 0.5) ? exp - 1 : exp;
  if (idx < 0) return 0;
  return idx < kBuckets ? idx : kBuckets - 1;
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.scale = scale_;
  for (int i = 0; i < kBuckets; ++i)
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

void Histogram::Snapshot::merge(const Snapshot& other) {
  if (scale != other.scale)
    throw std::invalid_argument(
        "Histogram::Snapshot::merge: scales differ; buckets are not aligned");
  for (int i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum += other.sum;
}

double Histogram::Snapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  const std::uint64_t target = static_cast<std::uint64_t>(
      q * static_cast<double>(count));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets[i];
    if (seen > target)
      return i >= kBuckets - 1 ? scale * static_cast<double>(1ull << (kBuckets - 1))
                               : scale * static_cast<double>(1ull << i);
  }
  return scale * static_cast<double>(1ull << (kBuckets - 1));
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name, double scale) {
  std::lock_guard lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(scale);
  return *slot;
}

std::size_t Registry::counter_count() const {
  std::lock_guard lock(mu_);
  return counters_.size();
}

std::size_t Registry::histogram_count() const {
  std::lock_guard lock(mu_);
  return histograms_.size();
}

namespace {

/// Splits "name{label=\"v\"}" into its base name and label block.
void split_labels(const std::string& name, std::string& base,
                  std::string& labels) {
  const auto brace = name.find('{');
  if (brace == std::string::npos) {
    base = name;
    labels.clear();
    return;
  }
  base = name.substr(0, brace);
  labels = name.substr(brace + 1);
  if (!labels.empty() && labels.back() == '}') labels.pop_back();
}

void append_type_line(std::string& out, const std::string& base,
                      const char* kind, std::string& last_base) {
  if (base == last_base) return;  // one TYPE line per family
  out += "# TYPE " + base + " " + kind + "\n";
  last_base = base;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Calls fn(metric) for every series of `family` carrying each whole
/// `k="v"` label of `filter`. Series of one family are contiguous in the
/// sorted map.
template <typename Map, typename Fn>
void for_each_series(const Map& series, const std::string& family,
                     const std::string& filter, Fn fn) {
  std::string base, labels;
  for (auto it = series.lower_bound(family); it != series.end(); ++it) {
    if (it->first.compare(0, family.size(), family) != 0) break;
    split_labels(it->first, base, labels);
    if (base != family) continue;  // a longer family sharing the prefix
    const std::string have = "," + labels + ",";
    bool match = true;
    // Each filter label ends at a closing quote followed by ',' or the end.
    for (std::size_t b = 0, e; match && b < filter.size(); b = e + 2) {
      e = filter.find("\",", b);
      if (e == std::string::npos) e = filter.size() - 1;
      match = have.find("," + filter.substr(b, e + 1 - b) + ",") !=
              std::string::npos;
    }
    if (match) fn(*it->second);
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::uint64_t Registry::counter_total(const std::string& family,
                                      const std::string& filter) const {
  std::lock_guard lock(mu_);
  std::uint64_t total = 0;
  for_each_series(counters_, family, filter,
                  [&](const Counter& c) { total += c.value(); });
  return total;
}

double Registry::gauge_total(const std::string& family,
                             const std::string& filter) const {
  std::lock_guard lock(mu_);
  double total = 0;
  for_each_series(gauges_, family, filter,
                  [&](const Gauge& g) { total += g.value(); });
  return total;
}

Histogram::Snapshot Registry::histogram_total(const std::string& family,
                                              const std::string& filter) const {
  std::lock_guard lock(mu_);
  std::optional<Histogram::Snapshot> total;
  for_each_series(histograms_, family, filter, [&](const Histogram& h) {
    if (total) total->merge(h.snapshot());
    else total = h.snapshot();
  });
  return total.value_or(Histogram::Snapshot{});
}

std::string Registry::prometheus_text() const {
  std::lock_guard lock(mu_);
  std::string out;
  std::string base, labels, last_base;
  for (const auto& [name, c] : counters_) {
    split_labels(name, base, labels);
    append_type_line(out, base, "counter", last_base);
    out += name + " " + std::to_string(c->value()) + "\n";
  }
  last_base.clear();
  for (const auto& [name, g] : gauges_) {
    split_labels(name, base, labels);
    append_type_line(out, base, "gauge", last_base);
    out += name + " " + format_double(g->value()) + "\n";
  }
  last_base.clear();
  for (const auto& [name, h] : histograms_) {
    split_labels(name, base, labels);
    append_type_line(out, base, "histogram", last_base);
    const auto snap = h->snapshot();
    std::uint64_t cumulative = 0;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      cumulative += snap.buckets[i];
      const std::string le =
          i == Histogram::kBuckets - 1 ? "+Inf"
                                       : format_double(h->bucket_bound(i));
      const std::string label_block =
          labels.empty() ? "le=\"" + le + "\"" : labels + ",le=\"" + le + "\"";
      out += base + "_bucket{" + label_block + "} " +
             std::to_string(cumulative) + "\n";
    }
    const std::string suffix = labels.empty() ? "" : "{" + labels + "}";
    out += base + "_sum" + suffix + " " + format_double(snap.sum) + "\n";
    out += base + "_count" + suffix + " " + std::to_string(snap.count) + "\n";
  }
  return out;
}

std::string Registry::json() const {
  std::lock_guard lock(mu_);
  std::string out = "{\"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + json_escape(name) + "\": " + std::to_string(c->value());
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + json_escape(name) + "\": " + format_double(g->value());
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ", ";
    first = false;
    const auto snap = h->snapshot();
    out += "\"" + json_escape(name) + "\": {\"count\": " +
           std::to_string(snap.count) + ", \"sum\": " + format_double(snap.sum) +
           ", \"buckets\": [";
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      if (i > 0) out += ", ";
      const std::string le =
          i == Histogram::kBuckets - 1 ? "+Inf"
                                       : format_double(h->bucket_bound(i));
      out += "{\"le\": \"" + le + "\", \"count\": " +
             std::to_string(snap.buckets[i]) + "}";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

Registry& default_registry() {
  static Registry r;
  return r;
}

}  // namespace autogemm::obs
