#include "serve/load_gen.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>
#include <utility>

#include "common/matrix.hpp"
#include "common/timer.hpp"

namespace autogemm::serve {

namespace {

/// splitmix64 — all generator randomness is a pure function of the seed
/// (same source the chaos harness uses).
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }
};

void fill(common::Matrix& mat, Rng& rng) {
  for (int r = 0; r < mat.rows(); ++r)
    for (int c = 0; c < mat.cols(); ++c)
      mat.at(r, c) = static_cast<float>(rng.uniform() * 2.0 - 1.0);
}

/// Yield-spin to an absolute common::now_ns() time: sleep_for overshoots
/// by scheduler quanta at the arrival gaps the sweep uses, and the whole
/// point of an open-loop schedule is that arrivals land on time.
void wait_until_ns(std::uint64_t due) {
  while (common::now_ns() < due) std::this_thread::yield();
}

/// Per-request completion slot. submit_ns/done_ns/code are published
/// before `done` (release) and read after observing it (acquire).
struct Slot {
  std::uint64_t submit_ns = 0;
  std::uint64_t done_ns = 0;
  StatusCode code = StatusCode::kInternal;
  Lane lane = Lane::kBulk;
  common::DType dtype = common::DType::kF32;
  std::atomic<bool> done{false};
};

void count_outcome(LaneOutcomes& lane, StatusCode code) {
  switch (code) {
    case StatusCode::kOk: ++lane.ok; break;
    case StatusCode::kUnavailable: ++lane.shed; break;
    case StatusCode::kResourceExhausted: ++lane.rejected; break;
    case StatusCode::kDeadlineExceeded: ++lane.expired; break;
    default: ++lane.errors; break;
  }
}

double quantile_ms(std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted_ms.size() - 1) + 0.5);
  return sorted_ms[std::min(idx, sorted_ms.size() - 1)];
}

}  // namespace

std::string LoadReport::summary() const {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "load: offered=%.0f/s achieved=%.0f/s goodput=%.0f/s ok=%llu "
      "shed=%llu rejected=%llu expired=%llu errors=%llu p50=%.3fms "
      "p99=%.3fms unresolved=%llu",
      offered_rps, achieved_rps, goodput_rps,
      static_cast<unsigned long long>(total_ok()),
      static_cast<unsigned long long>(total_shed()),
      static_cast<unsigned long long>(interactive.rejected + bulk.rejected),
      static_cast<unsigned long long>(interactive.expired + bulk.expired),
      static_cast<unsigned long long>(interactive.errors + bulk.errors),
      p50_ms, p99_ms, static_cast<unsigned long long>(unresolved));
  return buf;
}

std::vector<std::uint64_t> arrival_offsets_ns(const LoadGenOptions& opts) {
  const double rate = std::max(opts.offered_rps, 1e-3);
  std::vector<std::uint64_t> out(opts.requests, 0);
  if (opts.arrivals == ArrivalProcess::kFixedRate) {
    const double gap_ns = 1e9 / rate;
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] = static_cast<std::uint64_t>(gap_ns * static_cast<double>(i));
    return out;
  }
  // Poisson arrivals: exponential inter-arrival gaps, -ln(1-u)/rate.
  // uniform() < 1 strictly, so the log argument stays in (0, 1].
  Rng rng(opts.seed ^ 0xC2B2AE3D27D4EB4Full);
  double t_ns = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint64_t>(t_ns);
    t_ns += -std::log(1.0 - rng.uniform()) * 1e9 / rate;
  }
  return out;
}

LoadReport run_open_loop(const SubmitFn& submit,
                         const std::vector<LoadShape>& shapes,
                         const LoadGenOptions& opts) {
  LoadReport rep;
  rep.offered_rps = opts.offered_rps;
  rep.requests = opts.requests;
  if (!submit || shapes.empty() || opts.requests == 0) return rep;

  // --- fixture: operands, per-request Cs, the whole workload — built
  // before the clock starts, so the generator's inner loop only paces and
  // submits. ---
  Rng rng(opts.seed * 1000003ull + 17ull);
  struct Operand {
    common::Matrix a, b;
  };
  std::vector<Operand> operands;
  operands.reserve(shapes.size());
  double total_weight = 0.0;
  for (const LoadShape& s : shapes) {
    operands.push_back(Operand{common::Matrix(s.m, s.k),
                               common::Matrix(s.k, s.n)});
    fill(operands.back().a, rng);
    fill(operands.back().b, rng);
    total_weight += std::max(0.0, s.weight);
  }
  if (total_weight <= 0.0) total_weight = static_cast<double>(shapes.size());

  const std::size_t n = opts.requests;
  std::vector<std::size_t> shape_of(n);
  std::vector<common::Matrix> cs;
  cs.reserve(n);
  std::vector<Slot> slots(n);
  for (std::size_t i = 0; i < n; ++i) {
    double pick = rng.uniform() * total_weight;
    std::size_t si = 0;
    for (; si + 1 < shapes.size(); ++si) {
      const double w = std::max(0.0, shapes[si].weight);
      if (pick < w) break;
      pick -= w;
    }
    shape_of[i] = si;
    cs.emplace_back(shapes[si].m, shapes[si].n);
    slots[i].lane = rng.uniform() < opts.interactive_fraction
                        ? Lane::kInteractive
                        : Lane::kBulk;
    slots[i].dtype = shapes[si].dtype;
  }
  const std::vector<std::uint64_t> schedule = arrival_offsets_ns(opts);

  // --- the open loop ---
  std::atomic<std::uint64_t> completed{0};
  const std::uint64_t start_ns = common::now_ns();
  std::uint64_t last_submit_ns = start_ns;
  for (std::size_t i = 0; i < n; ++i) {
    wait_until_ns(start_ns + schedule[i]);
    const Operand& op = operands[shape_of[i]];
    GemmRequest req;
    req.a = op.a.view();
    req.b = op.b.view();
    req.c = cs[i].view();
    req.dtype = slots[i].dtype;
    req.lane = slots[i].lane;
    const std::uint64_t now = common::now_ns();
    if (opts.deadline_rel_ns != 0) req.deadline_ns = now + opts.deadline_rel_ns;
    slots[i].submit_ns = now;
    last_submit_ns = now;
    Slot* slot = &slots[i];
    submit(req, [slot, &completed](Status s) {
      slot->done_ns = common::now_ns();
      slot->code = s.code();
      slot->done.store(true, std::memory_order_release);
      completed.fetch_add(1, std::memory_order_release);
    });
  }

  // --- drain: completions decouple from arrivals, so wait them out ---
  const std::uint64_t give_up_ns = last_submit_ns + opts.completion_timeout_ns;
  while (completed.load(std::memory_order_acquire) < n &&
         common::now_ns() < give_up_ns)
    std::this_thread::sleep_for(std::chrono::microseconds(100));

  // --- aggregate ---
  std::vector<double> ok_ms;
  std::vector<double> f32_ms, i8_ms;
  ok_ms.reserve(n);
  std::uint64_t last_done_ns = last_submit_ns;
  for (std::size_t i = 0; i < n; ++i) {
    LaneOutcomes& lane =
        slots[i].lane == Lane::kInteractive ? rep.interactive : rep.bulk;
    DtypeOutcomes& tier =
        slots[i].dtype == common::DType::kI8 ? rep.i8 : rep.f32;
    ++lane.submitted;
    ++tier.submitted;
    if (!slots[i].done.load(std::memory_order_acquire)) {
      ++rep.unresolved;
      continue;
    }
    count_outcome(lane, slots[i].code);
    last_done_ns = std::max(last_done_ns, slots[i].done_ns);
    if (slots[i].code == StatusCode::kOk) {
      ++tier.ok;
      const double ms =
          static_cast<double>(slots[i].done_ns - slots[i].submit_ns) * 1e-6;
      ok_ms.push_back(ms);
      (slots[i].dtype == common::DType::kI8 ? i8_ms : f32_ms).push_back(ms);
    }
  }
  const double submit_span_s =
      static_cast<double>(last_submit_ns - start_ns) * 1e-9;
  rep.achieved_rps = n >= 2 && submit_span_s > 0
                         ? static_cast<double>(n - 1) / submit_span_s
                         : opts.offered_rps;
  rep.elapsed_s =
      std::max(1e-9, static_cast<double>(last_done_ns - start_ns) * 1e-9);
  rep.goodput_rps = static_cast<double>(rep.total_ok()) / rep.elapsed_s;
  std::sort(ok_ms.begin(), ok_ms.end());
  rep.p50_ms = quantile_ms(ok_ms, 0.50);
  rep.p99_ms = quantile_ms(ok_ms, 0.99);
  rep.max_ms = ok_ms.empty() ? 0.0 : ok_ms.back();
  const auto tier_stats = [&rep](std::vector<double>& ms,
                                 DtypeOutcomes& tier) {
    std::sort(ms.begin(), ms.end());
    tier.goodput_rps = static_cast<double>(tier.ok) / rep.elapsed_s;
    tier.p50_ms = quantile_ms(ms, 0.50);
    tier.p99_ms = quantile_ms(ms, 0.99);
  };
  tier_stats(f32_ms, rep.f32);
  tier_stats(i8_ms, rep.i8);
  return rep;
}

}  // namespace autogemm::serve
