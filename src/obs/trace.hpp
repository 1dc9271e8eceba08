// autogemm::obs tracing — sampled phase spans, exported as Chrome traces.
//
// The sampled half of the obs subsystem (metrics.hpp is the always-on
// half). Each thread that records spans owns a fixed-size ring buffer
// lane: recording is a couple of relaxed atomics plus a clock read and
// never allocates or locks on the hot path, and when tracing is disabled
// a span site costs exactly one relaxed load and a branch. The ring makes
// the trace a *sample* — the last `capacity` spans per lane survive —
// which is the property that lets instrumentation stay resident in a
// serving process.
//
// Enablement: set AUTOGEMM_TRACE=1 in the environment (read once at first
// query) or call set_trace_enabled().
//
// Export is Chrome trace-event JSON (open in chrome://tracing or
// https://ui.perfetto.dev): host threads render as lanes under pid 1,
// and simulated runs (sim::simulate_checked maps its cycle accounting
// through emit_virtual_span) under pid 2, so a simulated kernel and the
// host run that invoked it sit on one timeline. tools/trace_report.py
// turns the same file into the paper's phase-breakdown table.
//
// Epochs: clear() bumps a global epoch instead of touching every lane;
// lanes lazily reset when they next record. Exporting while spans are
// being recorded is safe but may miss in-flight spans; export after the
// work you care about has joined.
#pragma once

#include <cstdint>
#include <string>

#include "common/timer.hpp"

namespace autogemm::obs {

/// Global tracing switch. Reads AUTOGEMM_TRACE from the environment on
/// first query; set_trace_enabled() overrides in either direction.
bool trace_enabled() noexcept;
void set_trace_enabled(bool on) noexcept;

/// One completed span in a thread lane's ring buffer.
struct Span {
  const char* name = nullptr;  ///< static-lifetime literal
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t depth = 0;  ///< nesting level within the thread
  std::uint64_t arg0 = 0, arg1 = 0;
};

namespace detail {
/// Increments the calling thread's nesting depth; returns the span's own
/// depth. Paired with record_span which decrements.
std::uint32_t enter_span() noexcept;
void record_span(const char* name, std::uint64_t begin_ns,
                 std::uint64_t end_ns, std::uint32_t depth, std::uint64_t arg0,
                 std::uint64_t arg1) noexcept;
}  // namespace detail

/// RAII span: records [construction, destruction) into the calling
/// thread's lane when tracing is enabled; near-free when disabled. `name`
/// must be a static-lifetime string literal (the ring stores the pointer).
class SpanScope {
 public:
  explicit SpanScope(const char* name, std::uint64_t arg0 = 0,
                     std::uint64_t arg1 = 0) noexcept {
    if (!trace_enabled()) return;
    name_ = name;
    arg0_ = arg0;
    arg1_ = arg1;
    depth_ = detail::enter_span();
    begin_ns_ = common::now_ns();
  }
  ~SpanScope() {
    if (name_ != nullptr)
      detail::record_span(name_, begin_ns_, common::now_ns(), depth_, arg0_,
                          arg1_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t begin_ns_ = 0;
  std::uint64_t arg0_ = 0, arg1_ = 0;
  std::uint32_t depth_ = 0;
};

/// Names the calling thread's lane in the exported trace ("worker-3",
/// "caller"). Cheap and idempotent; call from inside a parallel region
/// (only when tracing is enabled — callers usually guard).
void name_this_lane(const char* name) noexcept;
/// Convenience for pool regions: slot == participants-1 is the submitting
/// caller, everything below a pool worker.
void name_this_lane_worker(int slot, unsigned participants) noexcept;

/// Microseconds since the trace origin (process start or last clear) —
/// the timestamp base virtual spans anchor to.
double trace_now_us() noexcept;

/// Appends a span on a named virtual lane (pid 2 in the export). Used by
/// the pipeline simulator to place simulated cycle accounting on the
/// shared timeline; takes a lock, not for hot paths.
void emit_virtual_span(const std::string& lane, const std::string& name,
                       double ts_us, double dur_us);

class Tracer {
 public:
  static Tracer& instance();

  /// Drops all recorded spans (host lanes via an epoch bump, virtual
  /// lanes eagerly) and restarts the trace clock origin.
  void clear();

  /// Ring capacity (spans per lane) for lanes created or reset after the
  /// call. Call between traces, not while spans are being recorded.
  void set_lane_capacity(std::size_t spans);
  std::size_t lane_capacity() const;

  /// Spans currently retained across all host lanes.
  std::size_t span_count() const;
  /// Host lanes that have recorded at least one span this epoch.
  std::size_t active_lane_count() const;

  /// Chrome trace-event JSON of everything retained (host + virtual).
  std::string chrome_json() const;
  /// chrome_json() straight to a file; returns false if unwritable.
  bool write_chrome_json(const std::string& path) const;
};

}  // namespace autogemm::obs
