// Named failpoints — the fault-injection framework behind the hardening
// tests.
//
// A failpoint is a named site in the library where a fault can be injected
// on demand: an allocation that pretends the heap is exhausted, a worker
// thread that throws, a record line that arrives corrupted, a generated
// instruction the interpreter refuses to execute, a simulator that blows
// its cycle budget. Production code never arms them; the robustness tests
// (tests/failpoint_test.cpp, tests/robustness_test.cpp) and the CI
// fault-injection pass do, proving every failure path ends in a Status or
// a correct degraded result instead of a crash, a hang, or wrong numerics.
//
// Arming:
//   * API: failpoint::arm("alloc.aligned_buffer"), optionally with a hit
//     budget — arm(name, 2) fires on the first two hits then auto-disarms;
//   * environment: AUTOGEMM_FAILPOINTS="alloc.aligned_buffer,sim.illegal=1"
//     parsed once on first use (the CI pass uses this).
//
// The check is one relaxed atomic load when nothing is armed, so the hooks
// stay compiled into release builds at negligible cost (the same choice
// tikv/etcd make — faults must be injectable into the *shipping* artifact
// for the tests to mean anything).
//
// ## Site registry (every name the library currently checks)
//   alloc.aligned_buffer     AlignedBuffer pretends std::aligned_alloc failed
//   threadpool.spawn         worker std::thread creation fails
//   threadpool.worker        a pool worker throws mid-region
//   records.corrupt_save     TuningRecords::save garbles one record line
//   records.save_fail        TuningRecords::save_file write error (atomicity)
//   sim.illegal_instruction  Interpreter hits an undecodable instruction
//   sim.cycle_budget         PipelineSimulator exceeds its cycle budget
//   verify.portable          Context's first-use host-kernel probe
//                            miscompares
//   serve.queue_full         serve::Engine admission sees a full queue
//   serve.spawn              serve::Engine dispatcher thread creation fails
//   serve.monitor_spawn      serve::Engine supervision monitor thread
//                            creation fails (unsupervised engine)
//   serve.dispatcher_crash   serve::Engine dispatcher thread dies mid-loop
//   serve.dispatcher_stall   serve::Engine dispatcher wedges (stops beating)
//   serve.execute            serve::Engine dispatch fails a request before
//                            execution (C untouched) — breaker/chaos tests
#pragma once

#include <atomic>
#include <string>
#include <vector>

namespace autogemm::failpoint {

namespace detail {
/// Number of currently armed failpoints; the fast-path gate.
extern std::atomic<int> g_armed;
/// Slow path: registry lookup + hit accounting.
bool should_fail_slow(const char* name);
}  // namespace detail

/// Arms `name`. budget < 0 (default) fires on every hit until disarm();
/// budget >= 0 fires on the next `budget` hits, then auto-disarms.
void arm(const std::string& name, long budget = -1);

/// Disarms `name` (no-op if not armed).
void disarm(const std::string& name);

/// Disarms everything (tests call this in teardown).
void disarm_all();

/// True if `name` is currently armed (does not consume a hit).
bool armed(const std::string& name);

/// Total times `name` actually fired (survives disarm; reset by
/// disarm_all). Lets a test prove the injected site was really reached.
long hits(const std::string& name);

/// Names currently armed, for diagnostics.
std::vector<std::string> armed_names();

/// Re-reads AUTOGEMM_FAILPOINTS and arms what it lists (normally done once
/// lazily; exposed so tests can exercise the env path after setenv).
void arm_from_env();

/// The per-site hook: true means "inject the fault now" (consumes one hit
/// of the budget). Returns false in one atomic load when nothing is armed.
inline bool should_fail(const char* name) {
  if (detail::g_armed.load(std::memory_order_relaxed) == 0) return false;
  return detail::should_fail_slow(name);
}

}  // namespace autogemm::failpoint
