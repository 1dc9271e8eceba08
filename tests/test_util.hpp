// Shared test helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

#include "common/clock.hpp"

namespace autogemm::testutil {

/// Acceptance threshold when comparing an fp32 GEMM against the double-
/// precision reference: rounding error of a length-k fp32 dot product grows
/// ~ k * eps, so the bound scales with the reduction depth. (The paper's
/// flat 1e-6 bar compares fp32 libraries against each other, where the
/// error statistics cancel.)
inline double gemm_tolerance(int k) { return 1e-6 + 1e-7 * k; }

/// Yields until done() holds, advancing `clock` by `step_ns` before each
/// check (0 = leave it alone). False if 10 s of wall time pass first, so a
/// broken engine fails the test instead of hanging it.
template <class Done>
bool advance_until(common::ManualClock& clock, std::uint64_t step_ns,
                   Done done) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    if (step_ns != 0) clock.advance(step_ns);
    std::this_thread::yield();
  }
  return true;
}

}  // namespace autogemm::testutil
