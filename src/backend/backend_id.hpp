// BackendId: the dependency-free identity of a kernel backend.
//
// Deliberately a leaf header (no includes beyond <cstdint>/<string_view>):
// it is threaded through GemmConfig, plan-cache keys, tuning records and
// the tune:: search space, all of which sit at different layers. The full
// KernelBackend interface (backend/backend.hpp) pulls in codegen/kernels/hw
// and lives strictly below core; anything that only needs to *name* a
// backend includes this header instead.
#pragma once

#include <cstdint>
#include <string_view>

namespace autogemm::backend {

/// Identity of a registered kernel backend. Values are stable: they appear
/// in tuning-record files and metrics labels. kAuto is a request, never a
/// resolved identity — BackendRegistry::resolve() maps it to a concrete
/// backend (env override first, then deterministic priority order).
enum class BackendId : std::int8_t {
  kAuto = -1,   ///< "pick for me" (ContextOptions default)
  kNeon = 0,    ///< fixed-width NEON A64 tier (host-executable)
  kSveSim = 1,  ///< SVE predicated VL-agnostic tier (simulator-only)
  kX86Wide = 2,  ///< AVX-512 / AVX2 FMA tier (host-executable on AVX2 CPUs)
};

/// Stable lowercase name ("neon", "sve_sim", "x86_wide", "auto") — the spelling used in
/// tuning-record files, AUTOGEMM_BACKEND, and metrics labels.
constexpr std::string_view backend_name(BackendId id) {
  switch (id) {
    case BackendId::kAuto: return "auto";
    case BackendId::kNeon: return "neon";
    case BackendId::kSveSim: return "sve_sim";
    case BackendId::kX86Wide: return "x86_wide";
  }
  return "unknown";
}

/// Inverse of backend_name(). Returns kAuto for "auto" or any unrecognized
/// spelling (callers that must reject bad input compare the round-trip).
constexpr BackendId parse_backend(std::string_view name) {
  if (name == backend_name(BackendId::kNeon)) return BackendId::kNeon;
  if (name == backend_name(BackendId::kSveSim)) return BackendId::kSveSim;
  if (name == backend_name(BackendId::kX86Wide)) return BackendId::kX86Wide;
  return BackendId::kAuto;
}

}  // namespace autogemm::backend
