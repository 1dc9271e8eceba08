// Database of the chips evaluated in the paper (Table IV), plus the
// idealized reference machine used in Fig 3 / Section III-B worked examples.
#pragma once

#include <vector>

#include "hw/hardware_model.hpp"

namespace autogemm::hw {

enum class Chip {
  kReference,  ///< L_[fma/load/store]=8, IPC=1, in-order — the Fig 3 config
  kKP920,      ///< Huawei Kunpeng 920 (TSV110 cores)
  kGraviton2,  ///< AWS Graviton2 (Neoverse N1)
  kAltra,      ///< Ampere Altra (Neoverse N1, 2-socket NUMA)
  kM2,         ///< Apple M2 (4 performance cores modeled)
  kA64FX,      ///< Fujitsu A64FX (SVE-512, 4 CMGs)
  kGraviton3,  ///< AWS Graviton3 (Neoverse V1, SVE-256) — mentioned by the
               ///< paper as an SVE target; not part of the Table IV testbed
};

/// The model for one chip. Returned by value; callers may tweak fields.
HardwareModel chip_model(Chip chip);

/// All five real evaluated chips (excludes kReference).
std::vector<Chip> evaluated_chips();

/// A conservative model of the machine the library is *running on*, used
/// to steer the host execution plans (register budget for DMT, cache-sized
/// blocking). The SIMD width and register file are those of the kernel
/// tier that executes the plan, so the caller passes them in from its
/// backend's caps (backend::host_backend): e.g. 4 lanes on 16 registers
/// for the 128-bit tier on x86-64, 16 on 32 for AVX-512.
HardwareModel host_model(int lanes, int vector_registers);

/// Short display name ("KP920", "Graviton2", ...).
const char* chip_name(Chip chip);

}  // namespace autogemm::hw
