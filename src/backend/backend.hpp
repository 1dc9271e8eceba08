// Kernel backend registry: one ABI, N backends.
//
// A KernelBackend bundles everything the rest of the library needs to know
// about one ISA tier behind a uniform interface:
//   * capabilities (lane widths, host executability, tile ceilings),
//   * tile feasibility + preferred shapes (per-backend Table II analog),
//   * the compiled host micro-kernel table (find_microkernel),
//   * the code generator entry (generate -> isa::Program IR),
//   * the chip model the tuner prices this backend on (pricing_model).
//
// The process-wide BackendRegistry owns one instance per BackendId with a
// deterministic priority ordering. Context resolves ContextOptions::backend
// through it: an explicit id passes through, kAuto honors AUTOGEMM_BACKEND
// and otherwise picks the highest-priority host-executable backend. That is
// x86_wide when the CPU has AVX2+FMA or AVX-512F, and neon (the 128-bit
// tier, bitwise-identical to the pre-registry code) otherwise.
//
// Host-executable vs simulator-only: a backend whose caps().host_executable
// is true serves compiled C++ kernels via find_microkernel (neon, and
// x86_wide on a CPU that has the ISA); a simulator-only backend (sve_sim,
// or x86_wide on a CPU without it) returns nullptr from find_microkernel
// for every shape, and host execution under it runs on the neon tier
// (host_backend() below). DESIGN.md §4 has the layering diagram and the
// "how to add a backend" checklist.
#pragma once

#include <memory>
#include <vector>

#include "backend/backend_id.hpp"
#include "codegen/generator.hpp"
#include "codegen/tile_sizes.hpp"
#include "hw/hardware_model.hpp"
#include "kernels/microkernel.hpp"

namespace autogemm::backend {

/// Static capabilities of one backend.
struct BackendCaps {
  BackendId id = BackendId::kNeon;
  /// Generation lane width in fp32 lanes (sigma_lane floor). For the
  /// VL-agnostic tier this is the minimum VL a generated program accepts.
  int vl_min = 4;
  /// Execution VL the simulator / pricing model runs at by default.
  int vl_default = 4;
  /// Generated programs are vector-length-agnostic (predicated SVE tier).
  bool vl_agnostic = false;
  /// Compiled host micro-kernels exist (find_microkernel can return
  /// non-null). false = simulator-only tier.
  bool host_executable = true;
  /// Architectural vector registers the tiles are sized to (with
  /// vl_default lanes this is the host model DMT tiles against).
  int vector_registers = 32;
  /// Register-budget ceilings for this backend's tile shapes.
  int max_mr = 10;
  int max_nr = 28;
  /// Deterministic registry ordering: higher wins. kAuto resolution picks
  /// the highest-priority host-executable backend.
  int priority = 0;
};

/// The kernel/codegen ABI every backend implements. Implementations are
/// stateless and thread-safe; the registry owns them for process lifetime.
class KernelBackend {
 public:
  virtual ~KernelBackend() = default;

  virtual const BackendCaps& caps() const = 0;

  /// Register feasibility of a (mr, nr) tile under this backend's encoding.
  virtual bool tile_feasible(int mr, int nr) const = 0;

  /// First-choice register tiles at this backend's default width (the
  /// per-backend Table II blue cells); every entry is tile_feasible().
  virtual std::vector<codegen::TileSize> preferred_tiles() const = 0;

  /// Compiled host kernel for the exact tile, or nullptr. Always nullptr
  /// for simulator-only backends, whose plans run on host_backend().
  virtual kernels::MicroKernelFn find_microkernel(int mr, int nr) const = 0;

  /// Compiled kernel for an mr-row tile clipped to `cols` columns that
  /// loads and stores only those columns, or nullptr (the executor then
  /// runs kernels::generic_microkernel). Only tiers with masked vector
  /// edges serve one.
  virtual kernels::MaskedKernelFn find_masked_microkernel(int mr,
                                                          int cols) const {
    (void)mr;
    (void)cols;
    return nullptr;
  }

  /// Generates the micro-kernel IR for the tile. Throws
  /// std::invalid_argument when !tile_feasible(mr, nr).
  virtual codegen::MicroKernel generate(
      int mr, int nr, int kc,
      const codegen::GeneratorOptions& opts = {}) const = 0;

  /// Chip model the tuner and kAuto resolution price this backend on.
  virtual hw::HardwareModel pricing_model() const = 0;
};

/// Process-wide registry. The built-in backends (x86_wide, neon, sve_sim)
/// are registered on first use; register_backend() admits future tiers (SME
/// fmopa, int8/bf16 widening) without touching dispatch sites.
class BackendRegistry {
 public:
  /// Registers a backend; replaces an existing entry with the same id.
  void register_backend(std::unique_ptr<KernelBackend> b);

  /// Lookup by id; nullptr when unknown (kAuto always returns nullptr —
  /// resolve it first).
  const KernelBackend* find(BackendId id) const;

  /// As find(), but throws std::out_of_range for unknown ids.
  const KernelBackend& get(BackendId id) const;

  /// All backends in deterministic order: priority descending, id
  /// ascending as the tiebreak.
  std::vector<const KernelBackend*> all() const;

  /// Maps a requested id to a concrete one. Explicit ids pass through
  /// (throwing if unregistered). kAuto consults AUTOGEMM_BACKEND (a name
  /// accepted by parse_backend) and otherwise returns the highest-priority
  /// host-executable backend.
  BackendId resolve(BackendId requested) const;

 private:
  std::vector<std::unique_ptr<KernelBackend>> backends_;
};

/// The process-wide registry, with the built-in backends registered.
BackendRegistry& registry();

/// Convenience: registry().get(id).
const KernelBackend& get_backend(BackendId id);

/// Convenience: registry().resolve(requested).
BackendId resolve_backend(BackendId requested);

/// The backend whose compiled kernels execute plans made for `id` (a
/// concrete id): `id` itself when host-executable, else neon. Its caps set
/// the lanes and register budget a plan is tiled for.
const KernelBackend& host_backend(BackendId id);

}  // namespace autogemm::backend
