// NeonBackend: the fixed-width NEON A64 tier as a registry backend.
//
// This is the refactor-proof port of the pre-registry code path: it
// delegates to exactly the same kernel table (kernels::detail) and the same
// Listing-1 generator at lanes=4, so a Context resolved to kNeon is
// behavior-identical — bitwise-same C — to the code before the registry
// existed. Its tiles are sized to the compiled 128-bit tier's register
// file (simd::kVectorRegisters: 16 on x86-64, 32 on AArch64).
#include "backend/builtin.hpp"
#include "hw/chip_database.hpp"
#include "kernels/dispatch.hpp"
#include "simd/vec.hpp"

namespace autogemm::backend {
namespace {

class NeonBackend final : public KernelBackend {
 public:
  NeonBackend() {
    caps_.id = BackendId::kNeon;
    caps_.vl_min = 4;
    caps_.vl_default = 4;
    caps_.vl_agnostic = false;
    caps_.host_executable = true;
    caps_.vector_registers = simd::kVectorRegisters;
    caps_.max_mr = 10;   // GP row-pointer budget of Listing 1
    caps_.max_nr = 80;   // widest compiled table shape (4x80)
    caps_.priority = 100;
  }

  const BackendCaps& caps() const override { return caps_; }

  bool tile_feasible(int mr, int nr) const override {
    return codegen::tile_feasible(mr, nr, caps_.vl_min);
  }

  std::vector<codegen::TileSize> preferred_tiles() const override {
    return codegen::preferred_tiles(caps_.vl_min);
  }

  kernels::MicroKernelFn find_microkernel(int mr, int nr) const override {
    return kernels::detail::neon_table_lookup(mr, nr);
  }

  codegen::MicroKernel generate(
      int mr, int nr, int kc,
      const codegen::GeneratorOptions& opts) const override {
    return codegen::generate_microkernel(mr, nr, kc, caps_.vl_min, opts);
  }

  hw::HardwareModel pricing_model() const override {
    return hw::chip_model(hw::Chip::kGraviton2);
  }

 private:
  BackendCaps caps_;
};

}  // namespace

std::unique_ptr<KernelBackend> make_neon_backend() {
  return std::make_unique<NeonBackend>();
}

}  // namespace autogemm::backend
