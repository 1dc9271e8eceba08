// X86WideBackend: the AVX-512 / AVX2 FMA tier (kernels/wide.hpp) as a
// registry backend.
//
// The tier is fixed when the registry is built, from the widest ISA the
// CPU reports (kernels::detect_wide_isa). Its tiles are the register-
// feasible shapes at that width and register budget — codegen::
// tile_feasible(mr, nr, lanes, registers), the rule the compiled tables
// are generated from — and clipped right edges run the masked forms. On a
// CPU with neither ISA the backend stays registered but is not
// host-executable, so kAuto falls through to neon and an explicit x86_wide
// context runs on neon's kernels.
//
// generate() emits the Listing-1 IR at the tier's lane width: the IR
// models A64 and has no x86 emitter, so the first-use probe checks the
// register-tile schedule on the interpreter exactly as it does for neon,
// and checks the compiled x86 kernels separately.
#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

#include "backend/builtin.hpp"
#include "hw/chip_database.hpp"

namespace autogemm::backend {
namespace {

class X86WideBackend final : public KernelBackend {
 public:
  explicit X86WideBackend(kernels::WideIsa isa) : isa_(isa) {
    const bool runs = isa != kernels::WideIsa::kNone;
    caps_.id = BackendId::kX86Wide;
    caps_.vl_min = caps_.vl_default = runs ? kernels::wide_lanes(isa) : 16;
    caps_.vl_agnostic = false;
    caps_.host_executable = runs;
    caps_.vector_registers = runs ? kernels::wide_registers(isa) : 32;
    // mr*vn + mr + vn <= R bounds mr (and vn) by (R - 1) / 2.
    caps_.max_mr = (caps_.vector_registers - 1) / 2;
    caps_.max_nr = caps_.max_mr * caps_.vl_min;
    caps_.priority = 200;
  }

  const BackendCaps& caps() const override { return caps_; }

  bool tile_feasible(int mr, int nr) const override {
    return codegen::tile_feasible(mr, nr, caps_.vl_min,
                                  caps_.vector_registers);
  }

  std::vector<codegen::TileSize> preferred_tiles() const override {
    // 32 registers of 16 lanes is A64FX's budget: Table II's blue cells
    // scaled to 16 lanes. AVX2's 16 registers fit none of those; its
    // family is, per vector count, the tallest feasible tile, wherever
    // that is still more than one row (7x8, 4x16, 3x24, 2x32).
    if (caps_.vector_registers >= 32)
      return codegen::preferred_tiles(caps_.vl_min);
    std::map<int, int> tallest;  // nr -> largest feasible mr
    for (const codegen::TileSize& t : codegen::enumerate_feasible_tiles(
             caps_.vl_min, caps_.vector_registers))
      tallest[t.nr] = std::max(tallest[t.nr], t.mr);
    std::vector<codegen::TileSize> tiles;
    for (const auto& [nr, mr] : tallest)
      if (mr > 1) tiles.push_back({mr, nr});
    return tiles;
  }

  kernels::MicroKernelFn find_microkernel(int mr, int nr) const override {
    return kernels::wide_kernel(isa_, mr, nr);
  }

  kernels::MaskedKernelFn find_masked_microkernel(int mr,
                                                  int cols) const override {
    return kernels::wide_masked_kernel(isa_, mr, cols);
  }

  codegen::MicroKernel generate(
      int mr, int nr, int kc,
      const codegen::GeneratorOptions& opts) const override {
    if (!tile_feasible(mr, nr))
      throw std::invalid_argument("x86_wide: tile " + std::to_string(mr) +
                                  "x" + std::to_string(nr) +
                                  " is not register-feasible");
    return codegen::generate_microkernel(mr, nr, kc, caps_.vl_min, opts);
  }

  hw::HardwareModel pricing_model() const override {
    return hw::host_model(caps_.vl_default, caps_.vector_registers);
  }

 private:
  kernels::WideIsa isa_;
  BackendCaps caps_;
};

}  // namespace

std::unique_ptr<KernelBackend> make_x86_wide_backend(kernels::WideIsa isa) {
  return std::make_unique<X86WideBackend>(isa);
}

}  // namespace autogemm::backend
