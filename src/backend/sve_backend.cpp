// SveSimBackend: the SVE predicated, VL-agnostic tier. Simulator-only —
// find_microkernel always returns nullptr (this x86 host cannot execute
// SVE); generated programs run on sim::Interpreter for correctness and on
// the pipeline simulator under the A64FX model for pricing.
//
// Generation width is adaptive per tile: the narrowest power-of-two width
// in [vl_min, vl_default] whose group count fits the p1..p7 predicate
// budget. Narrow/irregular tiles (e.g. 5x10) generate at 4 lanes and stay
// executable at every VL from 4 to the simulator's 16; the wide preferred
// shapes (nr up to 80) need 16-lane groups and thus run at VL 16 only —
// exactly the width the A64FX pricing model simulates.
#include <stdexcept>
#include <string>

#include "backend/builtin.hpp"
#include "hw/chip_database.hpp"

namespace autogemm::backend {
namespace {

class SveSimBackend final : public KernelBackend {
 public:
  SveSimBackend() {
    caps_.id = BackendId::kSveSim;
    caps_.vl_min = 4;
    caps_.vl_default = 16;  // SVE-512 fp32, the A64FX width
    caps_.vl_agnostic = true;
    caps_.host_executable = false;
    caps_.vector_registers = 32;
    caps_.max_mr = 10;   // GP budget of the predicated kernel
    caps_.max_nr = 112;  // 7 groups x 16 lanes
    caps_.priority = 50;
  }

  const BackendCaps& caps() const override { return caps_; }

  /// Narrowest feasible generation width for the tile, or 0.
  int generation_width(int mr, int nr) const {
    for (int w = caps_.vl_min; w <= caps_.vl_default; w *= 2)
      if (codegen::sve_tile_feasible(mr, nr, w)) return w;
    return 0;
  }

  bool tile_feasible(int mr, int nr) const override {
    return generation_width(mr, nr) != 0;
  }

  std::vector<codegen::TileSize> preferred_tiles() const override {
    return codegen::preferred_tiles(caps_.vl_default);
  }

  kernels::MicroKernelFn find_microkernel(int, int) const override {
    return nullptr;  // simulator-only: no compiled host kernels
  }

  codegen::MicroKernel generate(
      int mr, int nr, int kc,
      const codegen::GeneratorOptions& opts) const override {
    const int w = generation_width(mr, nr);
    if (w == 0)
      throw std::invalid_argument("sve_sim: tile " + std::to_string(mr) +
                                  "x" + std::to_string(nr) +
                                  " infeasible at any generation width");
    return codegen::generate_sve_microkernel(mr, nr, kc, w, opts);
  }

  hw::HardwareModel pricing_model() const override {
    return hw::chip_model(hw::Chip::kA64FX);
  }

 private:
  BackendCaps caps_;
};

}  // namespace

std::unique_ptr<KernelBackend> make_sve_sim_backend() {
  return std::make_unique<SveSimBackend>();
}

}  // namespace autogemm::backend
