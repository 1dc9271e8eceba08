// x86_wide: fp32 FMA micro-kernels at 16 lanes on 32 registers (AVX-512F)
// and at 8 lanes on 16 registers (AVX2 + FMA), chosen at run time.
//
// The kernels are one template (kernels/wide_kernel.hpp) instantiated in
// two translation units, each compiled with its own ISA flags
// (wide_avx512.cpp, wide_avx2.cpp; see src/kernels/CMakeLists.txt). Those
// units export data only — the tables declared below — and every lookup
// here runs in baseline code and answers nullptr for a tier the CPU lacks,
// so no wide instruction executes before __builtin_cpu_supports has said
// the CPU has it. This header itself is baseline-safe.
//
// Each table holds exactly the tiles codegen::tile_feasible(mr, nr, lanes,
// registers) admits: the AVX-512 table is the paper's A64FX/SVE-512
// analysis of Table II (the same 32 x 16-lane register budget), and AVX2's
// 16 x 8-lane budget gets its own, tighter table. A clipped right edge runs
// the masked form of a tile (AVX-512 opmasks, AVX2 maskload/maskstore)
// instead of padding or a scalar loop — DMT's padding-free edge (Fig 5).
#pragma once

#include "kernels/microkernel.hpp"

namespace autogemm::kernels {

enum class WideIsa { kNone, kAvx2, kAvx512 };

/// "none", "avx2" or "avx512".
const char* wide_isa_name(WideIsa isa);

/// The widest tier this CPU executes: AVX-512F, else AVX2 with FMA, else
/// kNone. Checked once per process; always kNone on a build without the
/// wide units (anything but x86-64).
WideIsa detect_wide_isa();

/// Whether this CPU can run `isa`'s kernels (an AVX-512 CPU also runs the
/// AVX2 table). False for kNone.
bool wide_isa_supported(WideIsa isa);

/// fp32 lanes and vector registers of a tier; 0 for kNone.
int wide_lanes(WideIsa isa);
int wide_registers(WideIsa isa);

/// Exact-shape kernel for C(mr, nr), or nullptr when the tile is not in
/// the tier's table or the CPU cannot run the tier.
MicroKernelFn wide_kernel(WideIsa isa, int mr, int nr);

/// Column-masked kernel for C(mr, cols), any cols >= 1: the masked form of
/// tile (mr, cols rounded up to the lane width), which loads and stores
/// only the live columns. nullptr when that tile is not in the table or
/// the CPU cannot run the tier.
MaskedKernelFn wide_masked_kernel(WideIsa isa, int mr, int cols);

namespace detail {

struct WideEntry {
  MicroKernelFn exact;
  MaskedKernelFn masked;
};

/// One tier's kernels, indexed [(mr - 1) * max_vn + (nr / lanes - 1)] for
/// 1 <= mr <= max_mr, 1 <= nr / lanes <= max_vn; null where the tile is
/// not register-feasible.
struct WideTable {
  int max_mr;
  int max_vn;
  const WideEntry* entries;
};

extern const WideTable kAvx512Table;
extern const WideTable kAvx2Table;

}  // namespace detail
}  // namespace autogemm::kernels
