// Portable host micro-kernels.
//
// These are the functional counterparts of the generated A64 kernels: one
// C++ template per register-tile shape, written so the compiler keeps the
// MR x NR accumulator block in registers and vectorizes the inner loop —
// the same register-tiling structure Listing 1 encodes in assembly. On an
// AArch64 build the generated assembly kernels would slot in behind the
// same function-pointer signature. On x86-64 these vec4 templates are the
// 128-bit SSE2 tier the NEON backend serves; the AVX2/AVX-512 FMA tier is
// x86_wide (kernels/wide.hpp), chosen at run time when the CPU has it.
#pragma once

#include <cstring>

#include "simd/vec.hpp"

namespace autogemm::kernels {

/// C(mr,nr) += A(mr,kc) * B(kc,nr); row-major with element strides.
/// `a` walks rows with lda, `b` rows with ldb, `c` rows with ldc.
using MicroKernelFn = void (*)(const float* a, long lda, const float* b,
                               long ldb, float* c, long ldc, int kc);

/// Register-tiled micro-kernel for a fixed (MR x NR) tile. The accumulator
/// array is a compile-time-sized block the optimizer promotes to vector
/// registers; k is the streaming dimension exactly as in the generated
/// assembly.
template <int MR, int NR>
void microkernel(const float* a, long lda, const float* b, long ldb, float* c,
                 long ldc, int kc) {
  static_assert(NR % simd::kLanes == 0,
                "register-tile widths are whole vectors (Table II)");
  constexpr int VN = NR / simd::kLanes;
  // The accumulator block, A broadcast, and B row registers — the same
  // register roles Listing 1 assigns to v0..v31.
  simd::vec4 acc[MR][VN];
  for (int r = 0; r < MR; ++r)
    for (int j = 0; j < VN; ++j)
      acc[r][j] = simd::vec4::load(c + r * ldc + j * simd::kLanes);
  for (int p = 0; p < kc; ++p) {
    const float* brow = b + static_cast<long>(p) * ldb;
    simd::vec4 bv[VN];
    for (int j = 0; j < VN; ++j)
      bv[j] = simd::vec4::load(brow + j * simd::kLanes);
    for (int r = 0; r < MR; ++r) {
      const simd::vec4 av = simd::vec4::broadcast(a[r * lda + p]);
      for (int j = 0; j < VN; ++j) acc[r][j].fma(bv[j], av);
    }
  }
  for (int r = 0; r < MR; ++r)
    for (int j = 0; j < VN; ++j)
      acc[r][j].store(c + r * ldc + j * simd::kLanes);
}

/// Runtime-shaped fallback for clipped edge tiles (rows x cols smaller than
/// any register tile, or shapes outside the dispatch table).
void generic_microkernel(int rows, int cols, const float* a, long lda,
                         const float* b, long ldb, float* c, long ldc, int kc);

/// Column-masked kernel for a fixed row count: C(mr, cols) += A * B(kc,
/// cols), touching only the `cols` live columns of B and C (DMT's
/// padding-free edge, Fig 5). A backend serves one for a column count
/// that is not a multiple of its lane width.
using MaskedKernelFn = void (*)(const float* a, long lda, const float* b,
                                long ldb, float* c, long ldc, int kc,
                                int cols);

/// The kernel one placed tile runs, resolved once when a plan builds its
/// tiling (core/plan.hpp): the exact-shape kernel, else a column-masked
/// one, else generic_microkernel.
struct TileKernel {
  MicroKernelFn exact = nullptr;
  MaskedKernelFn masked = nullptr;

  void run(int rows, int cols, const float* a, long lda, const float* b,
           long ldb, float* c, long ldc, int kc) const {
    if (exact != nullptr)
      exact(a, lda, b, ldb, c, ldc, kc);
    else if (masked != nullptr)
      masked(a, lda, b, ldb, c, ldc, kc, cols);
    else
      generic_microkernel(rows, cols, a, lda, b, ldb, c, ldc, kc);
  }
};

}  // namespace autogemm::kernels
