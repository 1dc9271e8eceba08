// Runtime dispatch from a (mr, nr) tile shape to the host micro-kernel.
//
// The table below serves the fp32 tier: MicroKernelFn operates on float
// operand blocks with fp32 accumulation. The int8 widening-accumulate tier
// has its own kernel signature (int8 operands, int32 accumulators, fp32
// requantization) and dispatches through kernels/qkernel.hpp — the two
// tables are deliberately separate because the element types, accumulator
// widths and epilogues differ, while the (mr, nr) tile vocabulary is shared
// so tune:: can enumerate either dtype over one search space.
#pragma once

#include "kernels/microkernel.hpp"

namespace autogemm::kernels {

namespace detail {

/// Internal lookup over the compiled NEON kernel table. Every entry is a
/// host-executable C++ template instantiation composed from simd::vec4 —
/// including the lane-scaled shapes (nr up to 80) that let SVE-width
/// register tiles run through the 128-bit tier while true SVE codegen
/// remains simulator-only (the sve_sim backend has no compiled host
/// kernels at all; see backend/backend.hpp). The NeonBackend and run_tile
/// consult this directly; kernels/ cannot depend on backend/ (the registry
/// sits above this layer). Returns nullptr when no template instantiation
/// exists (callers fall back to generic_microkernel). The executor does
/// not call this: a Plan resolves each tile's kernel once from its
/// backend's find_microkernel (core/plan.hpp).
MicroKernelFn neon_table_lookup(int mr, int nr);

}  // namespace detail

/// Executes one (possibly clipped) tile on the NEON table: uses the
/// specialized kernel when rows x cols match an instantiation, otherwise
/// the generic one. A direct entry for benches and tools; Context and the
/// executor run the kernels their plan resolved.
void run_tile(int rows, int cols, const float* a, long lda, const float* b,
              long ldb, float* c, long ldc, int kc);

}  // namespace autogemm::kernels
