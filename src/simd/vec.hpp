// Portable explicit SIMD vector type.
//
// simd::vec<N> is a fixed-width fp32 vector with fused-multiply-add,
// mapping to SSE on x86 hosts (and trivially to NEON on an AArch64 build),
// with an unrolled scalar fallback elsewhere. The compiled host
// micro-kernels of the *fixed-width backend tier* (kernels/, served by the
// NEON backend's find_microkernel) use it so the register-tiling structure
// of the generated assembly — accumulator blocks of whole vectors, one
// broadcast FMA per (row, column group, k) — is explicit rather than left
// to the autovectorizer. The predicated SVE tier is deliberately NOT built
// from this type: its kernels are vector-length-agnostic isa:: programs
// (codegen::generate_sve_microkernel) whose width is a runtime property,
// executed on sim::Interpreter at a chosen VL rather than compiled here
// (see backend/backend.hpp on host-executable vs simulator-only tiers).
#pragma once

#include <cstddef>

#if defined(__SSE2__) || defined(_M_X64)
#define AUTOGEMM_SIMD_SSE 1
#include <emmintrin.h>
#endif
#if defined(__ARM_NEON)
#define AUTOGEMM_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace autogemm::simd {

/// Four fp32 lanes — the sigma_lane = 4 NEON width the paper's NEON
/// kernels are built from. Wider *fixed* widths compose from several vec4
/// registers exactly as the dispatch table's nr > 4 kernels do (including
/// the lane-scaled shapes that let SVE-width register tiles execute on
/// this host); true predicated SVE wears a runtime width and lives in the
/// simulator-only backend instead.
struct vec4 {
#if defined(AUTOGEMM_SIMD_SSE)
  __m128 v;
  static vec4 load(const float* p) { return {_mm_loadu_ps(p)}; }
  static vec4 broadcast(float x) { return {_mm_set1_ps(x)}; }
  static vec4 zero() { return {_mm_setzero_ps()}; }
  void store(float* p) const { _mm_storeu_ps(p, v); }
  /// this += a * b as a separate multiply and add, each rounded: baseline
  /// x86-64 (SSE2) has no FMA instruction, so the compiler cannot fuse
  /// them (GCC's C++ default is -ffp-contract=fast, but there is nothing
  /// to contract into). The fused tier is x86_wide
  /// (kernels/wide_kernel.hpp).
  void fma(vec4 a, vec4 b) { v = _mm_add_ps(v, _mm_mul_ps(a.v, b.v)); }
#elif defined(AUTOGEMM_SIMD_NEON)
  float32x4_t v;
  static vec4 load(const float* p) { return {vld1q_f32(p)}; }
  static vec4 broadcast(float x) { return {vdupq_n_f32(x)}; }
  static vec4 zero() { return {vdupq_n_f32(0.0f)}; }
  void store(float* p) const { vst1q_f32(p, v); }
  void fma(vec4 a, vec4 b) { v = vfmaq_f32(v, a.v, b.v); }
#else
  float v[4];
  static vec4 load(const float* p) { return {{p[0], p[1], p[2], p[3]}}; }
  static vec4 broadcast(float x) { return {{x, x, x, x}}; }
  static vec4 zero() { return {{0, 0, 0, 0}}; }
  void store(float* p) const {
    for (int i = 0; i < 4; ++i) p[i] = v[i];
  }
  void fma(vec4 a, vec4 b) {
    for (int i = 0; i < 4; ++i) v[i] += a.v[i] * b.v[i];
  }
#endif
};

inline constexpr int kLanes = 4;

/// Architectural vector registers of the compiled 128-bit tier: 16 xmm on
/// x86-64, 32 v registers on AArch64. The NEON backend's tiles are sized
/// to this budget (DMT sized for 32 registers spills on x86; measured 4x
/// slowdowns).
#if defined(__aarch64__)
inline constexpr int kVectorRegisters = 32;
#else
inline constexpr int kVectorRegisters = 16;
#endif

}  // namespace autogemm::simd
