// The one wide int8 kernel template, instantiated per ISA by
// qwide_avx512.cpp, qwide_avxvnni.cpp and qwide_avx2.cpp.
//
// The same rules as kernels/wide_kernel.hpp: include this only from a unit
// compiled with the ISA's flags, instantiate it only with a traits type
// from that unit's anonymous namespace, and call nothing but the traits'
// intrinsics (no std:: helpers, no MatrixView member functions), so no
// copy built with wide instructions can be merged into baseline code.
//
// A traits type Q provides: Reg (int32 lanes), FReg (fp32 lanes), Mask,
// BReg (a loaded B vector), kLanes, kOffset (what A carries on top of its
// quantized value), kMR x kNV (the main register tile), and static
// load_b / pin_b / broadcast_a / dot / zero / sub / to_float / mul / add /
// broadcast_f / load_f / store_f / load_i / tail_mask / load_f_tail /
// store_f_tail / load_i_tail / quantize (kLanes floats to kLanes bytes).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "kernels/qkernel.hpp"
#include "kernels/qwide.hpp"

namespace autogemm::kernels::qwide_detail {

inline constexpr long kGroupBytes = kQWidePanel * kQWideGroup;

/// C(m0 .. m0+MR, n0 .. n0+cols) of the product, cols <= NV * kLanes: the
/// MR x NV accumulators, NV B vectors and one A broadcast of Listing 1,
/// then the requantization epilogue straight from the registers.
template <class Q, int MR, int NV>
void tile(const QWideProblem& p, int m0, int n0, int cols, long panel_bytes) {
  constexpr int L = Q::kLanes;
  const long groups = panel_bytes / kGroupBytes;
  const std::int8_t* bp[NV];
#pragma GCC unroll 8
  for (int v = 0; v < NV; ++v) {
    const int c = n0 + v * L;
    bp[v] = p.b_image + (c / kQWidePanel) * panel_bytes +
            (c % kQWidePanel) * kQWideGroup;
  }
  const std::uint8_t* a = p.a + static_cast<long>(m0) * p.lda;

  typename Q::Reg acc[MR][NV];
#pragma GCC unroll 16
  for (int r = 0; r < MR; ++r)
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) acc[r][v] = Q::zero();
  for (long g = 0; g < groups; ++g) {
    typename Q::BReg bv[NV];
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) {
      bv[v] = Q::load_b(bp[v] + g * kGroupBytes);
      Q::pin_b(bv[v]);  // one load per k group, not one per row
    }
#pragma GCC unroll 16
    for (int r = 0; r < MR; ++r) {
      const typename Q::Reg av = Q::broadcast_a(a + r * p.lda + g * 4);
#pragma GCC unroll 8
      for (int v = 0; v < NV; ++v) acc[r][v] = Q::dot(acc[r][v], av, bv[v]);
    }
  }

  // c = (alpha * sa[r]) * sb[c] * acc (+ beta * c): the scalar epilogue's
  // operation order (requantize_block), so the result is bit-identical.
  const int tail = cols - (NV - 1) * L;  // live columns of the last vector
  const typename Q::Mask tmask = Q::tail_mask(tail);
  const bool masked = tail < L;
  typename Q::FReg sb[NV];
  typename Q::Reg sums[NV]{};
#pragma GCC unroll 8
  for (int v = 0; v < NV; ++v) {
    const int c = n0 + v * L;
    const bool edge = masked && v == NV - 1;
    sb[v] = edge ? Q::load_f_tail(p.b_scales + c, tmask)
                 : Q::load_f(p.b_scales + c);
    if constexpr (Q::kOffset != 0)
      sums[v] = edge ? Q::load_i_tail(p.b_offset_sums + c, tmask)
                     : Q::load_i(p.b_offset_sums + c);
  }
  const typename Q::FReg beta = Q::broadcast_f(p.beta);
#pragma GCC unroll 16
  for (int r = 0; r < MR; ++r) {
    const typename Q::FReg sa = Q::broadcast_f(p.alpha * p.a_scales[m0 + r]);
    float* crow = p.c.data + static_cast<long>(m0 + r) * p.c.ld + n0;
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) {
      typename Q::Reg x = acc[r][v];
      if constexpr (Q::kOffset != 0) x = Q::sub(x, sums[v]);
      typename Q::FReg out = Q::mul(Q::mul(sa, sb[v]), Q::to_float(x));
      float* cp = crow + v * L;
      const bool edge = masked && v == NV - 1;
      if (p.beta != 0.0f)
        out = Q::add(out, Q::mul(beta, edge ? Q::load_f_tail(cp, tmask)
                                            : Q::load_f(cp)));
      if (edge)
        Q::store_f_tail(cp, tmask, out);
      else
        Q::store_f(cp, out);
    }
  }
}

using TileFn = void (*)(const QWideProblem&, int, int, int, long);

template <class Q, int... I>
constexpr auto make_tiles(std::integer_sequence<int, I...>) {
  struct Tiles {
    TileFn f[sizeof...(I)];
  };
  return Tiles{{&tile<Q, I / Q::kNV + 1, I % Q::kNV + 1>...}};
}

/// Every (mr, nv) up to the main tile, indexed (mr - 1) * kNV + (nv - 1):
/// the remainder rows and columns run smaller instantiations.
template <class Q>
inline constexpr auto kTiles =
    make_tiles<Q>(std::make_integer_sequence<int, Q::kMR * Q::kNV>{});

/// The whole product: column slabs of kNV vectors outermost, so one slab
/// of B stays cached while every row tile of A streams past it.
template <class Q>
void gemm(const QWideProblem& p) {
  constexpr int L = Q::kLanes;
  constexpr int W = Q::kNV * L;
  const long panel_bytes =
      (p.k + kQWideGroup - 1) / kQWideGroup * kGroupBytes;
  for (int n0 = 0; n0 < p.n; n0 += W) {
    const int cols = p.n - n0 < W ? p.n - n0 : W;
    const int nv = (cols + L - 1) / L;
    for (int m0 = 0; m0 < p.m; m0 += Q::kMR) {
      const int mr = p.m - m0 < Q::kMR ? p.m - m0 : Q::kMR;
      kTiles<Q>.f[(mr - 1) * Q::kNV + (nv - 1)](p, m0, n0, cols, panel_bytes);
    }
  }
}

/// quantize_value(x, scale) + kOffset for one element, as the vector path
/// computes it (lrintf rounds to nearest even, as cvtps2dq does).
template <class Q>
inline std::uint8_t quantize_one(float x, float inv) {
  const long q = lrintf(x * inv);
  const long clamped = q < -127 ? -127 : (q > 127 ? 127 : q);
  return static_cast<std::uint8_t>(clamped + Q::kOffset);
}

template <class Q>
void quantize_a(common::ConstMatrixView src, const float* row_scales,
                std::uint8_t* dst, long ld) {
  constexpr int L = Q::kLanes;
  for (int r = 0; r < src.rows; ++r) {
    const float* s = src.data + static_cast<long>(r) * src.ld;
    std::uint8_t* d = dst + static_cast<long>(r) * ld;
    const float inv = row_scales[r] > 0.0f ? 1.0f / row_scales[r] : 0.0f;
    const typename Q::FReg vinv = Q::broadcast_f(inv);
    int kk = 0;
    for (; kk + L <= src.cols; kk += L)
      Q::quantize(Q::mul(Q::load_f(s + kk), vinv), d + kk);
    for (; kk < src.cols; ++kk) d[kk] = quantize_one<Q>(s[kk], inv);
    for (long t = kk; t < ld; ++t) d[t] = static_cast<std::uint8_t>(Q::kOffset);
  }
}

/// The tier's exported table.
template <class Q>
constexpr detail::QWideTable table() {
  return {&gemm<Q>, &quantize_a<Q>};
}

}  // namespace autogemm::kernels::qwide_detail
