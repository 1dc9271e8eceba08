// The one x86_wide micro-kernel template, instantiated per ISA by
// wide_avx512.cpp and wide_avx2.cpp.
//
// Include this only from a translation unit compiled with the ISA's flags,
// and instantiate it only with a vector-traits type declared in that
// unit's anonymous namespace. Every instantiation then has internal
// linkage, so the linker can never merge a copy built with wide
// instructions into baseline code (the ODR hazard of one inline function
// compiled under different -m flags). For the same reason the kernels call
// nothing but the traits' intrinsics, and the units export data only.
//
// A traits type V provides: Reg and Mask types, kLanes, kRegisters, and
// static load / store / broadcast / fmadd / tail_mask / load_tail /
// store_tail.
#pragma once

#include <utility>

#include "codegen/tile_sizes.hpp"
#include "kernels/wide.hpp"

namespace autogemm::kernels::wide_detail {

/// Vector j of a row: the masked tail load for the last vector of a
/// masked kernel, a full load otherwise.
template <class V, int VN, bool kMasked>
__attribute__((always_inline)) inline typename V::Reg load_vec(
    const float* p, int j, typename V::Mask tail) {
  if (kMasked && j == VN - 1) return V::load_tail(p, tail);
  return V::load(p);
}

/// C(MR, cols) += A(MR, kc) * B(kc, cols), cols = VN * lanes unless
/// kMasked, in which case the last vector holds cols - (VN - 1) * lanes
/// live columns. The MR x VN accumulators, the VN B registers and the A
/// broadcast are the register roles of Listing 1; every multiply-add is
/// one explicit fused fmadd.
template <class V, int MR, int VN, bool kMasked>
__attribute__((always_inline)) inline void body(const float* a, long lda,
                                                const float* b, long ldb,
                                                float* c, long ldc, int kc,
                                                int cols) {
  constexpr int L = V::kLanes;
  typename V::Mask tail{};
  if constexpr (kMasked) tail = V::tail_mask(cols - (VN - 1) * L);
  typename V::Reg acc[MR][VN];
#pragma GCC unroll 16
  for (int r = 0; r < MR; ++r)
#pragma GCC unroll 16
    for (int j = 0; j < VN; ++j)
      acc[r][j] = load_vec<V, VN, kMasked>(c + r * ldc + j * L, j, tail);
  for (int p = 0; p < kc; ++p) {
    const float* brow = b + static_cast<long>(p) * ldb;
    typename V::Reg bv[VN];
#pragma GCC unroll 16
    for (int j = 0; j < VN; ++j) {
      bv[j] = load_vec<V, VN, kMasked>(brow + j * L, j, tail);
      // Keep the B vector in a register: left alone, GCC folds it into
      // every row's fmadd as a memory operand, loading it MR times per k
      // (measured up to 2x slower on the VN >= 6 tiles, which then run out of
      // load bandwidth).
      asm("" : "+v"(bv[j]));
    }
#pragma GCC unroll 16
    for (int r = 0; r < MR; ++r) {
      const typename V::Reg av = V::broadcast(a[r * lda + p]);
#pragma GCC unroll 16
      for (int j = 0; j < VN; ++j) acc[r][j] = V::fmadd(av, bv[j], acc[r][j]);
    }
  }
#pragma GCC unroll 16
  for (int r = 0; r < MR; ++r)
#pragma GCC unroll 16
    for (int j = 0; j < VN; ++j) {
      float* p = c + r * ldc + j * L;
      if (kMasked && j == VN - 1)
        V::store_tail(p, tail, acc[r][j]);
      else
        V::store(p, acc[r][j]);
    }
}

template <class V, int MR, int VN>
void exact(const float* a, long lda, const float* b, long ldb, float* c,
           long ldc, int kc) {
  body<V, MR, VN, false>(a, lda, b, ldb, c, ldc, kc, VN * V::kLanes);
}

template <class V, int MR, int VN>
void masked(const float* a, long lda, const float* b, long ldb, float* c,
            long ldc, int kc, int cols) {
  body<V, MR, VN, true>(a, lda, b, ldb, c, ldc, kc, cols);
}

/// Largest mr (and vn) any feasible tile has: mr*vn + mr + vn <= R with
/// the other factor at least 1 gives 2*mr + 1 <= R.
template <class V>
inline constexpr int kMaxDim = (V::kRegisters - 1) / 2;

template <class V, int I>
constexpr detail::WideEntry entry() {
  constexpr int mr = I / kMaxDim<V> + 1;
  constexpr int vn = I % kMaxDim<V> + 1;
  if constexpr (codegen::tile_feasible(mr, vn * V::kLanes, V::kLanes,
                                       V::kRegisters))
    return {&exact<V, mr, vn>, &masked<V, mr, vn>};
  else
    return {nullptr, nullptr};
}

template <int N>
struct Entries {
  detail::WideEntry e[N];
};

template <class V, int... I>
constexpr Entries<sizeof...(I)> make_entries(std::integer_sequence<int, I...>) {
  return {{entry<V, I>()...}};
}

/// Every (mr, vn) slot of V's table, built at compile time from
/// codegen::tile_feasible — the table is the register-feasibility rule.
template <class V>
constexpr auto table_entries() {
  return make_entries<V>(
      std::make_integer_sequence<int, kMaxDim<V> * kMaxDim<V>>{});
}

}  // namespace autogemm::kernels::wide_detail
