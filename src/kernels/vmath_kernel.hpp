// The one vector-math template, instantiated per tier by vmath_avx512.cpp,
// vmath_avx2.cpp and (portable) vmath.cpp.
//
// The same rules as kernels/wide_kernel.hpp: include this only from a unit
// built with its tier's flags, instantiate it only with a traits type from
// that unit's anonymous namespace, and call nothing but the traits' ops,
// so no copy built with wide instructions can be merged into baseline
// code. Every unit is built with -ffp-contract=off: each traits op is one
// correctly rounded IEEE operation, so every tier computes the same bits.
//
// A traits type T provides V (a block of kBlock = 16 fp32 lanes), M (a
// lane mask) and static set1 / load / store / load_tail (the first r
// lanes, the rest `fill`) / store_tail (the first r lanes) / add / sub /
// mul / div / min (a < b ? a : b per lane) / max (a > b ? a : b) / abs /
// floor / lt (ordered a < b) / select (m ? a : b) / pow2i (2^n of an
// integral-valued lane through the exponent field, 0x80000000 for NaN, as
// cvttps2dq gives) / hsum and hmax (lanes j and j + 8, then j + 4, j + 2,
// j + 1 folded in that order, lower lanes as the first operand).
#pragma once

#include "kernels/vmath.hpp"

namespace autogemm::kernels::vmath::kernel {

inline constexpr int kBlock = 16;
inline constexpr float kNegInf = -__builtin_inff();

/// Eigen's generic_fast_tanh_float with the non-FMA clamp, at which p / q
/// rounds to exactly +-1; |a| < 4e-4 returns a.
template <class T>
typename T::V tanh(typename T::V a) {
  using V = typename T::V;
  // Clamp with `a` second, so a NaN passes through (min / max return their
  // second operand when either is NaN).
  const V x = T::max(T::set1(-7.90531110763549805f),
                     T::min(T::set1(7.90531110763549805f), a));
  const typename T::M tiny = T::lt(T::abs(a), T::set1(0.0004f));
  const V x2 = T::mul(x, x);
  V p = T::add(T::mul(x2, T::set1(-2.76076847742355e-16f)),
               T::set1(2.00018790482477e-13f));
  p = T::add(T::mul(x2, p), T::set1(-8.60467152213735e-11f));
  p = T::add(T::mul(x2, p), T::set1(5.12229709037114e-08f));
  p = T::add(T::mul(x2, p), T::set1(1.48572235717979e-05f));
  p = T::add(T::mul(x2, p), T::set1(6.37261928875436e-04f));
  p = T::add(T::mul(x2, p), T::set1(4.89352455891786e-03f));
  p = T::mul(x, p);
  V q = T::add(T::mul(x2, T::set1(1.19825839466702e-06f)),
               T::set1(1.18534705686654e-04f));
  q = T::add(T::mul(x2, q), T::set1(2.26843463243900e-03f));
  q = T::add(T::mul(x2, q), T::set1(4.89352518554385e-03f));
  return T::select(tiny, x, T::div(p, q));
}

/// 0.5 v (1 + tanh(sqrt(2/pi) (v + 0.044715 v^3))), in the scalar loop's
/// operation order.
template <class T>
typename T::V gelu(typename T::V v) {
  using V = typename T::V;
  const V cube = T::mul(T::mul(T::mul(T::set1(0.044715f), v), v), v);
  const V t = tanh<T>(T::mul(T::set1(0.7978845608028654f), T::add(v, cube)));
  return T::mul(T::mul(T::set1(0.5f), v), T::add(T::set1(1.0f), t));
}

/// Cephes expf: x clamped to [-88.38, 88.38], n = floor(x log2 e + 1/2),
/// r = x - n ln 2 in two steps, a degree-5 polynomial, times 2^n.
template <class T>
typename T::V exp(typename T::V x) {
  using V = typename T::V;
  x = T::max(T::set1(-88.3762626647949f),
             T::min(T::set1(88.3762626647949f), x));
  const V n = T::floor(
      T::add(T::mul(x, T::set1(1.44269504088896341f)), T::set1(0.5f)));
  x = T::sub(x, T::mul(n, T::set1(0.693359375f)));
  x = T::sub(x, T::mul(n, T::set1(-2.12194440e-4f)));
  const V z = T::mul(x, x);
  V y = T::set1(1.9875691500e-4f);
  y = T::add(T::mul(y, x), T::set1(1.3981999507e-3f));
  y = T::add(T::mul(y, x), T::set1(8.3334519073e-3f));
  y = T::add(T::mul(y, x), T::set1(4.1665795894e-2f));
  y = T::add(T::mul(y, x), T::set1(1.6666665459e-1f));
  y = T::add(T::mul(y, x), T::set1(5.0000001201e-1f));
  y = T::add(T::add(T::mul(y, z), x), T::set1(1.0f));
  return T::mul(y, T::pow2i(n));
}

template <class T>
void gelu_row(float* x, long n) {
  long i = 0;
  for (; i + kBlock <= n; i += kBlock) T::store(x + i, gelu<T>(T::load(x + i)));
  if (i < n) {
    const int r = static_cast<int>(n - i);
    T::store_tail(x + i, r, gelu<T>(T::load_tail(x + i, r, 0.0f)));
  }
}

template <class T>
float max_row(const float* x, long n) {
  typename T::V acc = T::set1(kNegInf);
  long i = 0;
  for (; i + kBlock <= n; i += kBlock) acc = T::max(acc, T::load(x + i));
  if (i < n)
    acc = T::max(acc, T::load_tail(x + i, static_cast<int>(n - i), kNegInf));
  return T::hmax(acc);
}

/// Padding lanes load -inf, whose exp is 0, so they add nothing.
template <class T>
float exp_sum_row(float* x, long n, float shift) {
  using V = typename T::V;
  const V s = T::set1(shift);
  V acc = T::set1(0.0f);
  long i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    const V e = exp<T>(T::sub(T::load(x + i), s));
    T::store(x + i, e);
    acc = T::add(acc, e);
  }
  if (i < n) {
    const int r = static_cast<int>(n - i);
    const V e = exp<T>(T::sub(T::load_tail(x + i, r, kNegInf), s));
    T::store_tail(x + i, r, e);
    acc = T::add(acc, e);
  }
  return T::hsum(acc);
}

template <class T>
float sum_row(const float* x, long n) {
  typename T::V acc = T::set1(0.0f);
  long i = 0;
  for (; i + kBlock <= n; i += kBlock) acc = T::add(acc, T::load(x + i));
  if (i < n)
    acc = T::add(acc, T::load_tail(x + i, static_cast<int>(n - i), 0.0f));
  return T::hsum(acc);
}

/// Padding lanes load `mean`, whose deviation is 0.
template <class T>
float sq_dev_sum_row(const float* x, long n, float mean) {
  using V = typename T::V;
  const V m = T::set1(mean);
  V acc = T::set1(0.0f);
  long i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    const V d = T::sub(T::load(x + i), m);
    acc = T::add(acc, T::mul(d, d));
  }
  if (i < n) {
    const V d = T::sub(T::load_tail(x + i, static_cast<int>(n - i), mean), m);
    acc = T::add(acc, T::mul(d, d));
  }
  return T::hsum(acc);
}

template <class T>
void center_scale_row(const float* x, float* out, long n, float shift,
                      float scale) {
  using V = typename T::V;
  const V s = T::set1(shift), k = T::set1(scale);
  long i = 0;
  for (; i + kBlock <= n; i += kBlock)
    T::store(out + i, T::mul(T::sub(T::load(x + i), s), k));
  if (i < n) {
    const int r = static_cast<int>(n - i);
    T::store_tail(out + i, r, T::mul(T::sub(T::load_tail(x + i, r, 0.0f), s), k));
  }
}

template <class T>
constexpr detail::Table table() {
  return {&gelu_row<T>,   &max_row<T>,        &exp_sum_row<T>,
          &sum_row<T>,    &sq_dev_sum_row<T>, &center_scale_row<T>};
}

}  // namespace autogemm::kernels::vmath::kernel
