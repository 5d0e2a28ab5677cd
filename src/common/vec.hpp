// Lane-width vector layer for the row primitives.
//
// Vec<1> wraps one float and Vec<8> one __m256. Both expose the same
// operations (load/store/set1/zero, + − × ÷, fma, sqrt, abs, sign_mul,
// floor, lt/select, hsum), so a primitive written once against Vec<W>
// compiles at either width. The width-generic bodies live in .inc files that
// foreach_width.inc compiles twice — W=1 in a plain namespace, W=8 inside an
// AVX2+FMA target region — and SPTX_BY_WIDTH picks a copy from
// simd_enabled(), so a portable -DSPTX_NATIVE=OFF binary still runs the
// vector kernels on capable hardware and SPTX_NO_SIMD forces W=1.
//
// Vec<8>'s operations carry the AVX2 target themselves and are always
// inlined: calling one from code outside an AVX2 region is a compile error
// rather than an out-of-line call passing __m256 across a non-AVX ABI.
// Vec<1>'s fma is the plain a·b + c the hand-written scalar loops used, so
// the W=1 copy contracts (or not) exactly as those loops did.
//
// Apart from the SpMM engine's register-blocked kernels in sparse/spmm.cpp,
// this header is the only place that touches x86 intrinsics.
#pragma once

#include <cmath>

#include "src/common/cpu_features.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define SPTX_SIMD_X86 1
#include <immintrin.h>
#define SPTX_TARGET_AVX2 __attribute__((target("avx2,fma")))
#if defined(__clang__)
#define SPTX_BEGIN_AVX2                                                   \
  _Pragma("clang attribute push(__attribute__((target(\"avx2,fma\"))), " \
          "apply_to = function)")
#define SPTX_END_AVX2 _Pragma("clang attribute pop")
#else
#define SPTX_BEGIN_AVX2 \
  _Pragma("GCC push_options") _Pragma("GCC target(\"avx2,fma\")")
#define SPTX_END_AVX2 _Pragma("GCC pop_options")
#endif
#endif

#if defined(__GNUC__)
#define SPTX_INLINE inline __attribute__((always_inline))
#else
#define SPTX_INLINE inline
#endif
#define SPTX_AVX2_INLINE inline __attribute__((always_inline)) SPTX_TARGET_AVX2

// Each width's target attribute, for what the region pragma does not
// cover: clang's attribute pragma skips lambda call operators, so a lambda
// in a width body spells its copy's target out as SPTX_WIDTH_ATTR, which
// foreach_width.inc points at the matching entry here.
#define SPTX_WIDTH_ATTR_1
#ifdef SPTX_SIMD_X86
#define SPTX_WIDTH_ATTR_8 SPTX_TARGET_AVX2
#endif

/// Calls the W=8 copy of `fn` when the AVX2 kernels may run, else the W=1
/// copy. Expands in a scope that sees both width namespaces.
#define SPTX_BY_WIDTH(fn, ...) \
  (::sptx::simd_enabled() ? w8::fn(__VA_ARGS__) : w1::fn(__VA_ARGS__))

namespace sptx::vec {

template <int W>
struct Vec;

template <>
struct Vec<1> {
  float v;

  SPTX_INLINE static Vec load(const float* p) { return {*p}; }
  SPTX_INLINE static Vec set1(float s) { return {s}; }
  SPTX_INLINE static Vec zero() { return {0.0f}; }
  SPTX_INLINE void store(float* p) const { *p = v; }

  SPTX_INLINE friend Vec operator+(Vec a, Vec b) { return {a.v + b.v}; }
  SPTX_INLINE friend Vec operator-(Vec a, Vec b) { return {a.v - b.v}; }
  SPTX_INLINE friend Vec operator*(Vec a, Vec b) { return {a.v * b.v}; }
  SPTX_INLINE friend Vec operator/(Vec a, Vec b) { return {a.v / b.v}; }
  /// a·b + c.
  SPTX_INLINE friend Vec fma(Vec a, Vec b, Vec c) {
    return {a.v * b.v + c.v};
  }
  SPTX_INLINE friend Vec sqrt(Vec a) { return {std::sqrt(a.v)}; }
  SPTX_INLINE friend Vec abs(Vec a) { return {std::fabs(a.v)}; }
  SPTX_INLINE friend Vec floor(Vec a) { return {std::floor(a.v)}; }
  /// s·sign(x), sign(0) = 0.
  SPTX_INLINE friend Vec sign_mul(Vec x, Vec s) {
    return {x.v > 0.0f ? s.v : x.v < 0.0f ? -s.v : 0.0f};
  }
  SPTX_INLINE friend bool operator<(Vec a, Vec b) { return a.v < b.v; }
  /// m ? a : b.
  SPTX_INLINE friend Vec select(bool m, Vec a, Vec b) {
    return m ? a : b;
  }
  SPTX_INLINE friend float hsum(Vec a) { return a.v; }
};

#ifdef SPTX_SIMD_X86

template <>
struct Vec<8> {
  __m256 v;

  SPTX_AVX2_INLINE static Vec load(const float* p) {
    return {_mm256_loadu_ps(p)};
  }
  SPTX_AVX2_INLINE static Vec set1(float s) { return {_mm256_set1_ps(s)}; }
  SPTX_AVX2_INLINE static Vec zero() { return {_mm256_setzero_ps()}; }
  SPTX_AVX2_INLINE void store(float* p) const { _mm256_storeu_ps(p, v); }

  SPTX_AVX2_INLINE friend Vec operator+(Vec a, Vec b) {
    return {_mm256_add_ps(a.v, b.v)};
  }
  SPTX_AVX2_INLINE friend Vec operator-(Vec a, Vec b) {
    return {_mm256_sub_ps(a.v, b.v)};
  }
  SPTX_AVX2_INLINE friend Vec operator*(Vec a, Vec b) {
    return {_mm256_mul_ps(a.v, b.v)};
  }
  SPTX_AVX2_INLINE friend Vec operator/(Vec a, Vec b) {
    return {_mm256_div_ps(a.v, b.v)};
  }
  SPTX_AVX2_INLINE friend Vec fma(Vec a, Vec b, Vec c) {
    return {_mm256_fmadd_ps(a.v, b.v, c.v)};
  }
  SPTX_AVX2_INLINE friend Vec sqrt(Vec a) { return {_mm256_sqrt_ps(a.v)}; }
  SPTX_AVX2_INLINE friend Vec abs(Vec a) {
    return {_mm256_andnot_ps(_mm256_set1_ps(-0.0f), a.v)};
  }
  SPTX_AVX2_INLINE friend Vec floor(Vec a) { return {_mm256_floor_ps(a.v)}; }
  SPTX_AVX2_INLINE friend Vec sign_mul(Vec x, Vec s) {
    const __m256 zero = _mm256_setzero_ps();
    const __m256 pos = _mm256_cmp_ps(x.v, zero, _CMP_GT_OQ);
    const __m256 neg = _mm256_cmp_ps(x.v, zero, _CMP_LT_OQ);
    return {_mm256_sub_ps(_mm256_and_ps(pos, s.v), _mm256_and_ps(neg, s.v))};
  }
  /// Lane mask: all-ones where a < b.
  SPTX_AVX2_INLINE friend Vec operator<(Vec a, Vec b) {
    return {_mm256_cmp_ps(a.v, b.v, _CMP_LT_OQ)};
  }
  SPTX_AVX2_INLINE friend Vec select(Vec m, Vec a, Vec b) {
    return {_mm256_blendv_ps(b.v, a.v, m.v)};
  }
  SPTX_AVX2_INLINE friend float hsum(Vec a) {
    const __m128 lo = _mm256_castps256_ps128(a.v);
    const __m128 hi = _mm256_extractf128_ps(a.v, 1);
    __m128 s = _mm_add_ps(lo, hi);
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    return _mm_cvtss_f32(s);
  }
};

#endif  // SPTX_SIMD_X86

}  // namespace sptx::vec
