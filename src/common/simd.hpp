// Vectorized row primitives — the axpy core shared by the dense layer.
//
// Each primitive is written once in simd_rows.inc and compiled at both lane
// widths (see vec.hpp); the public functions below pick the width per call.
// The SpMM engine keeps its own register-blocked kernels in spmm.cpp; these
// helpers serve the elementwise hot paths: optimizer axpy, Matrix
// arithmetic, and row normalization.
#pragma once

#include <cstdint>

#include "src/common/vec.hpp"

namespace sptx::simd {

#define SPTX_WIDTH_INC "src/common/simd_rows.inc"
#include "src/common/foreach_width.inc"

/// Σ x[j]² over d contiguous floats.
inline float squared_norm(const float* x, std::int64_t d) {
  return SPTX_BY_WIDTH(squared_norm, x, d);
}

/// x *= s elementwise.
inline void scale(float* x, std::int64_t d, float s) {
  SPTX_BY_WIDTH(scale, x, d, s);
}

/// y += a · x (the axpy core).
inline void axpy(float* y, const float* x, float a, std::int64_t d) {
  SPTX_BY_WIDTH(axpy, y, x, a, d);
}

/// y += x.
inline void add(float* y, const float* x, std::int64_t d) {
  SPTX_BY_WIDTH(add, y, x, d);
}

/// y -= x.
inline void sub(float* y, const float* x, std::int64_t d) {
  SPTX_BY_WIDTH(sub, y, x, d);
}

/// y *= x elementwise.
inline void mul(float* y, const float* x, std::int64_t d) {
  SPTX_BY_WIDTH(mul, y, x, d);
}

/// The unit-row tolerance of normalize_rows at width d: a bound on how far
/// the squared norm computed by squared_norm can sit from 1 just after a
/// rescale. squared_norm's chain of at most d rounded fma/add steps errs by
/// γ_d ≈ d·u (u = 2⁻²⁴) relative; the rescale adds 1/√ (2 roundings) and
/// the per-element product (1 rounding), each entering squared, so 6u; the
/// next pass's squared_norm errs by γ_d again. (2d + 6)·u bounds the sum to
/// first order and 6u more covers the second-order terms up to d ≈ 7000.
inline float unit_norm_tolerance(std::int64_t d) {
  return static_cast<float>(2 * d + 12) * 0x1p-24f;
}

/// L2-normalizes rows of a row-major table with d columns: rows[0..n) when
/// rows is non-null, else rows [0, n). A row whose squared norm is within
/// unit_norm_tolerance(d) of 1 is already a unit row and keeps every bit, so
/// normalizing twice equals normalizing once, and a pass over a batch's
/// rows equals a pass over the whole table whenever the other rows were
/// normalized before and have not moved since. Zero rows stay zero.
inline void normalize_rows(float* base, std::int64_t d,
                           const std::int64_t* rows, std::int64_t n) {
  SPTX_BY_WIDTH(normalize_rows, base, d, rows, n, unit_norm_tolerance(d));
}

/// Σ a[j]·b[j].
inline float dot(const float* a, const float* b, std::int64_t d) {
  return SPTX_BY_WIDTH(dot, a, b, d);
}

}  // namespace sptx::simd
