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

/// Σ a[j]·b[j].
inline float dot(const float* a, const float* b, std::int64_t d) {
  return SPTX_BY_WIDTH(dot, a, b, d);
}

}  // namespace sptx::simd
