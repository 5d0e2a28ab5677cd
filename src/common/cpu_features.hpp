// Runtime CPU feature detection for the SIMD kernel dispatch.
//
// The AVX2/FMA kernels are compiled unconditionally and selected at runtime
// from cpuid: the SpMM engine's through per-function target attributes,
// every other row kernel as the W=8 copy of a width-generic body (see
// vec.hpp). simd_enabled() is the one switch; SPTX_NO_SIMD turns it off.
#pragma once

#include "src/common/runtime_config.hpp"

namespace sptx {

struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
  bool avx512f = false;
};

/// cpuid-derived feature set, probed once per process.
inline const CpuFeatures& cpu_features() {
  static const CpuFeatures features = [] {
    CpuFeatures f;
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
    __builtin_cpu_init();
    f.avx2 = __builtin_cpu_supports("avx2") != 0;
    f.fma = __builtin_cpu_supports("fma") != 0;
    f.avx512f = __builtin_cpu_supports("avx512f") != 0;
#endif
    return f;
  }();
  return features;
}

/// True when the AVX2+FMA kernels may run: hardware support present and the
/// SPTX_NO_SIMD kill-switch unset in the current runtime-config snapshot.
/// Re-evaluated per call — one lock-free atomic shared_ptr load and a
/// pre-resolved field read (RuntimeConfig::hot()), so a programmatically
/// installed snapshot takes effect without a process restart and the SpMM
/// dispatch path never touches a mutex or allocates.
inline bool simd_enabled() {
  if (config::current()->hot().no_simd) return false;
  return cpu_features().avx2 && cpu_features().fma;
}

}  // namespace sptx
