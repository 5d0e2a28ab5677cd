// Kernel-equivalence suite: every forward SpMM kernel (naive / unrolled /
// tiled / parallel / simd / tiled_parallel / auto) and both backward paths
// (direct scatter, cached-transpose gather) must agree within 1e-5 on
// randomized inputs — including empty rows, dims not divisible by the SIMD
// width, single-row matrices, and ±1-only incidence matrices that take the
// fused register paths. The simd:: row primitives are checked against a
// double-precision reference at lengths that straddle their loops. CMake
// registers this binary twice: once as-is and once with SPTX_NO_SIMD=1 so
// both lane widths (W=8 and W=1) are covered on one machine.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "src/common/cpu_features.hpp"
#include "src/common/rng.hpp"
#include "src/common/runtime_config.hpp"
#include "src/common/simd.hpp"
#include "src/sparse/incidence.hpp"
#include "src/sparse/spmm.hpp"

namespace sptx {
namespace {

constexpr float kTol = 1e-5f;

const std::vector<SpmmKernel>& all_kernels() {
  static const std::vector<SpmmKernel> kernels = {
      SpmmKernel::kNaive,    SpmmKernel::kUnrolled,
      SpmmKernel::kTiled,    SpmmKernel::kParallel,
      SpmmKernel::kSimd,     SpmmKernel::kTiledParallel,
      SpmmKernel::kAuto,
  };
  return kernels;
}

// Random CSR with controllable row occupancy: `fill` is the chance a row
// gets entries at all, so empty rows appear mid-matrix. `unit` restricts
// values to ±1 (the incidence property / fused kernel paths).
Csr random_csr(index_t rows, index_t cols, index_t max_row_nnz, double fill,
               bool unit, Rng& rng) {
  Csr a;
  a.rows = rows;
  a.cols = cols;
  a.row_ptr.resize(static_cast<std::size_t>(rows) + 1, 0);
  for (index_t i = 0; i < rows; ++i) {
    a.row_ptr[static_cast<std::size_t>(i)] =
        static_cast<index_t>(a.values.size());
    if (rng.next_float() < fill) {
      const index_t nnz =
          1 + static_cast<index_t>(rng.next_below(
                  static_cast<std::uint64_t>(max_row_nnz)));
      for (index_t k = 0; k < nnz; ++k) {
        a.col_idx.push_back(static_cast<index_t>(
            rng.next_below(static_cast<std::uint64_t>(cols))));
        a.values.push_back(unit ? (rng.next_float() < 0.5f ? 1.0f : -1.0f)
                                : rng.uniform(-2.0f, 2.0f));
      }
    }
  }
  a.row_ptr[static_cast<std::size_t>(rows)] =
      static_cast<index_t>(a.values.size());
  return a;
}

Matrix random_dense(index_t rows, index_t cols, Rng& rng) {
  Matrix m(rows, cols);
  m.fill_uniform(rng, -1, 1);
  return m;
}

Matrix reference_spmm(const Csr& a, const Matrix& x) {
  return matmul(to_dense(a), x);
}

struct Shape {
  index_t rows, cols, max_row_nnz, dim;
  double fill;
};

// Dims deliberately straddle the 8/16-wide SIMD main loops (tails of 1–7)
// and the unroll factor; single-row and empty-heavy matrices included.
const std::vector<Shape>& shapes() {
  static const std::vector<Shape> s = {
      {1, 1, 1, 1, 1.0},      // degenerate
      {1, 40, 6, 33, 1.0},    // single row, odd dim
      {17, 9, 4, 7, 0.6},     // dim < SIMD width, empty rows
      {32, 24, 5, 8, 0.5},    // dim == one vector
      {64, 50, 8, 20, 0.7},   // 16-wide main loop + 4-tail
      {40, 30, 3, 128, 0.4},  // training dim, many empty rows
      {128, 64, 12, 65, 0.9}, // long rows hit the variable-nnz path
  };
  return s;
}

TEST(KernelEquivalence, AllForwardKernelsMatchDenseReference) {
  int seed = 100;
  for (const Shape& sh : shapes()) {
    for (bool unit : {true, false}) {
      Rng rng(static_cast<std::uint64_t>(seed++));
      const Csr a =
          random_csr(sh.rows, sh.cols, sh.max_row_nnz, sh.fill, unit, rng);
      const Matrix x = random_dense(sh.cols, sh.dim, rng);
      const Matrix want = reference_spmm(a, x);
      for (SpmmKernel k : all_kernels()) {
        const Matrix got = spmm_csr(a, x, k);
        EXPECT_LT(max_abs_diff(got, want), kTol)
            << "kernel " << static_cast<int>(k) << " rows=" << sh.rows
            << " dim=" << sh.dim << " unit=" << unit;
      }
      Matrix coo_out = spmm_coo(csr_to_coo(a), x);
      EXPECT_LT(max_abs_diff(coo_out, want), kTol);
    }
  }
}

TEST(KernelEquivalence, IntoVariantOverwritesStaleOutput) {
  Rng rng(7);
  const Csr a = random_csr(23, 17, 5, 0.5, true, rng);
  const Matrix x = random_dense(17, 19, rng);
  const Matrix want = reference_spmm(a, x);
  for (SpmmKernel k : all_kernels()) {
    Matrix out(23, 19);
    out.fill(321.0f);
    spmm_csr_into(a, x, out, k);
    EXPECT_LT(max_abs_diff(out, want), kTol)
        << "kernel " << static_cast<int>(k);
  }
}

// The incidence builders produce the 3/2/1-nnz rows the fused register
// paths specialise; check them against the dense reference end to end.
TEST(KernelEquivalence, IncidenceShapesTakeFusedPathsCorrectly) {
  Rng rng(11);
  const index_t n = 30, r = 5, d = 24;
  std::vector<Triplet> batch;
  for (int i = 0; i < 40; ++i) {
    batch.push_back({static_cast<std::int64_t>(rng.next_below(n)),
                     static_cast<std::int64_t>(rng.next_below(r)),
                     static_cast<std::int64_t>(rng.next_below(n))});
  }
  const Matrix e = random_dense(n + r, d, rng);
  const Matrix en = random_dense(n, d, rng);

  const Csr hrt = build_hrt_incidence_csr(batch, n, r);   // 3 nnz/row
  const Csr ht = build_ht_incidence_csr(batch, n);        // 2 nnz/row
  const Csr sel =
      build_entity_selection_csr(batch, n, TripletSlot::kHead);  // 1 nnz/row
  for (SpmmKernel k : all_kernels()) {
    EXPECT_LT(max_abs_diff(spmm_csr(hrt, e, k), reference_spmm(hrt, e)), kTol);
    EXPECT_LT(max_abs_diff(spmm_csr(ht, en, k), reference_spmm(ht, en)), kTol);
    EXPECT_LT(max_abs_diff(spmm_csr(sel, en, k), reference_spmm(sel, en)),
              kTol);
  }
}

TEST(KernelEquivalence, BothBackwardPathsAgreeWithDenseTranspose) {
  int seed = 500;
  for (const Shape& sh : shapes()) {
    Rng rng(static_cast<std::uint64_t>(seed++));
    const Csr a =
        random_csr(sh.rows, sh.cols, sh.max_row_nnz, sh.fill, true, rng);
    const Matrix g = random_dense(sh.rows, sh.dim, rng);
    const Matrix want = matmul_tn(to_dense(a), g);
    for (const char* mode : {"scatter", "transpose"}) {
      // Registry override (setenv would be a no-op: the process snapshot is
      // latched at first use).
      config::ScopedOverride force("SPTX_SPMM_BACKWARD", mode);
      EXPECT_EQ(spmm_backward_uses_transpose(a, sh.dim),
                std::string_view(mode) == "transpose")
          << "override not honoured for " << mode;
      Matrix dx(sh.cols, sh.dim);
      spmm_csr_transposed_accumulate(a, g, dx);
      EXPECT_LT(max_abs_diff(dx, want), kTol)
          << "backward mode " << mode << " rows=" << sh.rows;
      // Accumulation: a second call doubles the gradient.
      spmm_csr_transposed_accumulate(a, g, dx);
      Matrix doubled = want;
      doubled.scale_(2.0f);
      EXPECT_LT(max_abs_diff(dx, doubled), kTol);
    }
    EXPECT_LT(max_abs_diff(spmm_csr_transposed_explicit(a, g), want), kTol);
  }
}

TEST(KernelEquivalence, AutoResolvesToConcreteKernel) {
  Rng rng(42);
  const Csr small = random_csr(4, 4, 2, 1.0, true, rng);
  const Csr big = random_csr(4096, 512, 8, 1.0, true, rng);
  for (index_t dim : {8, 128, 1024}) {
    EXPECT_NE(spmm_auto_kernel(small, dim), SpmmKernel::kAuto);
    EXPECT_NE(spmm_auto_kernel(big, dim), SpmmKernel::kAuto);
  }
  // Without SIMD the auto choice must be a scalar kernel.
  if (!simd_enabled()) {
    for (index_t dim : {8, 128, 1024}) {
      const SpmmKernel k = spmm_auto_kernel(big, dim);
      EXPECT_NE(k, SpmmKernel::kSimd);
      EXPECT_NE(k, SpmmKernel::kTiledParallel);
    }
  }
}

TEST(KernelEquivalence, AutoEnvOverrideForcesKernel) {
  Rng rng(43);
  const Csr a = random_csr(64, 32, 4, 0.8, true, rng);
  // The dispatch consults the installed runtime-config snapshot: a
  // programmatic override forces a kernel...
  RuntimeConfig rc = RuntimeConfig::from_env();
  rc.set("SPTX_SPMM_KERNEL", "tiled");
  config::install(rc);
  EXPECT_EQ(spmm_auto_kernel(a, 128), SpmmKernel::kTiled);
  rc.set("SPTX_SPMM_KERNEL", "NAIVE");  // flags/enums are case-insensitive
  config::install(rc);
  EXPECT_EQ(spmm_auto_kernel(a, 128), SpmmKernel::kNaive);
  // ...an invalid name is rejected at set() time instead of being silently
  // dropped...
  EXPECT_THROW(rc.set("SPTX_SPMM_KERNEL", "not-a-kernel"), Error);
  // ...and the environment path works through a fresh snapshot.
  setenv("SPTX_SPMM_KERNEL", "tiled", 1);
  config::install(RuntimeConfig::from_env());
  EXPECT_EQ(spmm_auto_kernel(a, 128), SpmmKernel::kTiled);
  unsetenv("SPTX_SPMM_KERNEL");
  config::install(RuntimeConfig::from_env());
  EXPECT_NE(spmm_auto_kernel(a, 128), SpmmKernel::kAuto);
}

// Lengths cover the 16-wide two-accumulator loop of dot/squared_norm, the
// 8-wide loop and the scalar tail (and, at W=1, plain scalar loops).
TEST(KernelEquivalence, SimdRowPrimitivesMatchDoubleReference) {
  Rng rng(45);
  for (index_t d : {1, 7, 8, 15, 16, 17, 67}) {
    std::vector<float> x(static_cast<std::size_t>(d));
    std::vector<float> y(x.size());
    for (auto& v : x) v = rng.uniform(-2.0f, 2.0f);
    for (auto& v : y) v = rng.uniform(-2.0f, 2.0f);
    double sq = 0.0, dt = 0.0, mag = 0.0;
    for (std::size_t j = 0; j < x.size(); ++j) {
      sq += double(x[j]) * x[j];
      dt += double(x[j]) * y[j];
      mag += std::fabs(double(x[j]) * y[j]);
    }
    // Reductions: float accumulation error is bounded by d·ε·Σ|terms|.
    const double red_tol = 1e-6 * static_cast<double>(d);
    EXPECT_NEAR(simd::squared_norm(x.data(), d), sq, red_tol * sq) << d;
    EXPECT_NEAR(simd::dot(x.data(), y.data(), d), dt, red_tol * mag) << d;

    // Elementwise ops: one rounding per element.
    constexpr float kA = 0.37f, kS = -1.3f;
    const auto check = [&](const char* op, auto&& run, auto&& want) {
      std::vector<float> out = y;
      run(out.data());
      for (std::size_t j = 0; j < out.size(); ++j) {
        const double w = want(j);
        EXPECT_NEAR(out[j], w, 1e-6 * (1.0 + std::fabs(w)))
            << op << " d=" << d << " j=" << j;
      }
    };
    check("axpy", [&](float* o) { simd::axpy(o, x.data(), kA, d); },
          [&](std::size_t j) { return y[j] + double(kA) * x[j]; });
    check("scale", [&](float* o) { simd::scale(o, d, kS); },
          [&](std::size_t j) { return double(kS) * y[j]; });
    check("add", [&](float* o) { simd::add(o, x.data(), d); },
          [&](std::size_t j) { return double(y[j]) + x[j]; });
    check("sub", [&](float* o) { simd::sub(o, x.data(), d); },
          [&](std::size_t j) { return double(y[j]) - x[j]; });
    check("mul", [&](float* o) { simd::mul(o, x.data(), d); },
          [&](std::size_t j) { return double(y[j]) * x[j]; });
  }
}

// simd::normalize_rows' unit-row rule: a rescaled row's computed squared
// norm lands within unit_norm_tolerance(d) of 1, so a second pass changes
// no bit. Rows are drawn uniform, scaled far from unit norm, or set within
// a few tolerances of it on either side; both lane widths run.
TEST(KernelEquivalence, NormalizeRowsIsAFixedPoint) {
  constexpr index_t kRows = 100000, kChunk = 2500;
  for (const char* no_simd : {"0", "1"}) {
    const config::ScopedOverride width("SPTX_NO_SIMD", no_simd);
    Rng rng(46);
    for (index_t d : {1, 7, 8, 9, 50, 64, 100, 128, 512}) {
      const float tau = simd::unit_norm_tolerance(d);
      std::vector<float> rows(static_cast<std::size_t>(kChunk * d));
      for (index_t done = 0; done < kRows; done += kChunk) {
        for (index_t i = 0; i < kChunk; ++i) {
          float* x = rows.data() + i * d;
          double sq = 0.0;
          for (index_t j = 0; j < d; ++j) {
            x[j] = rng.uniform(-1.0f, 1.0f);
            sq += double(x[j]) * x[j];
          }
          double s = 1.0;
          switch (i % 3) {
            case 0: break;  // as drawn
            case 1: s = (i % 2 == 0 ? 1e3 : 1e-3); break;
            default:  // squared norm about 1 ± 4τ
              s = (1.0 + rng.uniform(-2.0f, 2.0f) * tau) / std::sqrt(sq);
          }
          for (index_t j = 0; j < d; ++j) x[j] = static_cast<float>(x[j] * s);
        }
        simd::normalize_rows(rows.data(), d, nullptr, kChunk);
        for (index_t i = 0; i < kChunk; ++i) {
          double sq = 0.0;
          for (index_t j = 0; j < d; ++j)
            sq += double(rows[i * d + j]) * rows[i * d + j];
          ASSERT_NEAR(sq, 1.0, 1e-4) << "d=" << d << " row " << done + i;
        }
        const std::vector<float> once = rows;
        simd::normalize_rows(rows.data(), d, nullptr, kChunk);
        ASSERT_EQ(std::memcmp(rows.data(), once.data(),
                              rows.size() * sizeof(float)),
                  0)
            << "second pass moved a row: d=" << d << " SPTX_NO_SIMD="
            << no_simd;
      }
    }
  }
}

TEST(KernelEquivalence, UnitValueCacheDetectsIncidence) {
  Rng rng(44);
  const Csr unit = random_csr(16, 8, 3, 0.9, true, rng);
  const Csr general = random_csr(16, 8, 3, 0.9, false, rng);
  EXPECT_TRUE(unit.unit_values());
  EXPECT_FALSE(general.unit_values());
  // Cached transpose matches the free-function transpose.
  EXPECT_LT(max_abs_diff(to_dense(unit.transposed()), to_dense(transpose(unit))),
            0.0f + 1e-7f);
  EXPECT_TRUE(unit.transposed().unit_values());
}

}  // namespace
}  // namespace sptx
