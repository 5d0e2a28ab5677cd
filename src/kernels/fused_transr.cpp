// Fused TransR: relation-grouped blocked batched-GEMM.
//
// TransR's score ||M_r (h − t) + r|| is the one translation family whose
// hot loop is compute-bound (Figure 2: relation_project + its backward are
// 95% of the profile): every batch row multiplies a (d_r × d) projection
// panel. The autograd path walks rows in batch order, so with randomly
// ordered relations every row faults a different ~16–64 KB M_r panel
// through the cache, and the backward repeats the walk twice (dM outer
// products, dx back-projection).
//
// This kernel executes the batch relation-by-relation (the RelationGroups
// ordering built once per CompiledBatch and cached with the plan), packs
// the (h − t) difference vectors of up to four rows into a contiguous
// panel, and runs a 4-row GEMM micro-kernel against the B-panel M_r: every
// M_r (and, in backward, dM_r) cache line is loaded once per four rows
// instead of once per row, and the rank-4 dM update performs four FMAs per
// load/store pair. The pre-norm expression rows are stashed (Workspace-
// pooled M × d_r matrix) so the backward never re-runs the forward GEMM.
//
// The micro-kernels and batch loops are written once in fused_transr.inc
// and compiled at both lane widths (see src/common/vec.hpp); the entry
// points pick the width once per batch.
#include <algorithm>
#include <cmath>
#include <cstdint>

#include "src/common/vec.hpp"
#include "src/kernels/fused.hpp"
#include "src/profiling/flops.hpp"

namespace sptx::kernels {

namespace {

constexpr float kNormEps = 1e-12f;
constexpr index_t kPanelRows = 4;  // GEMM micro-kernel height

/// du_b[p] from the stashed expression row (L2: s·e, L1: g·sign(e)).
inline void du_from_expr(const float* e, float* du, index_t dr, Norm norm,
                         float score, float g) {
  if (norm == Norm::kL2) {
    const float s = g / std::max(score, kNormEps);
    for (index_t p = 0; p < dr; ++p) du[p] = s * e[p];
  } else {
    for (index_t p = 0; p < dr; ++p)
      du[p] = e[p] > 0.0f ? g : e[p] < 0.0f ? -g : 0.0f;
  }
}

#define SPTX_WIDTH_INC "src/kernels/fused_transr.inc"
#include "src/common/foreach_width.inc"

}  // namespace

void transr_forward(const sparse::RelationGroups* groups,
                    std::span<const Triplet> batch, const Matrix& entities,
                    const Matrix& relations, const Matrix& projections,
                    index_t rel_dim, Norm norm, float* scores,
                    Matrix* expr_stash) {
  SPTX_BY_WIDTH(transr_forward, groups, batch, entities, relations,
                projections, rel_dim, norm, scores, expr_stash);
}

void transr_backward(const sparse::RelationGroups* groups,
                     std::span<const Triplet> batch, const Matrix& entities,
                     const Matrix& relations, const Matrix& projections,
                     index_t rel_dim, Norm norm, const Matrix& expr_stash,
                     const float* scores, const float* gscores,
                     Matrix& dentities, Matrix& drelations,
                     Matrix& dprojections) {
  SPTX_CHECK(groups != nullptr,
             "fused TransR backward needs the plan's relation groups");
  (void)relations;
  SPTX_BY_WIDTH(transr_backward, groups, batch, entities, projections,
                rel_dim, norm, expr_stash, scores, gscores, dentities,
                drelations, dprojections);
}

}  // namespace sptx::kernels
