// Fused forward+backward kernels for the translation families (TransR lives
// in fused_transr.cpp — it needs the relation-grouped GEMM micro-kernels).
//
// The per-row primitives and the per-family batch loops are written once in
// fused.inc and compiled at both lane widths (see src/common/vec.hpp); each
// public entry point below picks the width once per batch. The math and
// epsilons mirror the autograd ops these kernels replace (see ops.cpp):
// row_l2's 1e-12 clamp, row_l1's sign(0) = 0, the torus wraparound
// derivative.
#include "src/kernels/fused.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "src/common/vec.hpp"
#include "src/profiling/flops.hpp"

namespace sptx::kernels {

namespace {

constexpr float kNormEps = 1e-12f;  // ops.cpp's norm-backward clamp

/// dL/dscore → dL/du scale for an L2-norm tail (row_l2's backward with its
/// 1e-12 clamp). The L1 tail has no scale — sign_scale applies the gradient.
inline float l2_scale(float score, float g) {
  return g / std::max(score, kNormEps);
}

#define SPTX_WIDTH_INC "src/kernels/fused.inc"
#include "src/common/foreach_width.inc"

}  // namespace

bool fused_enabled() { return !config::current()->hot().fused_off; }

void transe_forward(std::span<const Triplet> batch, const Matrix& table,
                    index_t num_entities, Norm norm, float* scores) {
  SPTX_BY_WIDTH(transe_forward, batch, table, num_entities, norm, scores);
}

void transe_backward(std::span<const Triplet> batch, const Matrix& table,
                     index_t num_entities, Norm norm, const float* scores,
                     const float* gscores, Matrix& dtable) {
  SPTX_BY_WIDTH(transe_backward, batch, table, num_entities, norm, scores,
                gscores, dtable);
}

void transc_forward(std::span<const Triplet> batch, const Matrix& table,
                    index_t num_entities, float* scores) {
  SPTX_BY_WIDTH(transc_forward, batch, table, num_entities, scores);
}

void transc_backward(std::span<const Triplet> batch, const Matrix& table,
                     index_t num_entities, const float* gscores,
                     Matrix& dtable) {
  SPTX_BY_WIDTH(transc_backward, batch, table, num_entities, gscores, dtable);
}

void toruse_forward(std::span<const Triplet> batch, const Matrix& table,
                    index_t num_entities, Norm norm, float* scores) {
  SPTX_BY_WIDTH(toruse_forward, batch, table, num_entities, norm, scores);
}

void toruse_backward(std::span<const Triplet> batch, const Matrix& table,
                     index_t num_entities, Norm norm, const float* gscores,
                     Matrix& dtable) {
  SPTX_BY_WIDTH(toruse_backward, batch, table, num_entities, norm, gscores,
                dtable);
}

void transa_forward(std::span<const Triplet> batch, const Matrix& table,
                    const Matrix& metric, index_t num_entities, float* scores) {
  SPTX_BY_WIDTH(transa_forward, batch, table, metric, num_entities, scores);
}

void transa_backward(std::span<const Triplet> batch, const Matrix& table,
                     const Matrix& metric, index_t num_entities,
                     const float* gscores, Matrix& dtable, Matrix& dmetric) {
  SPTX_BY_WIDTH(transa_backward, batch, table, metric, num_entities, gscores,
                dtable, dmetric);
}

void transm_forward(std::span<const Triplet> batch, const Matrix& table,
                    const Matrix& rel_weight, index_t num_entities, Norm norm,
                    float* scores) {
  SPTX_BY_WIDTH(transm_forward, batch, table, rel_weight, num_entities, norm,
                scores);
}

void transm_backward(std::span<const Triplet> batch, const Matrix& table,
                     const Matrix& rel_weight, index_t num_entities, Norm norm,
                     const float* gscores, Matrix& dtable, Matrix& dweight) {
  SPTX_BY_WIDTH(transm_backward, batch, table, rel_weight, num_entities, norm,
                gscores, dtable, dweight);
}

void transh_forward(std::span<const Triplet> batch, const Matrix& entities,
                    const Matrix& normals, const Matrix& transfers, Norm norm,
                    float* scores) {
  SPTX_BY_WIDTH(transh_forward, batch, entities, normals, transfers, norm,
                scores);
}

void transh_backward(std::span<const Triplet> batch, const Matrix& entities,
                     const Matrix& normals, const Matrix& transfers, Norm norm,
                     const float* scores, const float* gscores,
                     Matrix& dentities, Matrix& dnormals, Matrix& dtransfers) {
  SPTX_BY_WIDTH(transh_backward, batch, entities, normals, transfers, norm,
                scores, gscores, dentities, dnormals, dtransfers);
}

void transd_forward(std::span<const Triplet> batch, const Matrix& entities,
                    const Matrix& entity_proj, const Matrix& relations,
                    const Matrix& relation_proj, Norm norm, float* scores) {
  SPTX_BY_WIDTH(transd_forward, batch, entities, entity_proj, relations,
                relation_proj, norm, scores);
}

void transd_backward(std::span<const Triplet> batch, const Matrix& entities,
                     const Matrix& entity_proj, const Matrix& relations,
                     const Matrix& relation_proj, Norm norm,
                     const float* scores, const float* gscores,
                     Matrix& dentities, Matrix& dentity_proj,
                     Matrix& drelations, Matrix& drelation_proj) {
  SPTX_BY_WIDTH(transd_backward, batch, entities, entity_proj, relations,
                relation_proj, norm, scores, gscores, dentities, dentity_proj,
                drelations, drelation_proj);
}

void rerank_candidates(bool corrupt_tail, std::int64_t anchor,
                       std::int64_t relation,
                       std::span<const index_t> candidates,
                       const ScoreBlockFn& score_block, float* scores) {
  // 512 triplets ≈ 12 KB of staging — resident in L1/L2 alongside the rows
  // the scorer gathers, and no per-query heap allocation.
  constexpr std::size_t kBlock = 512;
  Triplet block[kBlock];
  for (std::size_t offset = 0; offset < candidates.size(); offset += kBlock) {
    const std::size_t n = std::min(kBlock, candidates.size() - offset);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t e = candidates[offset + i];
      block[i] = corrupt_tail ? Triplet{anchor, relation, e}
                              : Triplet{e, relation, anchor};
    }
    score_block(std::span<const Triplet>(block, n), scores + offset);
  }
}

}  // namespace sptx::kernels
