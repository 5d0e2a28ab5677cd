// Fused forward+backward scoring kernels — the autograd-bypass layer.
//
// The Figure-2 hotspot profile shows that after the SpMM engine, the
// dominant CPU cost in every translation family is the chain of small
// unfused autograd ops (add/sub backward, relation_project, the torus
// dissimilarity): each node materialises an M×d intermediate and performs
// its own gradient pass. These kernels collapse the whole score expression
// of one family into a single pass — gather h, r, t rows straight from the
// embedding tables, translate/project in registers, reduce to the L1/L2 (or
// torus) score — and a matching single-pass backward that scatters
// gradients directly into the parameter tables (no add_backward /
// sub_backward / embedding_backward_scatter nodes, no intermediate Matrix
// allocations; the only scratch is a Workspace-pooled row buffer).
//
// Each kernel is written once against the Vec<W> layer and compiled at two
// lane widths, W=8 (AVX2/FMA) and W=1; the width is picked at runtime once
// per batch via the same cpuid probe as the SpMM engine (cpu_features.hpp;
// SPTX_NO_SIMD forces W=1). The models layer wires these in behind the
// SPTX_FUSED registry knob: `off` keeps the legacy autograd graph (bit
// identical to the historical path), `auto`/`on` use the fused kernels for
// every family that provides them.
//
// Numerical contract: identical formulas and epsilons as the autograd ops
// they replace (row_l2's 1e-12 denominator clamp, the sign(0) = 0
// convention of row_l1, the torus wraparound derivative). SIMD accumulation
// reorders additions, so fused-vs-autograd agreement is within FP tolerance
// (asserted by tests/test_fused_kernels.cpp), not bit-exact.
//
// Lifetime contract: backward passes re-read the triplets, so the storage
// backing the `batch` span must outlive backward(). Every library caller
// satisfies this (compiled plans are held across the backward; the
// trainer's staged buffers live for the batch), and the models layer
// additionally keeps plan-owned triplet vectors alive by capturing their
// shared_ptr in the autograd node.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "src/common/runtime_config.hpp"
#include "src/kg/triplet.hpp"
#include "src/sparse/plan_cache.hpp"
#include "src/tensor/matrix.hpp"

namespace sptx::kernels {

/// Dissimilarity tail of the score expression. Mirrors
/// models::Dissimilarity without depending on the models layer.
enum class Norm { kL1, kL2 };

/// SPTX_FUSED resolution against the process-wide snapshot (one
/// pre-resolved field read, RuntimeConfig::hot()): `off` disables the fused
/// layer, `auto`/`on` enable it wherever a family provides kernels (the
/// semiring families are already single fused autograd ops, so they are
/// unaffected either way).
bool fused_enabled();

// ---- ANN candidate re-rank -------------------------------------------------

/// Exact scorer for one cache-resident block of staged candidate triplets:
/// writes block.size() scores into the output pointer. Typically a
/// KgeModel::score wrapper (the kernels layer cannot depend on models).
using ScoreBlockFn = std::function<void(std::span<const Triplet>, float*)>;

/// Batched exact re-rank of an ANN candidate set: stages the candidate
/// triplets — (anchor, relation, candidates[i]) when `corrupt_tail`,
/// (candidates[i], relation, anchor) otherwise — in fixed-size stack blocks
/// and streams them through `score_block`, writing scores[i] for
/// candidates[i]. Because every family's score() is element-pure per row,
/// the result is bit-identical to scoring the full N-entity candidate batch
/// and gathering the same rows, without ever materializing it.
void rerank_candidates(bool corrupt_tail, std::int64_t anchor,
                       std::int64_t relation,
                       std::span<const index_t> candidates,
                       const ScoreBlockFn& score_block, float* scores);

// ---- Stacked-table families ------------------------------------------------
// table is the [entities; relations] stack ((N+R) × d, relations offset by
// `num_entities`). scores/gscores are M-length contiguous columns. Backward
// accumulates (+=) into the gradient tables, exactly like the autograd path.

/// TransE: scores[i] = ||h + r − t||₁ or ₂.
void transe_forward(std::span<const Triplet> batch, const Matrix& table,
                    index_t num_entities, Norm norm, float* scores);
void transe_backward(std::span<const Triplet> batch, const Matrix& table,
                     index_t num_entities, Norm norm, const float* scores,
                     const float* gscores, Matrix& dtable);

/// TransC: scores[i] = ||h + r − t||₂² (no square root).
void transc_forward(std::span<const Triplet> batch, const Matrix& table,
                    index_t num_entities, float* scores);
void transc_backward(std::span<const Triplet> batch, const Matrix& table,
                     index_t num_entities, const float* gscores,
                     Matrix& dtable);

/// TorusE: scores[i] = Σ_j m_ij (L1) or Σ_j m_ij² (L2) with the wraparound
/// component distance m = min(frac(v), 1 − frac(v)).
void toruse_forward(std::span<const Triplet> batch, const Matrix& table,
                    index_t num_entities, Norm norm, float* scores);
void toruse_backward(std::span<const Triplet> batch, const Matrix& table,
                     index_t num_entities, Norm norm, const float* gscores,
                     Matrix& dtable);

/// TransA (diagonal metric): scores[i] = Σ_j w_rj · (h + r − t)_j².
void transa_forward(std::span<const Triplet> batch, const Matrix& table,
                    const Matrix& metric, index_t num_entities, float* scores);
void transa_backward(std::span<const Triplet> batch, const Matrix& table,
                     const Matrix& metric, index_t num_entities,
                     const float* gscores, Matrix& dtable, Matrix& dmetric);

/// TransM: scores[i] = w_r · ||h + r − t||.
void transm_forward(std::span<const Triplet> batch, const Matrix& table,
                    const Matrix& rel_weight, index_t num_entities, Norm norm,
                    float* scores);
void transm_backward(std::span<const Triplet> batch, const Matrix& table,
                     const Matrix& rel_weight, index_t num_entities, Norm norm,
                     const float* gscores, Matrix& dtable, Matrix& dweight);

// ---- Separate-table families ----------------------------------------------

/// TransH: scores[i] = ||(h − t) + d_r − (w_rᵀ(h − t)) w_r||.
void transh_forward(std::span<const Triplet> batch, const Matrix& entities,
                    const Matrix& normals, const Matrix& transfers, Norm norm,
                    float* scores);
void transh_backward(std::span<const Triplet> batch, const Matrix& entities,
                     const Matrix& normals, const Matrix& transfers, Norm norm,
                     const float* scores, const float* gscores,
                     Matrix& dentities, Matrix& dnormals, Matrix& dtransfers);

/// TransD: scores[i] = ||(h − t) + r + (h_pᵀh − t_pᵀt) r_p||.
void transd_forward(std::span<const Triplet> batch, const Matrix& entities,
                    const Matrix& entity_proj, const Matrix& relations,
                    const Matrix& relation_proj, Norm norm, float* scores);
void transd_backward(std::span<const Triplet> batch, const Matrix& entities,
                     const Matrix& entity_proj, const Matrix& relations,
                     const Matrix& relation_proj, Norm norm,
                     const float* scores, const float* gscores,
                     Matrix& dentities, Matrix& dentity_proj,
                     Matrix& drelations, Matrix& drelation_proj);

// ---- TransR: relation-grouped blocked batched-GEMM -------------------------
// projections stacks R (d_r × d) blocks; scores[i] = ||M_r (h − t) + r||.
// When `groups` (built once per CompiledBatch, cached with the plan) is
// non-null the rows are processed relation-by-relation so each M_r panel
// stays cache-resident, with rows packed four at a time into a diff panel
// that the GEMM micro-kernel consumes (4× reuse of every M_r / dM_r cache
// line). Null groups fall back to batch order (the span-only score path).
//
// `expr_stash` (M × d_r) stores the pre-norm expression for the backward
// pass; pass nullptr on score-only calls to skip the store.
void transr_forward(const sparse::RelationGroups* groups,
                    std::span<const Triplet> batch, const Matrix& entities,
                    const Matrix& relations, const Matrix& projections,
                    index_t rel_dim, Norm norm, float* scores,
                    Matrix* expr_stash);
void transr_backward(const sparse::RelationGroups* groups,
                     std::span<const Triplet> batch, const Matrix& entities,
                     const Matrix& relations, const Matrix& projections,
                     index_t rel_dim, Norm norm, const Matrix& expr_stash,
                     const float* scores, const float* gscores,
                     Matrix& dentities, Matrix& drelations,
                     Matrix& dprojections);

}  // namespace sptx::kernels
