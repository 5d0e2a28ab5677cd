// Shard execution shared by every DDP process: one Replica type, one batch
// iterator, one shard compute and one row-support derivation.
//
// The epoch driver (driver.hpp) and the multi-process worker loop
// (proc_ddp.cpp) both walk an epoch through for_each_batch and compute
// shards through compute_shard. A shard's gradient contribution is
// harvested out of a replica's accumulation buffers into a compact
// ParamGrad per parameter — sparse (touched rows only) for
// entity/relation-indexed tables, dense otherwise — and the driver reduces
// ShardGrads in shard-index order. That order is the bit-identity anchor:
// WHO computed a shard (which thread, which process, a recovery re-run on
// the master) never affects the reduced gradient, and with a single copy of
// the arithmetic here the executors cannot drift apart.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/kg/triplet_source.hpp"
#include "src/models/model.hpp"
#include "src/sparse/plan_cache.hpp"

namespace sptx::distributed {

/// One parameter's gradient contribution from one shard. Sparse when the
/// parameter is entity/relation-indexed (only the rows in the shard's
/// incidence support, which is the entire nonzero set), dense otherwise.
struct ParamGrad {
  bool present = false;
  bool dense = false;
  std::vector<index_t> rows;  // sorted touched rows (sparse form)
  Matrix values;              // rows.size()×cols, or the full matrix (dense)
};
using ShardGrads = std::vector<ParamGrad>;

/// One model replica plus the compiled-batch machinery around it: the
/// driver's master, every in-process worker and every worker process hold
/// one each.
struct Replica {
  std::unique_ptr<models::KgeModel> model;
  models::ScoringCoreModel* scoring = nullptr;  // nullptr = span fallback
  std::vector<autograd::Variable> params;
  std::vector<models::ParamIndexSpace> spaces;
  sparse::ScoringRecipe recipe;
  std::unique_ptr<sparse::PlanCache> cache;  // nullptr = caching off
  index_t num_entities = 0;                  // the training data's vocabulary
  index_t num_relations = 0;
  bool support_verified = false;

  /// Adopt `m` and materialise every gradient buffer (zeroed) so the
  /// harvest/reduce cycle never races lazy allocation.
  void init(std::unique_ptr<models::KgeModel> m, bool use_cache,
            index_t n_ent, index_t n_rel);
};

/// One batch of an epoch, derived identically in every process.
struct Batch {
  std::int64_t ordinal = 0;  // batch index within the epoch
  index_t count = 0;         // positives in the batch
  index_t shard_size = 0;
  index_t num_shards = 0;
  /// Global index of shard 0 — the plan-cache key base, epoch-invariant.
  index_t shard_ordinal_base = 0;
  std::span<const Triplet> pos, neg;
};

/// Walk one epoch's batches. The data RNG reseeds from `seed + 1` every
/// epoch, which pins the negatives to the epoch-0 stream — the paper's
/// pregenerate-once protocol without an O(dataset) buffer, and the property
/// that lets cached shard plans serve every later epoch. Every process
/// derives each whole batch's negatives, owned shards or not, so the stream
/// advances identically everywhere. `fn` returns false to stop early;
/// for_each_batch returns false exactly when it was stopped.
bool for_each_batch(const kg::TripletSource& data, std::uint64_t seed,
                    index_t batch_size, index_t shard_size,
                    const std::function<bool(const Batch&)>& fn);

/// Forward + backward + harvest of shard `s` of `batch` on `rep`, through
/// the compiled-batch pipeline (plans cached under shard_ordinal_base + s)
/// or the span fallback for models outside the scoring-core family. The
/// shard's loss is scaled by its true share of the batch BEFORE backward,
/// so the reduced gradient is exactly the full-batch-mean gradient even
/// when shard_size does not divide the batch. Harvesting zeroes the
/// replica's buffers for its next shard. Returns the weighted loss.
float compute_shard(Replica& rep, const Batch& batch, index_t s,
                    ShardGrads& out);

/// The per-parameter row support of a triplet set: the rows a backward
/// over `pos`/`neg` can write, and so the rows a harvest copies and a step
/// touches. rows[i] is nullptr for a kDense parameter. Not copyable: rows
/// points into the object's own lists.
struct StepRows {
  std::vector<index_t> ents, rels, stacked;
  std::vector<std::vector<index_t>> blocks;       // per-param kRelationBlocks
  std::vector<const std::vector<index_t>*> rows;  // nullptr = dense param

  StepRows(Replica& rep, std::span<const Triplet> pos,
           std::span<const Triplet> neg);
  StepRows(const StepRows&) = delete;
  StepRows& operator=(const StepRows&) = delete;
};

/// SGD-step `rep` with the reduced gradient held in `grads`' buffers,
/// restricted to `support`, then post_step(). Reads `grads` only.
void step_replica(Replica& rep, std::vector<autograd::Variable>& grads,
                  const StepRows& support, float lr);

/// The master's step, taken by the driver and by every worker process once
/// the reduced gradient sits in `rep`'s own buffers: step_replica, then
/// re-zero the support rows so the next batch starts clean.
void step_and_clear(Replica& rep, const StepRows& support, float lr);

}  // namespace sptx::distributed
