// Shared scoring-core execution: the plan/execute split at the model layer.
//
// Every sparse family used to interleave incidence building with its SpMM
// algebra inside distance(); now the building lives in
// sparse::CompiledBatch::compile (driven by the model's recipe) and the
// algebra lives in forward(). These two shims connect the worlds: the span
// path compiles an ephemeral plan per call (exactly the old per-batch
// behaviour), and the compiled path is what the staged trainer feeds with
// cached / prefetched plans.
#include "src/kernels/fused.hpp"
#include "src/models/model.hpp"
#include "src/profiling/counters.hpp"

namespace sptx::models {

std::vector<ParamIndexSpace> KgeModel::param_index_spaces() {
  const index_t n = num_entities_;
  const index_t r = num_relations_;
  std::vector<ParamIndexSpace> spaces;
  for (autograd::Variable& p : params()) {
    const index_t rows = p.rows();
    if (n == r) {
      // Entity- and relation-sized tables are indistinguishable by shape;
      // the stacked layout (rows == 2n) could equally be either doubled.
      // Dense is the only classification that cannot drop gradient.
      spaces.push_back(ParamIndexSpace::kDense);
    } else if (rows == n) {
      spaces.push_back(ParamIndexSpace::kEntity);
    } else if (rows == r) {
      spaces.push_back(ParamIndexSpace::kRelation);
    } else if (rows == n + r) {
      spaces.push_back(ParamIndexSpace::kEntityRelationStacked);
    } else {
      spaces.push_back(ParamIndexSpace::kDense);
    }
  }
  return spaces;
}

void KgeModel::post_step(const StepRows&) { post_step(); }

void KgeModel::ann_query(bool, std::int64_t, std::int64_t, float*) const {
  throw Error(name() + " advertises no ann_support(); the serving layer must "
                       "not route its top-k queries through the ANN index");
}

autograd::Variable ScoringCoreModel::run_forward(
    const sparse::CompiledBatch& batch) {
  if (kernels::fused_enabled()) {
    if (autograd::Variable fused = fused_forward(batch); fused.defined()) {
      profiling::count_event(profiling::Counter::kFusedBatches);
      return fused;
    }
  }
  return forward(batch);
}

autograd::Variable ScoringCoreModel::distance(std::span<const Triplet> batch) {
  const auto plan = sparse::CompiledBatch::compile(
      batch, recipe(), num_entities_, num_relations_, /*copy_triplets=*/false);
  return run_forward(*plan);
}

autograd::Variable ScoringCoreModel::loss(const sparse::CompiledBatch& pos,
                                          const sparse::CompiledBatch& neg) {
  return ranking_loss(run_forward(pos), run_forward(neg), config_);
}

autograd::Variable ScoringCoreModel::loss(std::span<const Triplet> pos,
                                          std::span<const Triplet> neg) {
  return ranking_loss(distance(pos), distance(neg), config_);
}

}  // namespace sptx::models
