#include "src/models/step_rows.hpp"

#include "src/common/error.hpp"
#include "src/sparse/incidence.hpp"

namespace sptx::models {

StepRows::StepRows(std::span<const autograd::Variable> params,
                   std::span<const ParamIndexSpace> spaces,
                   index_t num_entities, index_t num_relations,
                   std::span<const Triplet> pos,
                   std::span<const Triplet> neg) {
  SPTX_CHECK(params.size() == spaces.size(),
             params.size() << " parameters but " << spaces.size()
                           << " index spaces");
  ents = touched_entity_ids(pos, neg);
  rels = touched_relation_ids(pos, neg);
  blocks.resize(params.size());
  rows.resize(params.size(), nullptr);
  for (std::size_t i = 0; i < params.size(); ++i) {
    switch (spaces[i]) {
      case ParamIndexSpace::kDense:
        break;  // rows[i] stays nullptr
      case ParamIndexSpace::kEntity:
        rows[i] = &ents;
        break;
      case ParamIndexSpace::kRelation:
        rows[i] = &rels;
        break;
      case ParamIndexSpace::kRelationBlocks: {
        // Relation r owns rows [r·h, (r+1)·h), h = rows / R; sorted in,
        // sorted out.
        const index_t param_rows = params[i].value().rows();
        SPTX_CHECK(num_relations > 0 && param_rows % num_relations == 0,
                   "kRelationBlocks parameter rows ("
                       << param_rows << ") not divisible by relation count "
                       << num_relations);
        const index_t h = param_rows / num_relations;
        blocks[i].reserve(rels.size() * static_cast<std::size_t>(h));
        for (index_t r : rels)
          for (index_t k = 0; k < h; ++k) blocks[i].push_back(r * h + k);
        rows[i] = &blocks[i];
        break;
      }
      case ParamIndexSpace::kEntityRelationStacked:
        // Entity ids all precede N ≤ N + relation id, so the concatenation
        // of the two sorted lists is itself sorted.
        if (stacked.empty()) {
          stacked = ents;
          for (index_t r : rels) stacked.push_back(num_entities + r);
        }
        rows[i] = &stacked;
        break;
    }
  }
}

void check_support_cleared(std::span<autograd::Variable> params,
                           const std::string& model_name) {
  for (std::size_t i = 0; i < params.size(); ++i)
    SPTX_CHECK(!params[i].has_grad() || params[i].grad().max_abs() == 0.0f,
               model_name << " parameter " << i
                          << " has gradient outside its declared "
                             "ParamIndexSpace row support; override "
                             "param_index_spaces() (kDense is always safe)");
}

}  // namespace sptx::models
