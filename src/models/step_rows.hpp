// The row support of one training step: for each parameter, the rows a
// batch's backward can write.
//
// Every backward scatter lands inside a batch's incidence support, so an
// entity-indexed table can hold gradient only in the rows of the entities
// the batch names, a relation-indexed one only in its relations' rows. The
// trainer steps, clears and renormalizes just those rows; the distributed
// trainer also ships just those rows in its sparse all-reduce. Both derive
// the support here, from the parameters' ParamIndexSpace.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "src/autograd/variable.hpp"
#include "src/kg/triplet.hpp"
#include "src/models/model.hpp"

namespace sptx::models {

/// The per-parameter row support of a triplet set. rows[i] is nullptr for a
/// kDense parameter (every row). Not copyable: rows points into the
/// object's own lists.
struct StepRows {
  std::vector<index_t> ents;  // sorted touched entity ids
  std::vector<index_t> rels;  // sorted touched relation ids
  std::vector<index_t> stacked;                   // ents, then N + rels
  std::vector<std::vector<index_t>> blocks;       // per-param kRelationBlocks
  std::vector<const std::vector<index_t>*> rows;  // nullptr = dense param

  /// `params` and `spaces` are aligned by position (KgeModel::params() and
  /// param_index_spaces()); `num_entities` offsets the relation rows of a
  /// stacked [entities; relations] table.
  StepRows(std::span<const autograd::Variable> params,
           std::span<const ParamIndexSpace> spaces, index_t num_entities,
           index_t num_relations, std::span<const Triplet> pos,
           std::span<const Triplet> neg);
  StepRows(const StepRows&) = delete;
  StepRows& operator=(const StepRows&) = delete;
};

/// The declared-support check, run once per trainer or replica after the
/// first step cleared its support rows: every gradient buffer must then be
/// identically zero. A residue means the loss wrote rows outside the
/// declared ParamIndexSpace (say, a full-table regulariser on an
/// entity-shaped parameter); a support step would never apply or clear it.
void check_support_cleared(std::span<autograd::Variable> params,
                           const std::string& model_name);

}  // namespace sptx::models
