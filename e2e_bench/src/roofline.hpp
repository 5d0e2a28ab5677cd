// First-principles cost of the training layers (the MLSYSIM frame): bytes
// moved and floating-point operations per epoch, computed from the model's
// table shapes — not measured — plus a measured triad bandwidth to compare
// the achieved rates against.
#pragma once

#include <cstdint>

#include "src/models/model.hpp"

namespace e2e {

struct LayerCost {
  double bytes = 0.0;
  double flops = 0.0;
};

struct EpochCosts {
  LayerCost step;       // Optimizer::zero_grad + step over every table
  LayerCost post_step;  // entity-row L2 normalize
  LayerCost forward;    // positive + negative scoring
  LayerCost backward;   // gradients of the same
};

/// Computed per-epoch costs of a TransE model of width `dim` with
/// `triples` positives per epoch cut into `batches` batches (one negative
/// per positive). `model` supplies the parameter table shapes.
EpochCosts epoch_costs(sptx::models::KgeModel& model, std::int64_t triples,
                       std::int64_t batches, bool adagrad, std::int64_t dim);

/// Best-of-N triad (a = b + s·c) bandwidth in GB/s over three arrays of
/// `bytes_per_array` each, split across `threads` threads.
double triad_gbps(int threads, std::size_t bytes_per_array);

}  // namespace e2e
