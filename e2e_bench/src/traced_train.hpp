// Traced training loop: the trainer's planned pipeline re-driven from the
// benchmark's own code so each layer's public call can be timed —
//
//   NegativeSampler::pregenerate_k → train::compile_epoch_plans →
//   ScoringCoreModel::loss → Variable::backward → Optimizer::step →
//   KgeModel::post_step
//
// It mirrors train::train for the configurations the benchmark uses (fixed
// order, one negative per positive, constant learning rate, plan cache on,
// no weight decay or clipping), so its per-epoch losses must be
// bit-identical to the untraced run with the same seed; the benchmark checks
// that before it reports any per-layer number. Nothing inside src/ is
// instrumented.
#pragma once

#include <cstdint>
#include <vector>

#include "src/models/model.hpp"
#include "src/train/trainer.hpp"

namespace e2e {

struct TracedRun {
  std::vector<float> epoch_loss;
  double total_s = 0.0;       // wall time of the whole loop
  double negatives_s = 0.0;   // kg: pregenerate the negative stream
  double plan_compile_s = 0.0;
  double forward_s = 0.0;     // models: ScoringCoreModel::loss
  double backward_s = 0.0;    // autograd: Variable::backward
  double step_s = 0.0;        // nn: Optimizer::zero_grad + step
  double post_step_s = 0.0;   // models: KgeModel::post_step
  std::int64_t batches = 0;
  std::int64_t pool_tasks = 0;   // runtime tasks executed during batches
  std::int64_t pool_stolen = 0;  // of those, stolen from another lane
};

/// Train `model` (a ScoringCoreModel) on `data` exactly as train::train
/// would with `config`, timing every layer call.
TracedRun traced_train(sptx::models::KgeModel& model,
                       const sptx::TripletStore& data,
                       const sptx::train::TrainConfig& config);

}  // namespace e2e
