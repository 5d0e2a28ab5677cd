#include "traced_train.hpp"

#include <memory>

#include "report.hpp"
#include "src/kg/negative_sampler.hpp"
#include "src/nn/optim.hpp"
#include "src/runtime/task_pool.hpp"
#include "src/tensor/workspace.hpp"
#include "src/train/batch_plan.hpp"

namespace e2e {

using namespace sptx;

namespace {

/// Adds the wall time of its scope to `sink`.
class Span {
 public:
  explicit Span(double& sink) : sink_(sink), t0_(Clock::now()) {}
  ~Span() { sink_ += seconds_since(t0_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double& sink_;
  Clock::time_point t0_;
};

}  // namespace

TracedRun traced_train(models::KgeModel& model, const TripletStore& data,
                       const train::TrainConfig& config) {
  auto* scoring = dynamic_cast<models::ScoringCoreModel*>(&model);
  SPTX_CHECK(scoring != nullptr, "traced loop needs a ScoringCoreModel");
  SPTX_CHECK(!config.shuffle && !config.resample_negatives &&
                 config.negatives_per_positive == 1 &&
                 config.schedule == train::LrSchedule::kConstant &&
                 config.weight_decay == 0.0f && config.grad_clip_norm == 0.0f,
             "traced loop mirrors the fixed-order, constant-LR protocol "
             "only");

  TracedRun run;
  const auto t_start = Clock::now();
  // Same construction order as the trainer's loop state: the run's Rng
  // feeds the negative stream first, then the optimizer is built.
  Rng rng(config.seed);
  std::vector<Triplet> negatives;
  {
    Span span(run.negatives_s);
    const kg::NegativeSampler sampler(data, config.corruption,
                                      config.filtered_negatives);
    negatives = sampler.pregenerate_k(data.triplets(), 1, rng);
  }
  std::unique_ptr<nn::Optimizer> opt;
  if (config.use_adagrad) {
    opt = std::make_unique<nn::Adagrad>(model.params(), config.lr);
  } else {
    opt = std::make_unique<nn::Sgd>(model.params(), config.lr);
  }

  ScopedWorkspace workspace;
  sparse::PlanCache cache;
  train::EpochBatchSource source;
  source.data = kg::TripletSource(data);
  source.negatives = negatives;
  source.k = 1;
  source.batch_size = config.batch_size;
  const sparse::ScoringRecipe recipe = scoring->recipe();
  auto& pool = runtime::TaskPool::instance();

  std::vector<train::BatchPlan> plans;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    {
      // Epoch 0 compiles; later epochs resolve through the cache.
      Span span(run.plan_compile_s);
      plans = train::compile_epoch_plans(source, recipe, &cache);
    }
    const auto pool_before = pool.stats();
    double loss_sum = 0.0;
    std::int64_t batches = 0;
    for (const train::BatchPlan& bp : plans) {
      autograd::Variable loss;
      {
        Span span(run.step_s);
        opt->zero_grad();
      }
      {
        Span span(run.forward_s);
        loss = scoring->loss(*bp.pos, *bp.neg);
      }
      {
        Span span(run.backward_s);
        loss.backward();
      }
      {
        Span span(run.step_s);
        opt->step();
      }
      {
        Span span(run.post_step_s);
        model.post_step();
      }
      loss_sum += loss.value().at(0, 0);
      ++batches;
    }
    const auto pool_after = pool.stats();
    run.pool_tasks += pool_after.executed - pool_before.executed;
    run.pool_stolen += pool_after.stolen - pool_before.stolen;
    run.batches += batches;
    run.epoch_loss.push_back(
        batches > 0
            ? static_cast<float>(loss_sum / static_cast<double>(batches))
            : 0.0f);
  }
  run.total_s = seconds_since(t_start);
  return run;
}

}  // namespace e2e
