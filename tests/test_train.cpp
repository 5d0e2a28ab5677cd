// Tests for the training loop (§5.3 protocol).
#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>

#include "src/autograd/ops.hpp"
#include "src/kg/synthetic.hpp"
#include "src/models/checkpoint.hpp"
#include "src/models/model.hpp"
#include "src/nn/embedding.hpp"
#include "src/nn/optim.hpp"
#include "src/train/batch_plan.hpp"
#include "src/train/trainer.hpp"

namespace sptx {
namespace {

kg::Dataset small_dataset(std::uint64_t seed = 31) {
  Rng rng(seed);
  return kg::generate({"train-toy", 80, 6, 600}, rng, 0.0, 0.0);
}

models::ModelConfig cfg16() {
  models::ModelConfig cfg;
  cfg.dim = 16;
  cfg.rel_dim = 8;
  return cfg;
}

TEST(Trainer, RecordsLossPerEpoch) {
  const kg::Dataset ds = small_dataset();
  Rng rng(1);
  auto model = models::make_sparse_model("TransE", 80, 6, cfg16(), rng);
  train::TrainConfig tc;
  tc.epochs = 5;
  tc.batch_size = 128;
  tc.lr = 0.05f;
  const train::TrainResult result = train::train(*model, ds.train, tc);
  EXPECT_EQ(result.epoch_loss.size(), 5u);
  for (float l : result.epoch_loss) EXPECT_TRUE(std::isfinite(l));
}

TEST(Trainer, LossDecreasesOverEpochs) {
  const kg::Dataset ds = small_dataset();
  Rng rng(2);
  auto model = models::make_sparse_model("TransE", 80, 6, cfg16(), rng);
  train::TrainConfig tc;
  tc.epochs = 15;
  tc.batch_size = 128;
  tc.lr = 0.05f;
  const train::TrainResult result = train::train(*model, ds.train, tc);
  EXPECT_LT(result.epoch_loss.back(), result.epoch_loss.front());
}

TEST(Trainer, PhaseTimesAreAllPopulated) {
  const kg::Dataset ds = small_dataset();
  Rng rng(3);
  auto model = models::make_sparse_model("TransE", 80, 6, cfg16(), rng);
  train::TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 128;
  const train::TrainResult result = train::train(*model, ds.train, tc);
  EXPECT_GT(result.phases.forward_s, 0.0);
  EXPECT_GT(result.phases.backward_s, 0.0);
  EXPECT_GT(result.phases.step_s, 0.0);
  EXPECT_GT(result.phases.post_step_s, 0.0);
  EXPECT_GE(result.total_seconds, result.phases.total() * 0.5);
  EXPECT_GT(result.flops, 0);
  EXPECT_GT(result.peak_bytes, 0);
}

TEST(Trainer, EpochCallbackFires) {
  const kg::Dataset ds = small_dataset();
  Rng rng(4);
  auto model = models::make_sparse_model("TransE", 80, 6, cfg16(), rng);
  train::TrainConfig tc;
  tc.epochs = 4;
  tc.batch_size = 256;
  int calls = 0;
  train::train(*model, ds.train, tc, [&](int epoch, float loss) {
    EXPECT_EQ(epoch, calls);
    EXPECT_TRUE(std::isfinite(loss));
    ++calls;
  });
  EXPECT_EQ(calls, 4);
}

TEST(Trainer, DeterministicGivenSeed) {
  const kg::Dataset ds = small_dataset();
  train::TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 128;
  tc.seed = 99;
  Rng rng1(5), rng2(5);
  auto m1 = models::make_sparse_model("TransE", 80, 6, cfg16(), rng1);
  auto m2 = models::make_sparse_model("TransE", 80, 6, cfg16(), rng2);
  const auto r1 = train::train(*m1, ds.train, tc);
  const auto r2 = train::train(*m2, ds.train, tc);
  ASSERT_EQ(r1.epoch_loss.size(), r2.epoch_loss.size());
  for (std::size_t i = 0; i < r1.epoch_loss.size(); ++i)
    EXPECT_FLOAT_EQ(r1.epoch_loss[i], r2.epoch_loss[i]);
}

TEST(Trainer, BatchSizeLargerThanDatasetIsOneBatch) {
  const kg::Dataset ds = small_dataset();
  Rng rng(6);
  auto model = models::make_sparse_model("TransE", 80, 6, cfg16(), rng);
  train::TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 1 << 20;
  const auto result = train::train(*model, ds.train, tc);
  EXPECT_EQ(result.epoch_loss.size(), 2u);
}

TEST(Trainer, AdagradPathWorks) {
  const kg::Dataset ds = small_dataset();
  Rng rng(7);
  auto model = models::make_sparse_model("TransE", 80, 6, cfg16(), rng);
  train::TrainConfig tc;
  tc.epochs = 8;
  tc.batch_size = 128;
  tc.use_adagrad = true;
  tc.lr = 0.1f;
  const auto result = train::train(*model, ds.train, tc);
  EXPECT_LT(result.epoch_loss.back(), result.epoch_loss.front());
}

TEST(Trainer, StepScheduleReducesLr) {
  // With an aggressive decay the later epochs barely move: compare loss
  // drop in the first vs second half.
  const kg::Dataset ds = small_dataset();
  Rng rng(8);
  auto model = models::make_sparse_model("TransE", 80, 6, cfg16(), rng);
  train::TrainConfig tc;
  tc.epochs = 10;
  tc.batch_size = 128;
  tc.schedule = train::LrSchedule::kStep;
  tc.step_lr_every = 2;
  tc.step_lr_gamma = 0.1f;
  tc.lr = 0.05f;
  const auto result = train::train(*model, ds.train, tc);
  const float early_drop = result.epoch_loss[0] - result.epoch_loss[4];
  const float late_drop = result.epoch_loss[5] - result.epoch_loss[9];
  EXPECT_GT(early_drop, late_drop);
}

TEST(Trainer, CosineScheduleRuns) {
  const kg::Dataset ds = small_dataset();
  Rng rng(9);
  auto model = models::make_sparse_model("TorusE", 80, 6, cfg16(), rng);
  train::TrainConfig tc;
  tc.epochs = 5;
  tc.batch_size = 256;
  tc.schedule = train::LrSchedule::kCosine;
  const auto result = train::train(*model, ds.train, tc);
  EXPECT_EQ(result.epoch_loss.size(), 5u);
}

TEST(Trainer, EmptyDatasetThrows) {
  TripletStore empty(5, 2, {});
  Rng rng(10);
  auto model = models::make_sparse_model("TransE", 5, 2, cfg16(), rng);
  train::TrainConfig tc;
  EXPECT_THROW(train::train(*model, empty, tc), Error);
}

TEST(Trainer, FilteredNegativesConfigWorks) {
  const kg::Dataset ds = small_dataset();
  Rng rng(11);
  auto model = models::make_sparse_model("TransE", 80, 6, cfg16(), rng);
  train::TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 128;
  tc.filtered_negatives = true;
  tc.corruption = kg::CorruptionScheme::kBernoulli;
  const auto result = train::train(*model, ds.train, tc);
  EXPECT_EQ(result.epoch_loss.size(), 2u);
}

// ---- Touched-row step ≡ whole-table step ---------------------------------
//
// train::train steps, clears and renormalizes only the rows each batch
// touched. The reference is the whole-table loop an external caller runs
// (the e2e bench's traced loop is exactly this): zero_grad(); loss;
// backward(); step(); post_step(). After the same epochs both must agree
// bit for bit — parameters, optimizer slots and per-epoch losses — for
// every sparse family, optimizer setting and batch schedule.

enum class StepOpt { kSgd, kAdagrad, kSgdClip };

using TouchedCase = std::tuple<std::string, StepOpt, bool /*variant*/>;

/// Many more entities than one batch names, so most rows sit outside each
/// batch's support; d = 12 leaves a scalar tail after the 8-wide loop.
const kg::Dataset& touched_dataset() {
  static const kg::Dataset ds = [] {
    Rng rng(41);
    return kg::generate({"touched-toy", 1500, 24, 700}, rng, 0.0, 0.0);
  }();
  return ds;
}

std::unique_ptr<models::KgeModel> touched_model(const std::string& family) {
  models::ModelConfig cfg;
  cfg.dim = 12;
  cfg.rel_dim = 6;
  Rng rng(12);
  const kg::Dataset& ds = touched_dataset();
  return models::make_sparse_model(family, ds.num_entities(),
                                   ds.num_relations(), cfg, rng);
}

train::TrainConfig touched_config(StepOpt opt, bool variant) {
  train::TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 64;
  tc.seed = 5;
  tc.lr = 0.05f;
  tc.use_adagrad = opt == StepOpt::kAdagrad;
  if (opt == StepOpt::kSgdClip) tc.grad_clip_norm = 0.02f;
  if (variant) {
    tc.shuffle = true;
    tc.resample_negatives = true;
    tc.negatives_per_positive = 2;
  }
  return tc;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

/// The trainer's Fisher–Yates over its run RNG.
void shuffle_like_trainer(std::vector<index_t>& positions, Rng& rng) {
  for (std::size_t i = positions.size(); i > 1; --i)
    std::swap(positions[i - 1], positions[rng.next_below(i)]);
}

struct WholeTableRun {
  std::vector<float> epoch_loss;
  std::vector<Matrix> params_after_2;  // parameters after epoch 2
  std::vector<Matrix> slots_after_2;   // optimizer state after epoch 2
};

/// The whole-table reference loop, drawing the run RNG in the trainer's
/// order: negatives, epoch 0's shuffle, then each epoch's successor inputs
/// before the epoch runs.
WholeTableRun whole_table_loop(models::KgeModel& model,
                               const TripletStore& data,
                               const train::TrainConfig& tc) {
  auto& scoring = dynamic_cast<models::ScoringCoreModel&>(model);
  const int k = tc.negatives_per_positive;
  Rng rng(tc.seed);
  const kg::NegativeSampler sampler(data, tc.corruption,
                                    tc.filtered_negatives);
  std::vector<Triplet> negatives =
      sampler.pregenerate_k(data.triplets(), k, rng);
  std::unique_ptr<nn::Optimizer> opt;
  if (tc.use_adagrad) {
    opt = std::make_unique<nn::Adagrad>(model.params(), tc.lr);
  } else {
    opt = std::make_unique<nn::Sgd>(model.params(), tc.lr);
  }
  opt->set_grad_clip_norm(tc.grad_clip_norm);

  std::vector<index_t> positions;
  if (tc.shuffle) {
    positions.resize(static_cast<std::size_t>(data.size()));
    std::iota(positions.begin(), positions.end(), index_t{0});
    shuffle_like_trainer(positions, rng);
  }
  WholeTableRun run;
  for (int epoch = 0; epoch < tc.epochs; ++epoch) {
    std::vector<Triplet> next_negatives = negatives;
    std::vector<index_t> next_positions = positions;
    if (epoch + 1 < tc.epochs) {
      if (tc.resample_negatives)
        next_negatives = sampler.pregenerate_k(data.triplets(), k, rng);
      if (tc.shuffle) shuffle_like_trainer(next_positions, rng);
    }
    train::EpochBatchSource source;
    source.data = kg::TripletSource(data);
    source.negatives = negatives;
    source.positions = positions;
    source.k = k;
    source.batch_size = tc.batch_size;
    double loss_sum = 0.0;
    index_t batches = 0;
    for (const train::BatchPlan& bp :
         train::compile_epoch_plans(source, scoring.recipe(), nullptr)) {
      opt->zero_grad();
      autograd::Variable loss = scoring.loss(*bp.pos, *bp.neg);
      loss.backward();
      opt->step();
      model.post_step();
      loss_sum += loss.value().at(0, 0);
      ++batches;
    }
    run.epoch_loss.push_back(static_cast<float>(loss_sum / batches));
    negatives = std::move(next_negatives);
    positions = std::move(next_positions);
    if (epoch == 1) {
      for (auto& p : model.params()) run.params_after_2.push_back(p.value());
      run.slots_after_2 = opt->export_state();
    }
  }
  return run;
}

class TouchedStepTest : public ::testing::TestWithParam<TouchedCase> {};

TEST_P(TouchedStepTest, MatchesWholeTableLoopBitForBit) {
  const auto& [family, opt, variant] = GetParam();
  const kg::Dataset& ds = touched_dataset();
  train::TrainConfig tc = touched_config(opt, variant);

  auto reference = touched_model(family);
  const WholeTableRun want = whole_table_loop(*reference, ds.train, tc);

  // The trainer checkpoints after epoch 2, which records its parameters
  // and optimizer slots at that cut.
  tc.checkpoint_every = 2;
  tc.checkpoint_path = ::testing::TempDir() + "touched_" + family + ".ckpt";
  auto trained = touched_model(family);
  const train::TrainResult got = train::train(*trained, ds.train, tc);

  ASSERT_EQ(got.epoch_loss.size(), want.epoch_loss.size());
  EXPECT_EQ(std::memcmp(got.epoch_loss.data(), want.epoch_loss.data(),
                        got.epoch_loss.size() * sizeof(float)),
            0)
      << "epoch losses differ";
  const auto got_params = trained->params();
  const auto want_params = reference->params();
  for (std::size_t i = 0; i < got_params.size(); ++i)
    EXPECT_TRUE(same_bits(got_params[i].value(), want_params[i].value()))
        << "final parameter " << i;

  auto at_cut = touched_model(family);
  const models::TrainCheckpointState st = models::load_train_checkpoint(
      *at_cut, models::checkpoint_path_for_epoch(tc.checkpoint_path, 2));
  const auto cut_params = at_cut->params();
  ASSERT_EQ(cut_params.size(), want.params_after_2.size());
  for (std::size_t i = 0; i < cut_params.size(); ++i)
    EXPECT_TRUE(same_bits(cut_params[i].value(), want.params_after_2[i]))
        << "parameter " << i << " after epoch 2";
  ASSERT_EQ(st.optimizer_state.size(), want.slots_after_2.size());
  for (std::size_t i = 0; i < st.optimizer_state.size(); ++i)
    EXPECT_TRUE(same_bits(st.optimizer_state[i], want.slots_after_2[i]))
        << "optimizer slot " << i << " after epoch 2";
}

std::string touched_case_name(
    const ::testing::TestParamInfo<TouchedCase>& info) {
  const auto& [family, opt, variant] = info.param;
  const char* opt_name = opt == StepOpt::kSgd       ? "Sgd"
                         : opt == StepOpt::kAdagrad ? "Adagrad"
                                                    : "SgdClip";
  return family + "_" + opt_name + (variant ? "_ShuffleResampleK2" : "_Fixed");
}

INSTANTIATE_TEST_SUITE_P(
    AllSparseFamilies, TouchedStepTest,
    ::testing::Combine(
        ::testing::Values("TransE", "TransR", "TransH", "TorusE", "TransD",
                          "TransA", "TransC", "TransM", "DistMult", "ComplEx",
                          "RotatE"),
        ::testing::Values(StepOpt::kSgd, StepOpt::kAdagrad, StepOpt::kSgdClip),
        ::testing::Bool()),
    touched_case_name);

/// A model whose loss writes every row of its entity table — a full-table
/// regulariser — while its shape declares the table entity-indexed.
class FullTableRegularized final : public models::KgeModel {
 public:
  FullTableRegularized(index_t n, index_t r, Rng& rng)
      : KgeModel(n, r, models::ModelConfig{}), table_(n, 4, rng) {}
  std::string name() const override { return "FullTableRegularized"; }
  autograd::Variable loss(std::span<const Triplet>,
                          std::span<const Triplet>) override {
    return autograd::sum_all(table_.var());
  }
  std::vector<float> score(std::span<const Triplet> batch) const override {
    return std::vector<float>(batch.size(), 0.0f);
  }
  std::vector<autograd::Variable> params() override { return {table_.var()}; }

 private:
  nn::EmbeddingTable table_;
};

TEST(Trainer, UnderDeclaredSupportFailsLoudly) {
  const kg::Dataset ds = small_dataset();
  Rng rng(13);
  FullTableRegularized model(80, 6, rng);
  ASSERT_EQ(model.param_index_spaces()[0], models::ParamIndexSpace::kEntity);
  train::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 16;
  EXPECT_THROW(train::train(model, ds.train, tc), Error);
}

}  // namespace
}  // namespace sptx
