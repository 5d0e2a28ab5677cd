// BatchPlan compilation pipeline tests.
//
// The plan/execute split must be invisible to the math: every compiled
// batch stages exactly the pairs the §5.3 loop pairs up, and its loss and
// gradients equal the span path's bit for bit for every model family; the
// prefetched schedule trains identically at every pool width. The profiling
// counters prove the structural claims — zero incidence rebuilds after the
// first epoch of an invariant schedule, full invalidation under shuffle /
// negative resampling, and candidate-plan reuse across repeated
// evaluations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "src/eval/link_prediction.hpp"
#include "src/kg/negative_sampler.hpp"
#include "src/kg/synthetic.hpp"
#include "src/models/model.hpp"
#include "src/nn/optim.hpp"
#include "src/profiling/counters.hpp"
#include "src/runtime/task_pool.hpp"
#include "src/sparse/incidence.hpp"
#include "src/sparse/plan_cache.hpp"
#include "src/tensor/matrix.hpp"
#include "src/train/batch_plan.hpp"
#include "src/train/trainer.hpp"

namespace sptx {
namespace {

// All six sparse families: transe, transh, transr, toruse, the semiring
// extensions, and the extra translational set.
const std::vector<std::string>& all_models() {
  static const std::vector<std::string> names = {
      "TransE", "TransH", "TransR",  "TorusE",  "TransD", "TransA",
      "TransC", "TransM", "DistMult", "ComplEx", "RotatE",
  };
  return names;
}

kg::Dataset small_dataset(std::uint64_t seed = 77) {
  Rng rng(seed);
  return kg::generate({"plan-toy", 60, 5, 500}, rng, 0.1, 0.0);
}

models::ModelConfig cfg16() {
  models::ModelConfig cfg;
  cfg.dim = 16;
  cfg.rel_dim = 8;
  return cfg;
}

train::TrainConfig base_config() {
  train::TrainConfig tc;
  tc.epochs = 4;
  tc.batch_size = 128;
  tc.lr = 0.05f;
  tc.seed = 11;
  return tc;
}

train::TrainResult run(const std::string& name, const kg::Dataset& ds,
                       const train::TrainConfig& tc) {
  Rng rng(5);
  auto model = models::make_sparse_model(name, ds.num_entities(),
                                         ds.num_relations(), cfg16(), rng);
  return train::train(*model, ds.train, tc);
}

void expect_identical_losses(const train::TrainResult& a,
                             const train::TrainResult& b,
                             const std::string& what) {
  ASSERT_EQ(a.epoch_loss.size(), b.epoch_loss.size()) << what;
  for (std::size_t i = 0; i < a.epoch_loss.size(); ++i) {
    EXPECT_EQ(a.epoch_loss[i], b.epoch_loss[i])
        << what << " diverged at epoch " << i;
  }
}

// ---- Compiled batches against the span path ------------------------------

/// Bitwise equality of two matrices (shape and every float's bits).
bool bits_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

/// Loss value and a copy of every parameter gradient for one batch loss.
struct LossAndGrads {
  float loss = 0.0f;
  std::vector<Matrix> grads;
};

template <typename LossFn>
LossAndGrads loss_and_grads(models::KgeModel& model, const LossFn& fn) {
  std::vector<autograd::Variable> params = model.params();
  for (auto& p : params) p.zero_grad();
  autograd::Variable loss = fn();
  loss.backward();
  LossAndGrads out;
  out.loss = loss.value().at(0, 0);
  for (auto& p : params) out.grads.push_back(p.grad());
  return out;
}

// Every compiled batch the trainer executes must stage exactly the pairs
// the §5.3 loop pairs up — positive data[positions[i]] against negative
// negatives[rep·m + positions[i]] — and its plan-path loss must equal the
// span path's bit for bit, in value and in every parameter gradient. Runs
// the hardest schedule (shuffle + resample + k = 2) for all 11 families,
// over two epochs with an SGD step between batches so later batches score
// moved weights.
TEST(BatchPlan, CompiledBatchesMatchSpanLossAndGradsAllFamilies) {
  const kg::Dataset ds = small_dataset();
  const index_t m = ds.train.size();
  const int k = 2;
  const index_t batch_size = 128;
  const kg::NegativeSampler sampler(ds.train, kg::CorruptionScheme::kUniform,
                                    /*filtered=*/false);
  for (const std::string& name : all_models()) {
    Rng model_rng(5);
    auto model = models::make_sparse_model(name, ds.num_entities(),
                                           ds.num_relations(), cfg16(),
                                           model_rng);
    auto* scoring = dynamic_cast<models::ScoringCoreModel*>(model.get());
    ASSERT_NE(scoring, nullptr) << name;
    nn::Sgd opt(model->params(), 0.05f);

    Rng rng(11);
    std::vector<index_t> positions(static_cast<std::size_t>(m));
    std::iota(positions.begin(), positions.end(), index_t{0});
    sparse::PlanCache cache;
    for (int epoch = 0; epoch < 2; ++epoch) {
      const std::vector<Triplet> negatives =
          sampler.pregenerate_k(ds.train.triplets(), k, rng);
      for (std::size_t i = positions.size(); i > 1; --i)
        std::swap(positions[i - 1], positions[rng.next_below(i)]);

      train::EpochBatchSource source;
      source.data = kg::TripletSource(ds.train);
      source.negatives = negatives;
      source.positions = positions;
      source.k = k;
      source.batch_size = batch_size;
      cache.invalidate();
      const auto plans =
          train::compile_epoch_plans(source, scoring->recipe(), &cache);
      ASSERT_EQ(static_cast<index_t>(plans.size()),
                (m + batch_size - 1) / batch_size)
          << name;

      for (std::size_t b = 0; b < plans.size(); ++b) {
        const std::string what = name + " epoch " + std::to_string(epoch) +
                                 " batch " + std::to_string(b);
        const train::BatchPlan& bp = plans[b];
        const index_t begin = static_cast<index_t>(b) * batch_size;
        const index_t count = std::min(batch_size, m - begin);
        std::vector<Triplet> want_pos, want_neg;
        for (int rep = 0; rep < k; ++rep) {
          for (index_t i = begin; i < begin + count; ++i) {
            const index_t p = positions[static_cast<std::size_t>(i)];
            want_pos.push_back(ds.train[p]);
            want_neg.push_back(
                negatives[static_cast<std::size_t>(rep * m + p)]);
          }
        }
        EXPECT_TRUE(std::ranges::equal(bp.pos->triplets(), want_pos)) << what;
        EXPECT_TRUE(std::ranges::equal(bp.neg->triplets(), want_neg)) << what;

        const LossAndGrads span = loss_and_grads(*model, [&] {
          return model->loss(bp.pos->triplets(), bp.neg->triplets());
        });
        const LossAndGrads planned = loss_and_grads(
            *model, [&] { return scoring->loss(*bp.pos, *bp.neg); });
        EXPECT_EQ(std::memcmp(&planned.loss, &span.loss, sizeof(float)), 0)
            << what << ": " << planned.loss << " vs " << span.loss;
        ASSERT_EQ(planned.grads.size(), span.grads.size()) << what;
        for (std::size_t g = 0; g < span.grads.size(); ++g)
          EXPECT_TRUE(bits_equal(planned.grads[g], span.grads[g]))
              << what << " param " << g;

        opt.step();  // the planned gradients are the live ones
        model->post_step();
      }
    }
  }
}

// The prefetch task runs inline in the wait on a 1-lane pool and on a
// worker at 4 lanes; the trajectory must not depend on which.
TEST(BatchPlan, PrefetchBitExactAcrossPoolWidths) {
  auto& pool = runtime::TaskPool::instance();
  const int width = pool.threads();
  const kg::Dataset ds = small_dataset();
  for (const std::string& name :
       {std::string("TransE"), std::string("TransR"), std::string("ComplEx")}) {
    train::TrainConfig tc = base_config();
    tc.shuffle = true;
    tc.resample_negatives = true;
    pool.resize(1);
    const auto one_lane = run(name, ds, tc);
    pool.resize(4);
    const auto four_lanes = run(name, ds, tc);
    expect_identical_losses(one_lane, four_lanes, name + " 1 vs 4 lanes");
    EXPECT_EQ(four_lanes.plan_stats.invalidations, tc.epochs - 1) << name;
  }
  pool.resize(width);
}

// ---- Cache behaviour: the structural claims ------------------------------

TEST(BatchPlan, InvariantScheduleRebuildsNothingAfterFirstEpoch) {
  const kg::Dataset ds = small_dataset();
  for (const std::string& name :
       {std::string("TransE"), std::string("TransH"), std::string("TransD")}) {
    train::TrainConfig one = base_config();
    one.epochs = 1;
    train::TrainConfig many = one;
    many.epochs = 5;
    const auto r1 = run(name, ds, one);
    const auto r5 = run(name, ds, many);
    EXPECT_GT(r1.incidence_builds, 0) << name;
    // Epochs >= 2 perform ZERO incidence rebuilds: five epochs build
    // exactly what one epoch builds.
    EXPECT_EQ(r5.incidence_builds, r1.incidence_builds) << name;
    // Every batch after epoch 0 is a cache hit (pos + neg per batch).
    const std::int64_t batches = r1.plan_stats.misses / 2;
    EXPECT_GT(batches, 1) << name;
    EXPECT_EQ(r5.plan_stats.misses, 2 * batches) << name;
    EXPECT_EQ(r5.plan_stats.hits, 2 * batches * 4) << name;
    EXPECT_EQ(r5.plan_stats.invalidations, 0) << name;
  }
}

TEST(BatchPlan, ShuffleInvalidatesEveryEpoch) {
  const kg::Dataset ds = small_dataset();
  train::TrainConfig tc = base_config();
  tc.epochs = 3;
  tc.shuffle = true;
  const auto r = run("TransE", ds, tc);
  EXPECT_EQ(r.plan_stats.hits, 0);
  EXPECT_EQ(r.plan_stats.invalidations, tc.epochs - 1);
  // Every epoch rebuilds its incidence: builds scale with epoch count.
  train::TrainConfig one = tc;
  one.epochs = 1;
  const auto r1 = run("TransE", ds, one);
  EXPECT_EQ(r.incidence_builds, 3 * r1.incidence_builds);
}

TEST(BatchPlan, ResampleInvalidatesEveryEpoch) {
  const kg::Dataset ds = small_dataset();
  train::TrainConfig tc = base_config();
  tc.epochs = 3;
  tc.resample_negatives = true;
  const auto r = run("TransE", ds, tc);
  EXPECT_EQ(r.plan_stats.hits, 0);
  EXPECT_EQ(r.plan_stats.invalidations, tc.epochs - 1);
}

// ---- CompiledBatch against the direct builders ---------------------------

TEST(BatchPlan, CompiledBatchMatchesDirectBuilders) {
  Rng rng(3);
  const index_t n = 40, r = 6;
  std::vector<Triplet> batch;
  for (int i = 0; i < 50; ++i) {
    batch.push_back({static_cast<std::int64_t>(rng.next_below(n)),
                     static_cast<std::int64_t>(rng.next_below(r)),
                     static_cast<std::int64_t>(rng.next_below(n))});
  }
  sparse::ScoringRecipe recipe;
  recipe.hrt = recipe.ht = recipe.relation_selection = true;
  recipe.head_selection = recipe.tail_selection = true;
  recipe.relation_indices = true;
  const auto plan =
      sparse::CompiledBatch::compile(batch, recipe, n, r, /*copy=*/true);

  EXPECT_EQ(max_abs_diff(to_dense(*plan->hrt()),
                         to_dense(build_hrt_incidence_csr(batch, n, r))),
            0.0f);
  EXPECT_EQ(max_abs_diff(to_dense(*plan->ht()),
                         to_dense(build_ht_incidence_csr(batch, n))),
            0.0f);
  EXPECT_EQ(max_abs_diff(to_dense(*plan->relation_selection()),
                         to_dense(build_relation_selection_csr(batch, r))),
            0.0f);
  EXPECT_EQ(max_abs_diff(
                to_dense(*plan->head_selection()),
                to_dense(build_entity_selection_csr(batch, n,
                                                    TripletSlot::kHead))),
            0.0f);
  EXPECT_EQ(max_abs_diff(
                to_dense(*plan->tail_selection()),
                to_dense(build_entity_selection_csr(batch, n,
                                                    TripletSlot::kTail))),
            0.0f);
  ASSERT_EQ(plan->relation_indices()->size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ((*plan->relation_indices())[i], batch[i].relation);
}

TEST(BatchPlan, ForwardOverPlanMatchesSpanDistance) {
  const kg::Dataset ds = small_dataset();
  for (const std::string& name : all_models()) {
    Rng rng(9);
    auto model = models::make_sparse_model(name, ds.num_entities(),
                                           ds.num_relations(), cfg16(), rng);
    auto* scoring = dynamic_cast<models::ScoringCoreModel*>(model.get());
    ASSERT_NE(scoring, nullptr) << name;
    const auto batch = ds.train.slice(0, 64);
    const auto plan = sparse::CompiledBatch::compile(
        batch, scoring->recipe(), ds.num_entities(), ds.num_relations(),
        /*copy=*/false);
    // run_forward on both sides: the span path and the plan path must agree
    // bit-exact under whichever dispatch (fused or autograd) SPTX_FUSED
    // selects — the property this test guards is plan-vs-span equivalence,
    // not the dispatch itself (test_fused_kernels covers that).
    const Matrix direct = scoring->distance(batch).value();
    const Matrix planned = scoring->run_forward(*plan).value();
    EXPECT_EQ(max_abs_diff(direct, planned), 0.0f) << name;
  }
}

// ---- Plan cache primitives ----------------------------------------------

TEST(BatchPlan, PlanCacheHitMissInvalidate) {
  Rng rng(4);
  std::vector<Triplet> batch;
  for (int i = 0; i < 10; ++i)
    batch.push_back({static_cast<std::int64_t>(rng.next_below(20)), 0,
                     static_cast<std::int64_t>(rng.next_below(20))});
  sparse::ScoringRecipe recipe;
  recipe.hrt = true;
  sparse::PlanCache cache;
  EXPECT_EQ(cache.find(1), nullptr);
  const auto p1 = cache.get_or_compile(1, batch, recipe, 20, 1, true);
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(cache.get_or_compile(1, batch, recipe, 20, 1, true).get(),
            p1.get());
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2);  // the probe find() + the first get_or_compile
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.entries, 1);
  cache.invalidate();
  stats = cache.stats();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.invalidations, 1);
  EXPECT_EQ(cache.find(1), nullptr);
  // p1 outlives eviction — plans are shared, not owned by the cache.
  EXPECT_EQ(p1->triplets().size(), batch.size());
}

// ---- Eval plumbing -------------------------------------------------------

TEST(BatchPlan, EvalReusesCandidatePlansAcrossEvaluations) {
  Rng rng(21);
  kg::Dataset ds = kg::generate({"eval-toy", 30, 4, 200}, rng, 0.0, 0.2);
  Rng mr(2);
  auto model = models::make_sparse_model("TransE", ds.num_entities(),
                                         ds.num_relations(), cfg16(), mr);

  eval::EvalConfig plain;
  const auto reference = eval::evaluate(*model, ds, plain);

  sparse::PlanCache cache;
  eval::EvalConfig cached = plain;
  cached.plan_cache = &cache;
  const auto first = eval::evaluate(*model, ds, cached);
  const auto miss_count = cache.stats().misses;
  const auto second = eval::evaluate(*model, ds, cached);

  // Metrics identical with and without the cache, across repeated passes.
  EXPECT_EQ(first.mrr, reference.mrr);
  EXPECT_EQ(second.mrr, reference.mrr);
  EXPECT_EQ(first.hits_at_10, reference.hits_at_10);
  EXPECT_EQ(second.queries, reference.queries);

  // Two sides per query; the second pass is served entirely from plans.
  const std::int64_t sides = 2 * ds.test.size();
  EXPECT_EQ(miss_count, sides);
  EXPECT_EQ(cache.stats().hits, sides);
  EXPECT_EQ(cache.stats().entries, sides);
}

}  // namespace
}  // namespace sptx
