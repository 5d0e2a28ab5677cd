// Fused-kernel acceptance suite (src/kernels, SPTX_FUSED).
//
//  * fused-vs-autograd loss AND per-parameter gradient equivalence for all
//    11 model families (FP tolerance — SIMD reorders additions);
//  * finite-difference gradcheck of the fused path's analytic gradients;
//    both run at dims that straddle the 8-lane vector width (d < 8, one
//    vector plus a tail, several vectors plus a tail), with a non-square
//    TransR projection;
//  * SPTX_FUSED=off bit-identity with a hand-composed legacy graph;
//  * the kFusedBatches counter proves which path actually ran;
//  * steady-state training through the fused path performs zero tracked
//    heap allocations (the Workspace-pool property of the legacy path).
//
// CMake registers this suite twice — once as-is and once with
// SPTX_NO_SIMD=1 — so both lane widths of the kernels (W=8 AVX2 and W=1)
// are covered on every machine.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/autograd/ops.hpp"
#include "src/kernels/fused.hpp"
#include "src/kg/dataset.hpp"
#include "src/kg/negative_sampler.hpp"
#include "src/kg/synthetic.hpp"
#include "src/models/model.hpp"
#include "src/profiling/counters.hpp"
#include "src/tensor/memory_tracker.hpp"
#include "src/train/trainer.hpp"

namespace sptx {
namespace {

constexpr const char* kAllModels[] = {"TransE",   "TransR", "TransH",
                                      "TorusE",   "TransD", "TransA",
                                      "TransC",   "TransM", "DistMult",
                                      "ComplEx",  "RotatE"};
constexpr const char* kFusedModels[] = {"TransE", "TransR", "TransH",
                                        "TorusE", "TransD", "TransA",
                                        "TransC", "TransM"};

models::ModelConfig small_config(models::Dissimilarity diss) {
  models::ModelConfig cfg;
  cfg.dim = 12;  // even: ComplEx/RotatE interleave (re, im)
  cfg.rel_dim = 6;
  cfg.margin = 5.0f;  // hinge active for every pair: smooth for comparisons
  cfg.dissimilarity = diss;
  return cfg;
}

// (dim, rel_dim) shapes around the 8-lane width: below it, one vector plus a
// tail, and several vectors plus a tail. Only TransR reads rel_dim; its
// d_r × d projection is non-square wherever it can be, in both directions
// (d_r < d and d_r > d), so a d/d_r index mix-up in its row kernels shows.
// (12, 6) is small_config's shape.
constexpr std::pair<index_t, index_t> kShapes[] = {
    {1, 1}, {7, 9}, {9, 7}, {12, 6}, {17, 9}, {67, 33}};

// small_config at one of kShapes. ComplEx/RotatE interleave (re, im), so
// odd dims round up for them.
models::ModelConfig shape_config(const std::string& name,
                                 models::Dissimilarity diss,
                                 std::pair<index_t, index_t> shape) {
  models::ModelConfig cfg = small_config(diss);
  const index_t dim = shape.first;
  cfg.dim = (name == "ComplEx" || name == "RotatE") ? dim + dim % 2 : dim;
  cfg.rel_dim = shape.second;
  return cfg;
}

struct Batches {
  std::vector<Triplet> pos;
  std::vector<Triplet> neg;
};

Batches make_batches(index_t n, index_t r, std::uint64_t seed,
                     std::size_t count) {
  Rng rng(seed);
  kg::Dataset ds = kg::generate({"fused", n, r, 400}, rng, 0.0, 0.0);
  kg::NegativeSampler sampler(ds.train, kg::CorruptionScheme::kUniform);
  Batches b;
  b.pos.assign(ds.train.triplets().begin(),
               ds.train.triplets().begin() +
                   static_cast<std::ptrdiff_t>(count));
  std::vector<Triplet> all(ds.train.triplets().begin(),
                           ds.train.triplets().end());
  const auto neg = sampler.pregenerate(all, rng);
  b.neg.assign(neg.begin(), neg.begin() + static_cast<std::ptrdiff_t>(count));
  return b;
}

std::unique_ptr<models::KgeModel> fresh(const std::string& name, index_t n,
                                        index_t r,
                                        const models::ModelConfig& cfg,
                                        std::uint64_t seed) {
  Rng rng(seed);
  return models::make_sparse_model(name, n, r, cfg, rng);
}

// ---- fused vs autograd: loss and gradients --------------------------------

using FamilyShape = std::tuple<const char*, std::pair<index_t, index_t>>;

std::string family_shape_name(
    const ::testing::TestParamInfo<FamilyShape>& info) {
  const auto [dim, rel_dim] = std::get<1>(info.param);
  return std::string(std::get<0>(info.param)) + "_d" + std::to_string(dim) +
         "_r" + std::to_string(rel_dim);
}

class FusedEquivalenceTest : public ::testing::TestWithParam<FamilyShape> {};

void expect_equivalent(const std::string& name, models::Dissimilarity diss,
                       std::pair<index_t, index_t> shape) {
  constexpr index_t kN = 40, kR = 5;
  const models::ModelConfig cfg = shape_config(name, diss, shape);
  const Batches b = make_batches(kN, kR, 11, 64);

  auto run = [&](const char* mode) {
    config::ScopedOverride fused("SPTX_FUSED", mode);
    auto model = fresh(name, kN, kR, cfg, 7);
    autograd::Variable loss = model->loss(b.pos, b.neg);
    loss.backward();
    std::vector<Matrix> grads;
    for (auto& p : model->params()) grads.push_back(p.grad());
    return std::make_pair(loss.value().at(0, 0), std::move(grads));
  };

  const auto [loss_off, grads_off] = run("off");
  const auto [loss_on, grads_on] = run("on");

  EXPECT_NEAR(loss_on, loss_off, 1e-4f * (1.0f + std::fabs(loss_off)))
      << name;
  ASSERT_EQ(grads_on.size(), grads_off.size()) << name;
  for (std::size_t k = 0; k < grads_on.size(); ++k) {
    ASSERT_TRUE(grads_on[k].same_shape(grads_off[k])) << name;
    for (index_t i = 0; i < grads_on[k].size(); ++i) {
      const float a = grads_on[k].data()[i];
      const float e = grads_off[k].data()[i];
      EXPECT_NEAR(a, e, 2e-4f * (1.0f + std::fabs(e)))
          << name << " d=" << cfg.dim << " d_r=" << cfg.rel_dim << " param "
          << k << " flat index " << i;
    }
  }
}

TEST_P(FusedEquivalenceTest, LossAndGradientsMatchAutogradL2) {
  const auto [name, shape] = GetParam();
  expect_equivalent(name, models::Dissimilarity::kL2, shape);
}

TEST_P(FusedEquivalenceTest, LossAndGradientsMatchAutogradL1) {
  const auto [name, shape] = GetParam();
  expect_equivalent(name, models::Dissimilarity::kL1, shape);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FusedEquivalenceTest,
                         ::testing::Combine(::testing::ValuesIn(kAllModels),
                                            ::testing::ValuesIn(kShapes)),
                         family_shape_name);

// ---- gradcheck of the fused analytic gradients ----------------------------

class FusedGradcheckTest : public ::testing::TestWithParam<FamilyShape> {};

TEST_P(FusedGradcheckTest, AnalyticMatchesFiniteDifferences) {
  // Checks d(Σ scores)/d(param) for every parameter entry against central
  // finite differences, through the fused path. The score sum avoids the
  // margin hinge so FD stays smooth; RotatE's relation block is excluded
  // (its analytic rule is the standard projected-gradient approximation,
  // deliberately not the FD gradient). TorusE's score has a kink at its
  // wraparound (frac = ½); an entry whose ±eps step crosses it has no
  // central difference to compare against. Its one-sided slopes disagree,
  // so for TorusE alone such an entry is skipped, and at most 2% may be.
  const std::string name = std::get<0>(GetParam());
  constexpr index_t kN = 10, kR = 3;
  const models::ModelConfig cfg =
      shape_config(name, models::Dissimilarity::kL2, std::get<1>(GetParam()));
  const Batches b = make_batches(kN, kR, 13, 12);
  config::ScopedOverride fused("SPTX_FUSED", "on");

  auto model = fresh(name, kN, kR, cfg, 21);
  auto* scoring = dynamic_cast<models::ScoringCoreModel*>(model.get());
  ASSERT_NE(scoring, nullptr);

  autograd::Variable loss = autograd::sum_all(scoring->distance(b.pos));
  loss.backward();

  // Numeric side re-runs the same ranking-ready forward (similarity models
  // negate inside distance(), score() keeps the natural sign).
  const auto column_sum = [&]() {
    const Matrix col = scoring->distance(b.pos).value();
    double acc = 0.0;  // double: keeps FD from drowning in cancellation
    for (index_t row = 0; row < col.rows(); ++row) acc += col.at(row, 0);
    return acc;
  };
  const double base = column_sum();

  auto params = model->params();
  const float eps = 1e-3f;
  const float tol = 2e-2f;
  const bool may_kink = name == "TorusE";
  index_t checked = 0, kinks = 0;
  for (std::size_t k = 0; k < params.size(); ++k) {
    const Matrix analytic = params[k].grad();
    Matrix& values = params[k].mutable_value();
    const bool skip_relation_rows = name == "RotatE" && k == 0;
    for (index_t i = 0; i < values.size(); ++i) {
      if (skip_relation_rows && i / values.cols() >= kN) continue;
      const float saved = values.data()[i];
      values.data()[i] = saved + eps;
      const double lp = column_sum();
      values.data()[i] = saved - eps;
      const double lm = column_sum();
      values.data()[i] = saved;
      const float numeric =
          static_cast<float>((lp - lm) / (2.0 * static_cast<double>(eps)));
      const double right = (lp - base) / eps, left = (base - lm) / eps;
      ++checked;
      if (may_kink &&
          std::fabs(right - left) > tol * (1.0f + std::fabs(numeric))) {
        ++kinks;
        continue;
      }
      EXPECT_NEAR(analytic.data()[i], numeric,
                  tol * (1.0f + std::fabs(numeric)))
          << name << " d=" << cfg.dim << " d_r=" << cfg.rel_dim << " param "
          << k << " flat index " << i;
    }
  }
  EXPECT_LE(kinks * 50, checked) << name << " d=" << cfg.dim;
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FusedGradcheckTest,
                         ::testing::Combine(::testing::ValuesIn(kAllModels),
                                            ::testing::ValuesIn(kShapes)),
                         family_shape_name);

// ---- SPTX_FUSED=off is bit-identical to the hand-built legacy graph ------

TEST(FusedKernels, OffModeIsBitIdenticalToLegacyGraph) {
  constexpr index_t kN = 30, kR = 4;
  const models::ModelConfig cfg = small_config(models::Dissimilarity::kL2);
  const Batches b = make_batches(kN, kR, 17, 32);
  config::ScopedOverride fused("SPTX_FUSED", "off");

  for (const char* name : kFusedModels) {
    auto via_api = fresh(name, kN, kR, cfg, 9);
    autograd::Variable l1 = via_api->loss(b.pos, b.neg);
    l1.backward();

    auto by_hand = fresh(name, kN, kR, cfg, 9);
    auto* scoring = dynamic_cast<models::ScoringCoreModel*>(by_hand.get());
    ASSERT_NE(scoring, nullptr) << name;
    const auto pp = sparse::CompiledBatch::compile(
        b.pos, scoring->recipe(), kN, kR, /*copy_triplets=*/false);
    const auto np = sparse::CompiledBatch::compile(
        b.neg, scoring->recipe(), kN, kR, /*copy_triplets=*/false);
    autograd::Variable l2 =
        models::ranking_loss(scoring->forward(*pp), scoring->forward(*np),
                             cfg);
    l2.backward();

    EXPECT_EQ(l1.value().at(0, 0), l2.value().at(0, 0)) << name;
    auto p1 = via_api->params();
    auto p2 = by_hand->params();
    ASSERT_EQ(p1.size(), p2.size()) << name;
    for (std::size_t k = 0; k < p1.size(); ++k) {
      for (index_t i = 0; i < p1[k].grad().size(); ++i) {
        EXPECT_EQ(p1[k].grad().data()[i], p2[k].grad().data()[i])
            << name << " param " << k << " flat index " << i;
      }
    }
  }
}

// ---- the knob really routes the path --------------------------------------

TEST(FusedKernels, CounterProvesDispatch) {
  constexpr index_t kN = 30, kR = 4;
  const models::ModelConfig cfg = small_config(models::Dissimilarity::kL2);
  const Batches b = make_batches(kN, kR, 19, 16);
  {
    config::ScopedOverride fused("SPTX_FUSED", "auto");
    auto model = fresh("TransE", kN, kR, cfg, 3);
    profiling::CounterWindow window(profiling::Counter::kFusedBatches);
    model->loss(b.pos, b.neg).backward();
    EXPECT_EQ(window.elapsed(), 2);  // one fused node per score column
  }
  {
    config::ScopedOverride fused("SPTX_FUSED", "off");
    auto model = fresh("TransE", kN, kR, cfg, 3);
    profiling::CounterWindow window(profiling::Counter::kFusedBatches);
    model->loss(b.pos, b.neg).backward();
    EXPECT_EQ(window.elapsed(), 0);
  }
  {
    // Families without fused kernels fall back silently under auto.
    config::ScopedOverride fused("SPTX_FUSED", "auto");
    auto model = fresh("DistMult", kN, kR, cfg, 3);
    profiling::CounterWindow window(profiling::Counter::kFusedBatches);
    model->loss(b.pos, b.neg).backward();
    EXPECT_EQ(window.elapsed(), 0);
  }
}

// ---- score() dispatch --------------------------------------------------

TEST(FusedKernels, ScorePathMatchesLegacyScore) {
  constexpr index_t kN = 40, kR = 5;
  const Batches b = make_batches(kN, kR, 23, 48);
  for (const char* name : kFusedModels) {
    for (const auto diss :
         {models::Dissimilarity::kL2, models::Dissimilarity::kL1}) {
      const models::ModelConfig cfg = small_config(diss);
      auto model = fresh(name, kN, kR, cfg, 5);
      std::vector<float> legacy, fused;
      {
        config::ScopedOverride off("SPTX_FUSED", "off");
        legacy = model->score(b.pos);
      }
      {
        config::ScopedOverride on("SPTX_FUSED", "on");
        fused = model->score(b.pos);
      }
      ASSERT_EQ(legacy.size(), fused.size()) << name;
      for (std::size_t i = 0; i < legacy.size(); ++i) {
        EXPECT_NEAR(fused[i], legacy[i],
                    1e-4f * (1.0f + std::fabs(legacy[i])))
            << name << " row " << i;
      }
    }
  }
}

// ---- zero-allocation steady state -----------------------------------------

TEST(FusedKernels, SteadyStateTrainingPerformsZeroAllocations) {
  config::ScopedOverride fused("SPTX_FUSED", "on");
  Rng rng(5);
  kg::Dataset ds = kg::generate({"fws", 120, 6, 1200}, rng, 0.0, 0.0);
  for (const char* name : {"TransE", "TransR", "TorusE", "TransH"}) {
    models::ModelConfig cfg;
    cfg.dim = 16;
    cfg.rel_dim = 8;
    Rng mr(6);
    auto model = models::make_sparse_model(name, ds.num_entities(),
                                           ds.num_relations(), cfg, mr);
    train::TrainConfig tc;
    tc.epochs = 4;
    tc.batch_size = 256;
    std::vector<std::int64_t> allocs_per_epoch;
    train::train(*model, ds.train, tc, [&](int, float) {
      allocs_per_epoch.push_back(MemoryTracker::instance().total_allocs());
    });
    ASSERT_EQ(allocs_per_epoch.size(), 4u);
    EXPECT_EQ(allocs_per_epoch[1], allocs_per_epoch[0]) << name;
    EXPECT_EQ(allocs_per_epoch[2], allocs_per_epoch[1]) << name;
    EXPECT_EQ(allocs_per_epoch[3], allocs_per_epoch[2]) << name;
  }
}

// ---- training through the fused path behaves -------------------------------

TEST(FusedKernels, FusedTrainingConvergesLikeAutograd) {
  // End-to-end: same seed, same data, fused vs autograd runs reach closely
  // matching loss trajectories (tolerance: FP reassociation compounds over
  // steps).
  Rng rng(31);
  kg::Dataset ds = kg::generate({"fconv", 80, 4, 600}, rng, 0.0, 0.0);
  for (const char* name : {"TransE", "TransR", "TorusE"}) {
    models::ModelConfig cfg;
    cfg.dim = 16;
    cfg.rel_dim = 8;
    train::TrainConfig tc;
    tc.epochs = 3;
    tc.batch_size = 128;
    tc.lr = 0.05f;
    std::vector<float> loss_fused, loss_auto;
    {
      config::ScopedOverride fused("SPTX_FUSED", "on");
      Rng mr(8);
      auto model = models::make_sparse_model(name, ds.num_entities(),
                                             ds.num_relations(), cfg, mr);
      loss_fused = train::train(*model, ds.train, tc).epoch_loss;
    }
    {
      config::ScopedOverride fused("SPTX_FUSED", "off");
      Rng mr(8);
      auto model = models::make_sparse_model(name, ds.num_entities(),
                                             ds.num_relations(), cfg, mr);
      loss_auto = train::train(*model, ds.train, tc).epoch_loss;
    }
    ASSERT_EQ(loss_fused.size(), loss_auto.size()) << name;
    for (std::size_t e = 0; e < loss_fused.size(); ++e) {
      EXPECT_NEAR(loss_fused[e], loss_auto[e],
                  1e-3f * (1.0f + std::fabs(loss_auto[e])))
          << name << " epoch " << e;
    }
    EXPECT_LT(loss_fused.back(), loss_fused.front()) << name;
  }
}

}  // namespace
}  // namespace sptx
