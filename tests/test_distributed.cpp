// Tests for the data-parallel trainer and the DDP scaling model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "src/common/error.hpp"
#include "src/distributed/ddp.hpp"
#include "src/kg/synthetic.hpp"
#include "src/train/trainer.hpp"

namespace sptx {
namespace {

kg::Dataset ddp_dataset() {
  Rng rng(61);
  return kg::generate({"ddp", 60, 4, 512}, rng, 0.0, 0.0);
}

models::ModelConfig cfg8() {
  models::ModelConfig cfg;
  cfg.dim = 8;
  return cfg;
}

TEST(Ddp, SingleWorkerMatchesSequentialTrainer) {
  const kg::Dataset ds = ddp_dataset();
  distributed::DdpConfig dc;
  dc.workers = 1;
  dc.epochs = 3;
  dc.batch_size = 128;
  dc.lr = 0.02f;
  dc.seed = 7;
  const auto ddp = distributed::train_ddp(
      [&](Rng& rng) {
        return models::make_sparse_model("TransE", 60, 4, cfg8(), rng);
      },
      ds.train, dc);

  Rng rng(7);
  auto model = models::make_sparse_model("TransE", 60, 4, cfg8(), rng);
  train::TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 128;
  tc.lr = 0.02f;
  tc.seed = 7 + 1;  // train_ddp seeds its data rng with seed+1
  const auto seq = train::train(*model, ds.train, tc);

  ASSERT_EQ(ddp.epoch_loss.size(), seq.epoch_loss.size());
  for (std::size_t i = 0; i < ddp.epoch_loss.size(); ++i)
    EXPECT_NEAR(ddp.epoch_loss[i], seq.epoch_loss[i], 1e-4f);
}

TEST(Ddp, WorkersConvergeLikeSequential) {
  // Gradient averaging over shards ≈ full-batch gradient: 4 workers must
  // reduce loss comparably to 1 worker over the same epochs.
  const kg::Dataset ds = ddp_dataset();
  auto run = [&](int workers) {
    distributed::DdpConfig dc;
    dc.workers = workers;
    dc.epochs = 5;
    dc.batch_size = 256;
    dc.lr = 0.05f;
    dc.seed = 9;
    return distributed::train_ddp(
        [&](Rng& rng) {
          return models::make_sparse_model("TransE", 60, 4, cfg8(), rng);
        },
        ds.train, dc);
  };
  const auto one = run(1);
  const auto four = run(4);
  EXPECT_LT(one.epoch_loss.back(), one.epoch_loss.front());
  EXPECT_LT(four.epoch_loss.back(), four.epoch_loss.front());
  // With shard_size unset the decomposition derives from the worker count
  // (1 shard vs 4 per batch), so results differ only by float reassociation
  // across shard boundaries — same ballpark. Fixing shard_size makes them
  // bit-identical (test_ddp_streaming covers that).
  EXPECT_NEAR(four.epoch_loss.back(), one.epoch_loss.back(),
              0.3f * std::max(1e-3f, one.epoch_loss.front()));
}

TEST(Ddp, ReplicasStayInSync) {
  // After DDP training with identical averaged updates, a fresh run with
  // the same seeds must be deterministic.
  const kg::Dataset ds = ddp_dataset();
  distributed::DdpConfig dc;
  dc.workers = 3;
  dc.epochs = 2;
  dc.batch_size = 128;
  dc.seed = 11;
  auto make = [&](Rng& rng) {
    return models::make_sparse_model("TransE", 60, 4, cfg8(), rng);
  };
  const auto a = distributed::train_ddp(make, ds.train, dc);
  const auto b = distributed::train_ddp(make, ds.train, dc);
  ASSERT_EQ(a.epoch_loss.size(), b.epoch_loss.size());
  for (std::size_t i = 0; i < a.epoch_loss.size(); ++i)
    EXPECT_FLOAT_EQ(a.epoch_loss[i], b.epoch_loss[i]);
}

// A misspelled mode or policy must fail loudly, not silently fall back to
// threads / strict.
void expect_rejected(const distributed::DdpConfig& dc, const char* field,
                     const char* choices) {
  try {
    (void)distributed::resolve(dc, RuntimeConfig{});
    FAIL() << field << " typo was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kPrecondition);
    const std::string what = e.what();
    EXPECT_NE(what.find(field), std::string::npos) << what;
    EXPECT_NE(what.find(choices), std::string::npos) << what;
  }
}

TEST(Ddp, ResolveRejectsUnknownMode) {
  distributed::DdpConfig dc;
  dc.mode = "proc";
  expect_rejected(dc, "mode", "'threads' or 'procs'");
  dc.mode = "PROCS";  // case-insensitive, like the registry knob
  EXPECT_EQ(distributed::resolve(dc, RuntimeConfig{}).mode, "procs");
}

TEST(Ddp, ResolveRejectsUnknownPolicy) {
  distributed::DdpConfig dc;
  dc.policy = "degraded";
  expect_rejected(dc, "policy", "'strict' or 'degrade'");
  dc.policy = "Degrade";
  EXPECT_EQ(distributed::resolve(dc, RuntimeConfig{}).policy, "degrade");
}

TEST(ScalingModel, ComputeTermShrinksWithWorkers) {
  distributed::ScalingModel sm;
  sm.single_worker_epoch_s = 10.0;
  sm.gradient_bytes = 100 * 1024 * 1024;
  const double t4 = sm.predict_seconds(4, 10);
  const double t16 = sm.predict_seconds(16, 10);
  const double t64 = sm.predict_seconds(64, 10);
  // Table 9 shape: monotone decreasing through 64 workers.
  EXPECT_GT(t4, t16);
  EXPECT_GT(t16, t64);
}

TEST(ScalingModel, SublinearSpeedup) {
  distributed::ScalingModel sm;
  sm.single_worker_epoch_s = 10.0;
  sm.gradient_bytes = 100 * 1024 * 1024;
  const double t1 = sm.predict_seconds(1, 10);
  const double t8 = sm.predict_seconds(8, 10);
  const double speedup = t1 / t8;
  EXPECT_GT(speedup, 1.0);
  EXPECT_LT(speedup, 8.0);  // communication + efficiency decay
}

TEST(ScalingModel, CommunicationDominatesEventually) {
  // With a huge gradient and thin pipe, adding workers stops helping.
  distributed::ScalingModel sm;
  sm.single_worker_epoch_s = 1.0;
  sm.gradient_bytes = 10LL * 1024 * 1024 * 1024;
  sm.bandwidth_gbps = 1.0;
  const double t8 = sm.predict_seconds(8, 1);
  const double t64 = sm.predict_seconds(64, 1);
  EXPECT_GT(t64, t8 * 0.9);  // no longer scaling
}

TEST(ScalingModel, InvalidWorkerCountThrows) {
  distributed::ScalingModel sm;
  EXPECT_THROW(sm.predict_seconds(0, 1), Error);
}

}  // namespace
}  // namespace sptx
