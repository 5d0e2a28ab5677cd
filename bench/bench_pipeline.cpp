// BatchPlan pipeline bench: first-epoch vs cached-epoch wall time.
//
// With an epoch-invariant schedule every epoch after the first skips plan
// compilation entirely (the PlanCache serves it). Whether that saving shows
// in wall time is what this bench measures: at paper scale it is often
// within run-to-run noise, so `paper_shape` is computed from the printed
// rows, never asserted. The bench trains each of the six sparse model
// families twice:
//
//   * fixed-order (§5.3 protocol): reports epoch-1 wall time vs the mean
//     cached-epoch wall time, the cache/build counters that prove reuse,
//     and the run's optimizer-step and post-step (renormalize) seconds;
//   * shuffled + resampled: plans invalidate every epoch and epoch e+1
//     compiles as a pool prefetch task overlapping epoch e; reports the
//     run's total wall time.
//
// Output is one JSON document on stdout — tools/run_benches.sh captures it
// as BENCH_pipeline.json for the PR-to-PR perf trajectory.
#include <cstdio>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"

namespace sptx {
namespace {

struct PipelineRow {
  std::string model;
  double epoch1_s = 0.0;
  double cached_epoch_s = 0.0;    // mean of epochs >= 2
  double shuffled_total_s = 0.0;  // total seconds, shuffled + resampled
  double step_s = 0.0;            // fixed-order run: optimizer step
  double post_step_s = 0.0;       // fixed-order run: model post_step
  std::int64_t plan_hits = 0;
  std::int64_t incidence_builds = 0;
};

double mean_tail(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  return std::accumulate(xs.begin() + 1, xs.end(), 0.0) /
         static_cast<double>(xs.size() - 1);
}

PipelineRow run_model(const std::string& name, const kg::Dataset& ds,
                      int epochs) {
  PipelineRow row;
  row.model = name;

  models::ModelConfig cfg;
  cfg.dim = 64;  // rebuild-heavy shape: small dim keeps the SpMM cheap
  cfg.rel_dim = 32;

  train::TrainConfig tc;
  tc.epochs = epochs;
  tc.batch_size = 4096;
  tc.lr = 0.01f;

  auto fresh = [&]() {
    Rng rng(7);
    return models::make_sparse_model(name, ds.num_entities(),
                                     ds.num_relations(), cfg, rng);
  };

  {  // Fixed-order protocol: cache serves every epoch after the first.
    auto model = fresh();
    const auto r = train::train(*model, ds.train, tc);
    row.epoch1_s = r.epoch_seconds.empty() ? 0.0 : r.epoch_seconds.front();
    row.cached_epoch_s = mean_tail(r.epoch_seconds);
    row.plan_hits = r.plan_stats.hits;
    row.incidence_builds = r.incidence_builds;
    row.step_s = r.phases.step_s;
    row.post_step_s = r.phases.post_step_s;
  }
  {  // Variant schedule: every epoch recompiles, prefetched one ahead.
    tc.shuffle = true;
    tc.resample_negatives = true;
    auto model = fresh();
    row.shuffled_total_s = train::train(*model, ds.train, tc).total_seconds;
  }
  return row;
}

}  // namespace
}  // namespace sptx

int main() {
  using namespace sptx;
  // One representative per family: sp_transe, sp_transh, sp_transr,
  // sp_toruse, the semiring extensions, and the extra translational set.
  const std::vector<std::string> families = {"TransE", "TransH",  "TransR",
                                             "TorusE", "DistMult", "TransD"};
  const kg::Dataset ds = bench::load_scaled("FB15K", 33);
  const int epochs = bench::epochs(6);

  std::printf("{\n");
  std::printf("  \"bench\": \"pipeline\",\n");
  std::printf("  \"dataset\": \"FB15K(scaled)\",\n");
  std::printf("  \"triplets\": %lld,\n",
              static_cast<long long>(ds.train.size()));
  std::printf("  \"epochs\": %d,\n", epochs);
  std::printf("  \"cores\": %u,\n", std::thread::hardware_concurrency());
  std::printf("  \"models\": [\n");
  int cached_faster = 0;
  std::string slower;
  for (std::size_t i = 0; i < families.size(); ++i) {
    const PipelineRow row = run_model(families[i], ds, epochs);
    if (row.cached_epoch_s < row.epoch1_s) {
      ++cached_faster;
    } else {
      slower += (slower.empty() ? "" : ", ") + row.model;
    }
    std::printf(
        "    {\"model\": \"%s\", \"epoch1_s\": %.6f, \"cached_epoch_s\": "
        "%.6f, \"cached_speedup\": %.3f, \"shuffled_total_s\": %.6f, "
        "\"step_s\": %.6f, \"post_step_s\": %.6f, \"plan_hits\": %lld, "
        "\"incidence_builds\": %lld}%s\n",
        row.model.c_str(), row.epoch1_s, row.cached_epoch_s,
        row.cached_epoch_s > 0.0 ? row.epoch1_s / row.cached_epoch_s : 0.0,
        row.shuffled_total_s, row.step_s, row.post_step_s,
        static_cast<long long>(row.plan_hits),
        static_cast<long long>(row.incidence_builds),
        i + 1 < families.size() ? "," : "");
    std::fflush(stdout);
  }
  std::printf("  ],\n");
  std::printf("  \"paper_shape\": \"cached epoch faster than epoch 1 for "
              "%d of %zu families%s%s%s\"\n}\n",
              cached_faster, families.size(),
              slower.empty() ? "" : " (not for ", slower.c_str(),
              slower.empty() ? "" : ")");
  return 0;
}
