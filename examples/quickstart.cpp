// Quickstart: train a sparse TransE model on a synthetic knowledge graph
// and evaluate link prediction — the 60-second tour of the public API.
//
//   build/examples/quickstart
#include <cstdio>

#include "src/eval/link_prediction.hpp"
#include "src/kg/synthetic.hpp"
#include "src/models/model.hpp"
#include "src/train/trainer.hpp"

int main() {
  using namespace sptx;

  // 1. Get a knowledge graph. Synthetic here; kg::load_tsv/load_csv load
  //    real ones from disk (see examples/link_prediction.cpp).
  Rng rng(42);
  kg::Dataset dataset =
      kg::generate({"quickstart", 500, 8, 6000}, rng, 0.05, 0.05);
  std::printf("dataset: %lld entities, %lld relations, %lld train triplets\n",
              static_cast<long long>(dataset.num_entities()),
              static_cast<long long>(dataset.num_relations()),
              static_cast<long long>(dataset.train.size()));

  // 2. Build a model. make_sparse_model gives the SpMM-based SpTransX
  //    implementation; "TransE" / "TransR" / "TransH" / "TorusE" plus the
  //    Appendix D extensions "DistMult" / "ComplEx" / "RotatE".
  models::ModelConfig config;
  config.dim = 64;        // embedding size
  config.margin = 0.5f;   // margin-ranking loss margin
  config.normalize_entities = false;  // free norms suit the tiny graph
  Rng model_rng(7);
  auto model = models::make_sparse_model(
      "TransE", dataset.num_entities(), dataset.num_relations(), config,
      model_rng);

  // 3. Train. The trainer handles batching, pre-generated negative
  //    sampling, SGD, and phase timing.
  train::TrainConfig tconfig;
  tconfig.epochs = 200;
  tconfig.batch_size = 2048;
  tconfig.lr = 1.0f;                   // scaled-up lr for the small graph
  tconfig.use_adagrad = true;          // per-coordinate steps converge faster
  tconfig.resample_negatives = true;   // better ranking on small graphs
  const train::TrainResult result =
      train::train(*model, dataset.train, tconfig, [](int epoch, float loss) {
        if (epoch % 10 == 0) std::printf("  epoch %3d  loss %.4f\n", epoch, loss);
      });
  std::printf("trained in %.2fs (forward %.2fs, backward %.2fs, step %.2fs, "
              "post_step %.2fs)\n",
              result.total_seconds, result.phases.forward_s,
              result.phases.backward_s, result.phases.step_s,
              result.phases.post_step_s);

  // 4. Evaluate filtered link prediction on the held-out test split.
  eval::EvalConfig ec;
  ec.max_queries = 100;
  const eval::RankingMetrics metrics = eval::evaluate(*model, dataset, ec);
  std::printf("filtered Hits@1 %.3f  Hits@3 %.3f  Hits@10 %.3f  MRR %.3f\n",
              metrics.hits_at_1, metrics.hits_at_3, metrics.hits_at_10,
              metrics.mrr);
  return 0;
}
