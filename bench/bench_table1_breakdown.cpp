// Table 1: TransE training-time breakdown (forward / backward / step),
// sparse vs non-sparse, averaged over the seven Table 3 datasets.
#include "bench_common.hpp"

using namespace sptx;

int main() {
  bench::print_header(
      "Table 1 — TransE fwd/bwd/step breakdown, avg of 7 datasets",
      "Sparse beats non-sparse on Forward (~4x) and Backward (~5x); "
      "Step is comparable (paper CPU: 74.9/166.6/15.4 vs 299.2/919.2/16.0)");

  const int ep = bench::epochs(10);
  const models::ModelConfig cfg = bench::bench_config("TransE");

  for (const std::string framework : {"SpTransX", "TorchKGE-style dense"}) {
    profiling::PhaseTimer total;
    for (const auto& name : bench::figure7_datasets()) {
      const kg::Dataset ds = bench::load_scaled(name, 42);
      auto model = bench::make_model(
          framework == "SpTransX" ? "SpTransX" : "dense", "TransE",
          ds.num_entities(), ds.num_relations(), cfg, 7);
      const auto result =
          train::train(*model, ds.train, bench::bench_train_config(ep));
      total += result.phases;
    }
    const double k = 1.0 / 7.0;
    // The paper's Step covers everything after backward: the optimizer step
    // and the post-step constraints.
    std::printf("%-22s  forward %8.3fs  backward %8.3fs  step %8.3fs\n",
                framework.c_str(), total.forward_s * k, total.backward_s * k,
                (total.step_s + total.post_step_s) * k);
  }
  return 0;
}
