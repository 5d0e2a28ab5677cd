// Figure 8: forward / backward / step breakdown per framework, averaged
// over the seven datasets, for all four models.
#include "bench_common.hpp"

using namespace sptx;

int main() {
  bench::print_header(
      "Figure 8 — fwd/bwd/step breakdown per framework, avg of 7 datasets",
      "SpTransX improves forward AND backward for every model; backward "
      "dominates the dense baselines");

  const int ep = bench::epochs(8);
  for (const std::string model_name :
       {"TransE", "TransR", "TransH", "TorusE"}) {
    const models::ModelConfig cfg = bench::bench_config(model_name);
    std::printf("\n%s:\n", model_name.c_str());
    for (const std::string framework : {"SpTransX", "dense"}) {
      profiling::PhaseTimer total;
      for (const auto& name : bench::figure7_datasets()) {
        const kg::Dataset ds = bench::load_scaled(name, 42);
        auto model =
            bench::make_model(framework, model_name, ds.num_entities(),
                              ds.num_relations(), cfg, 7);
        total +=
            train::train(*model, ds.train, bench::bench_train_config(ep))
                .phases;
      }
      const double k = 1.0 / 7.0;
      // The paper's Step covers everything after backward: the optimizer
      // step and the post-step constraints.
      std::printf("  %-10s forward %8.3fs  backward %8.3fs  step %7.3fs"
                  "  total %8.3fs\n",
                  framework.c_str(), total.forward_s * k,
                  total.backward_s * k, (total.step_s + total.post_step_s) * k,
                  total.total() * k);
      std::fflush(stdout);
    }
  }
  return 0;
}
