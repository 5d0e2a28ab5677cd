// Fused-vs-autograd training ablation: per-epoch wall time for the three
// families the ISSUE names (TransE, TransR, TorusE) on the Figure-2
// workload, SPTX_FUSED=off (legacy autograd graph) vs on (single-pass
// fused kernels). Also cross-checks the final-epoch losses so a speedup
// can never come from silently diverging math, and reports the
// forward/backward phase split (the fused layer attacks both). Every
// model × dataset is run at both kernel lane widths: "simd": "avx2" (the
// W=8 copy, when cpuid allows it) and "scalar" (W=1, forced through
// SPTX_NO_SIMD).
//
// Output is one JSON document on stdout — tools/run_benches.sh captures it
// as BENCH_fused.json for the PR-to-PR perf trajectory.
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/common/cpu_features.hpp"

namespace sptx {
namespace {

struct FusedRow {
  std::string model;
  std::string dataset;
  std::string simd;  // lane width the kernels ran at: "avx2" or "scalar"
  double autograd_epoch_s = 0.0;  // mean epoch wall time, SPTX_FUSED=off
  double fused_epoch_s = 0.0;     // mean epoch wall time, SPTX_FUSED=on
  double autograd_fwd_s = 0.0, autograd_bwd_s = 0.0;
  double fused_fwd_s = 0.0, fused_bwd_s = 0.0;
  float autograd_loss = 0.0f;
  float fused_loss = 0.0f;
};

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

FusedRow run_model(const std::string& name, const std::string& dataset,
                   int epochs, bool scalar) {
  config::ScopedOverride width("SPTX_NO_SIMD", scalar ? "1" : "0");
  FusedRow row;
  row.model = name;
  row.dataset = dataset;
  row.simd = simd_enabled() ? "avx2" : "scalar";

  const kg::Dataset ds = bench::load_scaled(dataset, 42);
  const models::ModelConfig cfg = bench::bench_config(name);
  const train::TrainConfig tc = bench::bench_train_config(epochs);

  const auto run = [&](const char* mode, double& epoch_s, double& fwd_s,
                       double& bwd_s, float& final_loss) {
    config::ScopedOverride fused("SPTX_FUSED", mode);
    auto model = bench::make_model("SpTransX", name, ds.num_entities(),
                                   ds.num_relations(), cfg, 7);
    const auto r = train::train(*model, ds.train, tc);
    epoch_s = mean(r.epoch_seconds);
    fwd_s = r.phases.forward_s;
    bwd_s = r.phases.backward_s;
    final_loss = r.epoch_loss.empty() ? 0.0f : r.epoch_loss.back();
  };

  run("off", row.autograd_epoch_s, row.autograd_fwd_s, row.autograd_bwd_s,
      row.autograd_loss);
  run("on", row.fused_epoch_s, row.fused_fwd_s, row.fused_bwd_s,
      row.fused_loss);
  return row;
}

}  // namespace
}  // namespace sptx

int main() {
  using namespace sptx;
  bench::warn_if_debug_build();

  const int epochs = bench::epochs(4);
  std::vector<FusedRow> rows;
  for (const std::string dataset : {"FB13", "FB15K"}) {
    for (const std::string name : {"TransE", "TransR", "TorusE"}) {
      for (const bool scalar : {false, true})
        rows.push_back(run_model(name, dataset, epochs, scalar));
    }
  }

  std::printf("{\n  %s,\n", bench::build_type_json().c_str());
  std::printf("  \"scale\": %.6g,\n  \"epochs\": %d,\n", bench::scale(),
              epochs);
  std::printf("  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const FusedRow& r = rows[i];
    const double speedup =
        r.fused_epoch_s > 0.0 ? r.autograd_epoch_s / r.fused_epoch_s : 0.0;
    std::printf(
        "    {\"model\": \"%s\", \"dataset\": \"%s\", \"simd\": \"%s\", "
        "\"autograd_epoch_s\": %.6f, \"fused_epoch_s\": %.6f, "
        "\"speedup\": %.3f, "
        "\"autograd_fwd_s\": %.6f, \"autograd_bwd_s\": %.6f, "
        "\"fused_fwd_s\": %.6f, \"fused_bwd_s\": %.6f, "
        "\"autograd_final_loss\": %.6f, \"fused_final_loss\": %.6f}%s\n",
        r.model.c_str(), r.dataset.c_str(), r.simd.c_str(), r.autograd_epoch_s,
        r.fused_epoch_s, speedup, r.autograd_fwd_s, r.autograd_bwd_s,
        r.fused_fwd_s, r.fused_bwd_s,
        static_cast<double>(r.autograd_loss),
        static_cast<double>(r.fused_loss),
        i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}
