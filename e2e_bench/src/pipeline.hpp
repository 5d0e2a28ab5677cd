// One workload, end to end, in this process:
//
//   set-up ×3 (generate the FB15K-profile graph from the seed, create the
//   model, checkpoint it, load it into a serving engine, open a filtered
//   InferenceSession) → train (train::train, or Engine::train_ddp in procs
//   mode plus a plain train::train baseline) → filtered eval → checkpoint,
//   reload and Engine::publish the trained weights → open-loop serving with
//   publishes at a fixed cadence → output checks.
//
// A traced run (--trace 1) does the same and adds the traced training
// loop at nproc lanes and at 1 lane, the computed layer costs and the
// triad bandwidth, and reports per-layer metrics instead of end-to-end ones.
#pragma once

#include <cstdint>
#include <string>

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string workdir = ".";  // checkpoints go here
};

/// Run `options.workload`; prints context, metric and check lines and the
/// final JSON. Returns the process exit code (2 for an unknown workload).
int run_workload(const Options& options);

}  // namespace e2e
