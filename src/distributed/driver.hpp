// The one DDP epoch driver. Both execution modes — in-process worker
// threads (ddp.cpp) and supervised worker processes (proc_ddp.cpp) — are
// ShardExecutor backends of run_ddp, which owns every decision they share:
//
//   * config checks, resume from a checkpoint, counter windows;
//   * the per-epoch batch walk (for_each_batch: Rng(seed + 1) negatives,
//     shard decomposition, plan-cache keys);
//   * recomputing on the master replica any shard the backend did not
//     deliver (counted in shards_reassigned);
//   * the shard-index-ordered sparse/dense reduction and the loss sum;
//   * the batch's StepRows support, the master's step and post_step;
//   * on_epoch, rotated checkpoints, and filling DdpResult.
//
// A backend only moves shard work to its workers and the reduced gradient
// back to their replicas, and handles its own failures (retry budgets,
// respawns, typed aborts). Because the reduction order, the loss weights
// and the step are all here, the two modes are bit-identical by
// construction.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/distributed/ddp.hpp"
#include "src/distributed/shard_grads.hpp"

namespace sptx::distributed {

/// State the driver shares with its backend for one run.
struct DdpRun {
  DdpRun(const DdpConfig& resolved, const kg::TripletSource& source)
      : config(resolved), data(source) {}

  DdpConfig config;  // resolved; shard_size > 0
  const kg::TripletSource& data;
  Replica master;  // the driving process's replica: reduces, steps, saves
  DdpResult result;

  /// Rotated-checkpoint format: master parameters + the epoch cursor. DDP
  /// epochs are self-contained, so that is the whole training state.
  void save(int next_epoch, const std::string& path);

  /// Clean abort: flush the master's (consistent — a batch's update is
  /// all-or-nothing) parameters to `<checkpoint_path>.abort`, then throw
  /// `code` with `what`, the flush path and `cause`.
  [[noreturn]] void abort(ErrorCode code, const std::string& what,
                          const std::string& cause);
};

/// Where the shards of a batch run. Hooks are called in run order:
/// begin, then per epoch begin_epoch, per batch run_batch + step, then
/// end_epoch; finish after the last epoch.
class ShardExecutor {
 public:
  ShardExecutor() = default;
  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;
  virtual ~ShardExecutor() = default;

  /// Once, after the master is built and resumed from `start_epoch`.
  virtual void begin(DdpRun& run, int start_epoch) = 0;
  virtual void begin_epoch(DdpRun& /*run*/, int /*epoch*/) {}
  /// Compute the shards this backend can deliver into grads[s] / loss[s].
  /// Shards left empty are recomputed on the master. Returns false when
  /// the backend had no workers for this batch: the master then owns the
  /// whole batch and nothing counts as reassigned.
  virtual bool run_batch(DdpRun& run, int epoch, const Batch& batch,
                         std::vector<ShardGrads>& grads,
                         std::vector<float>& loss) = 0;
  /// Apply the reduced gradient (the master's buffers over `support`) to
  /// the backend's replicas. Runs before the master steps.
  virtual void step(DdpRun& run, int epoch, const Batch& batch,
                    const StepRows& support) = 0;
  /// After on_epoch and the epoch's rotated checkpoint.
  virtual void end_epoch(DdpRun& /*run*/, int /*epoch*/) {}
  /// After the last epoch: stop workers, report backend-specific results
  /// (worker_plan_stats after the master's, failure counters).
  virtual void finish(DdpRun& /*run*/) {}
};

/// Train with `exec` over `data`. `config` is already resolve()d;
/// `make_model` builds the master replica.
DdpResult run_ddp(
    const DdpConfig& config, const kg::TripletSource& data,
    const std::function<std::unique_ptr<models::KgeModel>()>& make_model,
    ShardExecutor& exec);

/// A replica's plan-cache traffic (all zero when caching is off).
sparse::PlanCache::Stats plan_stats_of(const Replica& rep);

}  // namespace sptx::distributed
