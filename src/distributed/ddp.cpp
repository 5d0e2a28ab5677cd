#include "src/distributed/ddp.hpp"

#include <cmath>
#include <exception>
#include <string>

#include "src/common/error.hpp"
#include "src/common/fault.hpp"
#include "src/distributed/driver.hpp"
#include "src/models/snapshot.hpp"
#include "src/runtime/task_pool.hpp"

namespace sptx::distributed {

DdpConfig resolve(const DdpConfig& config, const RuntimeConfig& rc) {
  DdpConfig resolved = config;
  resolved.workers = static_cast<int>(
      rc.int_or("SPTX_DDP_WORKERS", config.workers));
  resolved.shard_size = static_cast<index_t>(
      rc.int_or("SPTX_DDP_SHARD", config.shard_size));
  resolved.plan_cache = rc.flag_or("SPTX_DDP_PLAN_CACHE", config.plan_cache);
  resolved.max_worker_retries = static_cast<int>(
      rc.int_or("SPTX_DDP_RETRIES", config.max_worker_retries));
  resolved.checkpoint_every = static_cast<int>(
      rc.int_or("SPTX_CHECKPOINT_EVERY", config.checkpoint_every));
  resolved.checkpoint_keep = static_cast<int>(
      rc.int_or("SPTX_CHECKPOINT_KEEP", config.checkpoint_keep));
  resolved.mode = to_lower(rc.value_or("SPTX_DDP_MODE", config.mode));
  resolved.heartbeat_ms = static_cast<int>(
      rc.int_or("SPTX_DDP_HEARTBEAT_MS", config.heartbeat_ms));
  resolved.policy = to_lower(rc.value_or("SPTX_DDP_POLICY", config.policy));
  resolved.shm_bytes = rc.int_or("SPTX_DDP_SHM_BYTES", config.shm_bytes);
  SPTX_CHECK(resolved.mode == "threads" || resolved.mode == "procs",
             "DdpConfig::mode must be 'threads' or 'procs', got '"
                 << resolved.mode << "'");
  SPTX_CHECK(resolved.policy == "strict" || resolved.policy == "degrade",
             "DdpConfig::policy must be 'strict' or 'degrade', got '"
                 << resolved.policy << "'");
  return resolved;
}

namespace {

std::string describe(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

/// In-process backend: replicas 1..p-1 run as logical workers beside the
/// driver's master, which is worker 0. Shard s belongs to worker s mod p.
class ThreadExecutor final : public ShardExecutor {
 public:
  using Factory = std::function<std::unique_ptr<models::KgeModel>(Rng&)>;
  explicit ThreadExecutor(const Factory& make_model)
      : make_model_(make_model) {}

  void begin(DdpRun& run, int start_epoch) override {
    const int p = run.config.workers;
    retries_left_ = run.config.max_worker_retries;
    replicas_.resize(static_cast<std::size_t>(p));
    for (int w = 1; w < p; ++w) {
      Replica& rep = replicas_[static_cast<std::size_t>(w)];
      Rng rng(run.config.seed);
      rep.init(make_model_(rng), run.config.plan_cache,
               run.data.num_entities(), run.data.num_relations());
      SPTX_CHECK(rep.params.size() == run.master.params.size(),
                 "replica parameter sets diverge");
      if (start_epoch > 0)
        models::copy_parameters(*run.master.model, *rep.model);
    }
  }

  bool run_batch(DdpRun& run, int epoch, const Batch& batch,
                 std::vector<ShardGrads>& grads,
                 std::vector<float>& loss) override {
    const int p = run.config.workers;
    // Synchronization contract (checked by inspection — there are no locks
    // here for the thread-safety analysis to verify): pure fork/join. Each
    // worker writes only its own disjoint slots of grads / loss / errors
    // (indexed by shard or worker id) and the driver reads them only after
    // the join, the sole happens-before edge. Anything cross-worker
    // (profiling counters, the fault harness, workspace pools) is
    // independently thread-safe. Worker exceptions (bad_alloc compiling a
    // plan, a failed SPTX_CHECK, an injected ddp_worker fault) are captured
    // so they surface like single-threaded errors instead of terminating
    // the process — or, while the retry budget lasts, get repaired.
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(p));
    auto work = [&](int w) {
      Replica& rep = replica(run, w);
      try {
        for (index_t s = w; s < batch.num_shards; s += p) {
          // Injected worker death: `ddp_worker:die@<epoch>:<worker>` (or
          // kill@N for a hard crash) fires before the shard computes.
          fault::maybe_fail("ddp_worker", epoch, w);
          loss[static_cast<std::size_t>(s)] =
              compute_shard(rep, batch, s, grads[static_cast<std::size_t>(s)]);
        }
      } catch (...) {
        errors[static_cast<std::size_t>(w)] = std::current_exception();
      }
    };
    if (runtime::use_pool()) {
      // Logical worker w keeps its id on the pool, so the shard assignment
      // and the die@epoch:worker fault sites match the legacy path, and
      // TaskGroup::wait() is the join. Workers running as pool tasks run
      // their fused kernels on the same pool: nested parallel_for composes
      // instead of oversubscribing. With too few pool workers the waiting
      // driver executes the queued bodies itself — placement changes,
      // results do not.
      runtime::TaskGroup tg;
      auto& pool = runtime::TaskPool::instance();
      for (int w = 1; w < p; ++w)
        pool.submit(tg, [&work, w] { work(w); }, runtime::TaskClass::kDdp);
      work(0);
      tg.wait();
    } else {
      std::vector<runtime::Thread> threads;
      threads.reserve(static_cast<std::size_t>(p - 1));
      for (int w = 1; w < p; ++w)
        threads.emplace_back([&work, w] { work(w); });
      work(0);
      for (auto& t : threads) t.join();
    }

    std::exception_ptr first_error;
    int failed = 0;
    for (const auto& error : errors) {
      if (!error) continue;
      ++failed;
      if (!first_error) first_error = error;
    }
    if (failed == 0) return true;
    run.result.worker_failures += failed;
    if (retries_left_ <= 0)
      run.abort(ErrorCode::kWorkerFailed,
                "ddp worker failed and the retry budget is exhausted — "
                "aborting epoch " + std::to_string(epoch),
                describe(first_error));
    --retries_left_;
    // Scrub the dead workers' half-accumulated gradients — forward/backward
    // never touches parameter VALUES, so a zeroed gradient buffer restores a
    // pristine replica. Completed shards already moved their contribution
    // out (harvest zeroes as it copies); the driver re-runs the rest.
    for (int w = 0; w < p; ++w) {
      if (!errors[static_cast<std::size_t>(w)]) continue;
      for (auto& param : replica(run, w).params) param.grad().zero();
    }
    return true;
  }

  void step(DdpRun& run, int /*epoch*/, const Batch& /*batch*/,
            const StepRows& support) override {
    for (std::size_t w = 1; w < replicas_.size(); ++w)
      step_replica(replicas_[w], run.master.params, support, run.config.lr);
  }

  void finish(DdpRun& run) override {
    for (std::size_t w = 1; w < replicas_.size(); ++w)
      run.result.worker_plan_stats.push_back(plan_stats_of(replicas_[w]));
  }

 private:
  Replica& replica(DdpRun& run, int w) {
    return w == 0 ? run.master : replicas_[static_cast<std::size_t>(w)];
  }

  const Factory& make_model_;
  std::vector<Replica> replicas_;  // [0] unused: worker 0 is the master
  int retries_left_ = 0;
};

}  // namespace

DdpResult train_ddp(
    const std::function<std::unique_ptr<models::KgeModel>(Rng&)>& make_model,
    const kg::TripletSource& data, const DdpConfig& config,
    const RuntimeConfig& rc) {
  const DdpConfig res = resolve(config, rc);
  ThreadExecutor exec(make_model);
  return run_ddp(
      res, data,
      [&] {
        Rng rng(res.seed);
        return make_model(rng);
      },
      exec);
}

DdpResult train_ddp(
    const std::function<std::unique_ptr<models::KgeModel>(Rng&)>& make_model,
    const kg::TripletSource& data, const DdpConfig& config) {
  return train_ddp(make_model, data, config, *config::current());
}

double ScalingModel::predict_seconds(int p, int epochs) const {
  SPTX_CHECK(p >= 1, "workers must be >= 1");
  // Efficiency decays per doubling: eff(p) = parallel_efficiency^log2(p).
  const double doublings = std::log2(static_cast<double>(p));
  const double eff = std::pow(parallel_efficiency, doublings);
  const double compute = single_worker_epoch_s / (p * eff);
  // Ring all-reduce: 2(p−1)/p of the buffer crosses each link; 2(p−1)
  // latency hops.
  const double bw_bytes_per_s = bandwidth_gbps * 1e9 / 8.0;
  const double comm =
      p > 1 ? 2.0 * (p - 1) / p * static_cast<double>(gradient_bytes) /
                      bw_bytes_per_s +
                  2.0 * (p - 1) * latency_us * 1e-6
            : 0.0;
  return epochs * (compute + comm);
}

}  // namespace sptx::distributed
