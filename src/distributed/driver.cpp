#include "src/distributed/driver.hpp"

#include <filesystem>
#include <utility>

#include "src/common/fault.hpp"
#include "src/common/simd.hpp"
#include "src/models/checkpoint.hpp"
#include "src/profiling/counters.hpp"

namespace sptx::distributed {

void DdpRun::save(int next_epoch, const std::string& path) {
  models::TrainCheckpointState st;
  st.next_epoch = next_epoch;
  st.epoch_loss = result.epoch_loss;
  models::save_train_checkpoint(*master.model, st, path);
}

void DdpRun::abort(ErrorCode code, const std::string& what,
                   const std::string& cause) {
  std::string flushed;
  if (!config.checkpoint_path.empty()) {
    flushed = config.checkpoint_path + ".abort";
    models::save_checkpoint(*master.model, flushed);
  }
  throw_error(code, what +
                        (flushed.empty()
                             ? std::string()
                             : "; parameters flushed to " + flushed) +
                        "; cause: " + cause);
}

sparse::PlanCache::Stats plan_stats_of(const Replica& rep) {
  return rep.cache != nullptr ? rep.cache->stats()
                              : sparse::PlanCache::Stats{};
}

namespace {

/// Accumulate shard contributions into the master's (all-zero) gradient
/// buffers in shard-index order, touched rows only — bit-identical no
/// matter who computed which shard.
void reduce_shards(Replica& master, std::vector<ShardGrads>& grads) {
  for (ShardGrads& sg : grads) {
    profiling::count_event(profiling::Counter::kDdpShards);
    for (std::size_t i = 0; i < master.params.size(); ++i) {
      const ParamGrad& pg = sg[i];
      if (!pg.present) continue;
      Matrix& g0 = master.params[i].grad();
      if (pg.dense) {
        g0.add_(pg.values);
        profiling::count_event(profiling::Counter::kDdpDenseReduces);
        continue;
      }
      const index_t cols = g0.cols();
      for (std::size_t k = 0; k < pg.rows.size(); ++k)
        simd::add(g0.row(pg.rows[k]), pg.values.row(static_cast<index_t>(k)),
                  cols);
      profiling::count_event(profiling::Counter::kDdpAllReduceRows,
                             static_cast<std::int64_t>(pg.rows.size()));
    }
  }
}

}  // namespace

DdpResult run_ddp(
    const DdpConfig& config, const kg::TripletSource& data,
    const std::function<std::unique_ptr<models::KgeModel>()>& make_model,
    ShardExecutor& exec) {
  SPTX_CHECK(data.valid() && !data.empty(), "empty training set");
  SPTX_CHECK(config.batch_size > 0 && config.epochs >= 0, "bad ddp config");
  SPTX_CHECK(config.checkpoint_every <= 0 || !config.checkpoint_path.empty(),
             "checkpoint_every > 0 needs a checkpoint_path");
  const int p = config.workers;
  SPTX_CHECK(p >= 1, "need at least one worker");
  fault::init_from_config();

  DdpRun run(config, data);
  // 0 derives classic DDP: one shard per worker.
  index_t& shard_size = run.config.shard_size;
  if (shard_size <= 0) shard_size = (config.batch_size + p - 1) / p;
  run.master.init(make_model(), config.plan_cache, data.num_entities(),
                  data.num_relations());
  DdpResult& result = run.result;
  result.workers = p;
  result.shard_size = shard_size;

  // Resume: restore the master and skip the completed epochs. Epochs are
  // self-contained (the data RNG reseeds every epoch), so parameters + the
  // epoch cursor reproduce the uninterrupted trajectory exactly; backends
  // sync their replicas from the master in begin().
  int start_epoch = 0;
  if (!config.resume_from.empty()) {
    std::string path = config.resume_from;
    if (!std::filesystem::exists(path)) {
      const auto found = models::latest_checkpoint(config.resume_from);
      SPTX_CHECK_CODE(found.has_value(), ErrorCode::kIo,
                      "no checkpoint found at '"
                          << config.resume_from << "' (or rotations "
                          << config.resume_from << ".ep<N>)"
                          << models::describe_abort_sibling(
                                 config.resume_from));
      path = found->path;
    }
    models::TrainCheckpointState st =
        models::load_train_checkpoint(*run.master.model, path);
    result.epoch_loss = std::move(st.epoch_loss);
    start_epoch = st.next_epoch;
    result.start_epoch = start_epoch;
  }

  using profiling::Counter;
  const profiling::CounterWindow shards_window(Counter::kDdpShards);
  const profiling::CounterWindow rows_window(Counter::kDdpAllReduceRows);
  const profiling::CounterWindow dense_window(Counter::kDdpDenseReduces);
  const profiling::CounterWindow builds_window(Counter::kIncidenceBuilds);
  const profiling::CounterWindow frames_window(Counter::kDdpTransportFrames);
  const profiling::CounterWindow bytes_window(Counter::kDdpTransportBytes);
  const profiling::CounterWindow retries_window(
      Counter::kDdpTransportRetries);
  const auto t0 = profiling::clock::now();
  exec.begin(run, start_epoch);

  for (int epoch = start_epoch; epoch < config.epochs; ++epoch) {
    const auto epoch_start = profiling::clock::now();
    exec.begin_epoch(run, epoch);
    double loss_sum = 0.0;
    index_t batches = 0;
    const auto train_batch = [&](const Batch& batch) {
      const auto num_shards = static_cast<std::size_t>(batch.num_shards);
      std::vector<ShardGrads> grads(num_shards);
      std::vector<float> shard_loss(num_shards, 0.0f);
      const bool delegated =
          exec.run_batch(run, epoch, batch, grads, shard_loss);
      // Cover everything that did not arrive: failed workers' shards and,
      // with no workers left, whole batches. Reduction is shard-index
      // ordered, so the result is bit-identical to an undisturbed run.
      for (std::size_t s = 0; s < num_shards; ++s) {
        if (!grads[s].empty()) continue;
        shard_loss[s] = compute_shard(run.master, batch,
                                      static_cast<index_t>(s), grads[s]);
        if (delegated) ++result.shards_reassigned;
      }
      reduce_shards(run.master, grads);

      // Every replica steps with the same reduced gradient over the batch's
      // touched rows; the backend's go first, while the master's buffers
      // still hold it.
      const StepRows support(run.master, batch.pos, batch.neg);
      exec.step(run, epoch, batch, support);
      step_and_clear(run.master, support, config.lr);

      float batch_loss = 0.0f;  // shard order: worker-count invariant
      for (float l : shard_loss) batch_loss += l;
      loss_sum += batch_loss;
      ++batches;
      return true;
    };
    for_each_batch(data, config.seed, config.batch_size, shard_size,
                   train_batch);

    const float mean_loss =
        batches > 0 ? static_cast<float>(loss_sum / batches) : 0.0f;
    result.epoch_loss.push_back(mean_loss);
    result.epoch_seconds.push_back(profiling::seconds_since(epoch_start));
    if (config.on_epoch) config.on_epoch(epoch, mean_loss);

    if (config.checkpoint_every > 0 &&
        (epoch + 1) % config.checkpoint_every == 0 &&
        epoch + 1 < config.epochs) {
      const std::string path =
          models::checkpoint_path_for_epoch(config.checkpoint_path, epoch + 1);
      run.save(epoch + 1, path);
      models::prune_checkpoints(config.checkpoint_path,
                                config.checkpoint_keep);
      ++result.checkpoints_written;
      result.last_checkpoint = path;
    }
    exec.end_epoch(run, epoch);
  }

  result.worker_plan_stats.push_back(plan_stats_of(run.master));
  exec.finish(run);
  result.total_seconds = profiling::seconds_since(t0);
  result.shards_executed = shards_window.elapsed();
  result.allreduce_rows = rows_window.elapsed();
  result.dense_reduces = dense_window.elapsed();
  result.incidence_builds = builds_window.elapsed();
  result.transport_frames = frames_window.elapsed();
  result.transport_bytes = bytes_window.elapsed();
  result.transport_retries = retries_window.elapsed();
  for (const auto& stats : result.worker_plan_stats) {
    result.plan_stats.hits += stats.hits;
    result.plan_stats.misses += stats.misses;
    result.plan_stats.invalidations += stats.invalidations;
    result.plan_stats.entries += stats.entries;
  }
  result.model = std::move(run.master.model);
  return std::move(result);
}

}  // namespace sptx::distributed
