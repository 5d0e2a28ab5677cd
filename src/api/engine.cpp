#include "src/api/engine.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/common/fault.hpp"
#include "src/distributed/proc_ddp.hpp"
#include "src/models/checkpoint.hpp"
#include "src/profiling/counters.hpp"
#include "src/runtime/task_pool.hpp"

namespace sptx {

Engine::Engine(const Options& options) : config_(RuntimeConfig::from_env()) {
  for (const auto& [name, value] : options.config_overrides)
    config_.set(name, value);
  if (options.install_process_config) config::install(config_);
  // Pick up SPTX_FAULT_SPEC/SPTX_FAULT_SEED for env-driven fault drills.
  fault::init_from_config();
}

models::KgeModel& Engine::create_model(const ModelSpec& spec,
                                       index_t num_entities,
                                       index_t num_relations) {
  model_ = models::make_model(spec, num_entities, num_relations);
  spec_ = spec;
  num_entities_ = num_entities;
  num_relations_ = num_relations;
  return *model_;
}

models::KgeModel& Engine::load_model(const ModelSpec& spec,
                                     index_t num_entities,
                                     index_t num_relations,
                                     const std::string& checkpoint_path) {
  create_model(spec, num_entities, num_relations);
  models::load_checkpoint(*model_, checkpoint_path);
  return *model_;
}

models::KgeModel& Engine::model() {
  SPTX_CHECK(model_ != nullptr, "no model — call create_model/load_model");
  return *model_;
}

const ModelSpec& Engine::spec() const {
  SPTX_CHECK(model_ != nullptr, "no model — call create_model/load_model");
  return spec_;
}

void Engine::save(const std::string& path) {
  models::save_checkpoint(model(), path);
}

train::TrainResult Engine::train(
    const TripletStore& data, const train::TrainConfig& config,
    const std::function<void(int, float)>& on_epoch) {
  return train::train(model(), data, config, config_, on_epoch);
}

distributed::DdpResult Engine::train_ddp(
    const kg::TripletSource& data, const distributed::DdpConfig& config) {
  SPTX_CHECK(model_ != nullptr, "no model — call create_model first "
                                "(train_ddp trains the engine's spec from "
                                "fresh per-worker replicas)");
  const ModelSpec spec = spec_;
  // Dispatch on the resolved execution mode: "procs" runs the supervised
  // multi-process backend (proc_ddp.cpp), "threads" the in-process one —
  // resolve() rejects anything else. Both initialize replicas from
  // Rng(config.seed) through the same factories and share one epoch
  // driver, so the two modes are bit-identical.
  distributed::DdpResult result;
  if (distributed::resolve(config, config_).mode == "procs") {
    result = distributed::train_ddp_procs(spec, data, config, config_);
  } else {
    // Replicas are built exactly the way distributed::train_ddp builds
    // them: one factory invocation per worker, each drawing the initial
    // weights from the Rng the trainer seeds — so results are bit-identical
    // to a caller passing this same factory to the free function.
    result = distributed::train_ddp(
        [&](Rng& rng) {
          return spec.framework == "dense"
                     ? models::make_dense_model(
                           spec.family, data.num_entities(),
                           data.num_relations(), spec.config, rng)
                     : models::make_sparse_model(
                           spec.family, data.num_entities(),
                           data.num_relations(), spec.config, rng);
        },
        data, config, config_);
  }
  // Adopt the trained replica as the engine's model.
  model_ = std::move(result.model);
  num_entities_ = data.num_entities();
  num_relations_ = data.num_relations();
  return result;
}

namespace {

/// Cheap content identity for a dataset's evaluation inputs: vocabulary
/// sizes plus every test triplet (the cached candidate batches are a pure
/// function of exactly these). Never a pointer — addresses get recycled.
std::uint64_t eval_identity(const kg::Dataset& dataset) {
  TripletHash h;
  std::uint64_t acc =
      0x9E3779B97F4A7C15ULL ^
      (static_cast<std::uint64_t>(dataset.num_entities()) * 0x100000001B3ULL) ^
      static_cast<std::uint64_t>(dataset.num_relations());
  for (const Triplet& t : dataset.test.triplets())
    acc = (acc * 0x100000001B3ULL) ^ h(t);
  return acc == 0 ? 1 : acc;  // 0 is the "no cache yet" sentinel
}

}  // namespace

eval::RankingMetrics Engine::evaluate(const kg::Dataset& dataset,
                                      const eval::EvalConfig& config) {
  eval::EvalConfig resolved = config;
  if (resolved.plan_cache == nullptr &&
      config_.flag_or("SPTX_EVAL_PLAN_CACHE", false)) {
    const std::uint64_t fingerprint = eval_identity(dataset);
    if (eval_fingerprint_ != fingerprint) {
      eval_plans_ = std::make_unique<sparse::PlanCache>();
      eval_fingerprint_ = fingerprint;
    }
    resolved.plan_cache = eval_plans_.get();
  }
  return eval::evaluate(model(), dataset, resolved);
}

std::shared_ptr<const models::KgeModel> Engine::freeze() {
  return models::freeze(model(), spec_);
}

std::shared_ptr<serve::InferenceSession> Engine::open_session(
    const serve::SessionOptions& options) {
  const serve::SessionOptions resolved = serve::resolve(options, config_);
  auto snapshot = serve::make_serving_snapshot(
      freeze(), resolved.ann, resolved.ann_min_entities,
      models::next_snapshot_version());
  auto session =
      std::make_shared<serve::InferenceSession>(std::move(snapshot), resolved);
  MutexLock lock(sessions_mu_);
  sessions_.erase(std::remove_if(sessions_.begin(), sessions_.end(),
                                 [](const auto& w) { return w.expired(); }),
                  sessions_.end());
  sessions_.push_back(session);
  return session;
}

std::uint64_t Engine::publish(const serve::SessionOptions& options) {
  const serve::SessionOptions resolved = serve::resolve(options, config_);
  // Freeze + index build happen HERE, on the publisher's thread — live
  // sessions keep answering from the old snapshot the whole time. Only the
  // final pointer flip is visible to them.
  const models::VersionedModel frozen = models::freeze_versioned(model(), spec_);
  auto snapshot = serve::make_serving_snapshot(
      frozen.model, resolved.ann, resolved.ann_min_entities, frozen.version);
  // Fan-out holds the registry lock so a session opened concurrently either
  // registers before the sweep (and receives this snapshot) or opens after
  // (and freezes the same newest weights on open).
  MutexLock lock(sessions_mu_);
  for (const auto& weak : sessions_)
    if (auto session = weak.lock()) session->install(snapshot);
  published_version_ = frozen.version;
  ++publishes_;
  return frozen.version;
}

namespace {

void json_escape_into(std::ostringstream& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
}

}  // namespace

std::string Engine::health_json() const {
  // Aggregate serving traffic over the sessions still alive. The registry
  // is snapshotted under its lock; the sessions themselves are queried
  // outside it (they are independently thread-safe, and holding the
  // registry lock across their stats() calls would serialize the health
  // probe against publish() for no benefit).
  std::vector<std::shared_ptr<serve::InferenceSession>> live_sessions;
  std::uint64_t published_version = 0;
  std::int64_t publishes = 0;
  {
    MutexLock lock(sessions_mu_);
    live_sessions.reserve(sessions_.size());
    for (const auto& weak : sessions_)
      if (auto session = weak.lock())
        live_sessions.push_back(std::move(session));
    published_version = published_version_;
    publishes = publishes_;
  }
  int live = 0;
  serve::SessionStats total;
  for (const auto& session : live_sessions) {
    ++live;
    const serve::SessionStats s = session->stats();
    total.queries += s.queries;
    total.triplets_scored += s.triplets_scored;
    total.rejected += s.rejected;
    total.topk_ann += s.topk_ann;
    total.topk_brute += s.topk_brute;
    total.ann_candidates += s.ann_candidates;
    total.installs += s.installs;
    total.batcher.rejected_queue_full += s.batcher.rejected_queue_full;
    total.batcher.rejected_deadline += s.batcher.rejected_deadline;
    total.batcher.shed_expired += s.batcher.shed_expired;
    total.batcher.batches_executed += s.batcher.batches_executed;
    total.batcher.coalesced_requests += s.batcher.coalesced_requests;
  }
  const bool faults = fault::active();
  const bool degraded =
      faults || total.rejected > 0 || total.batcher.rejected_queue_full > 0 ||
      total.batcher.rejected_deadline > 0;

  std::ostringstream out;
  out << "{\n  \"status\": \"" << (degraded ? "degraded" : "ok") << "\",\n";
  out << "  \"model\": {\"loaded\": " << (model_ ? "true" : "false");
  if (model_) {
    out << ", \"family\": \"";
    json_escape_into(out, spec_.family);
    out << "\", \"framework\": \"";
    json_escape_into(out, spec_.framework);
    out << "\", \"entities\": " << num_entities_
        << ", \"relations\": " << num_relations_;
  }
  out << "},\n";
  out << "  \"fault_injection\": {\"active\": " << (faults ? "true" : "false")
      << ", \"spec\": \"";
  json_escape_into(out, fault::spec());
  out << "\"},\n";
  // The shared task runtime's gauges: pool mode/width, live queue depth,
  // steal ratio, and per-class submitted/executed/stolen counts — an
  // oversubscribed or starved pool is visible from `sptx health` without
  // attaching a profiler.
  out << "  \"runtime\": " << runtime::TaskPool::instance().stats_json()
      << ",\n";
  // Multi-process DDP: worker liveness, respawn traffic, per-rank heartbeat
  // ages and transport totals for the current (or last) procs-mode run —
  // the operator's first stop when a distributed run degrades (see the
  // README's reliability runbook).
  out << "  \"ddp\": " << distributed::ddp_health_json() << ",\n";
  out << "  \"serving\": {\"sessions_open\": " << live
      << ", \"queries\": " << total.queries
      << ", \"triplets_scored\": " << total.triplets_scored
      << ", \"rejected\": " << total.rejected
      << ", \"rejected_queue_full\": " << total.batcher.rejected_queue_full
      << ", \"rejected_deadline\": " << total.batcher.rejected_deadline
      << ", \"shed_expired\": " << total.batcher.shed_expired
      << ", \"batches_executed\": " << total.batcher.batches_executed
      << ", \"coalesced_requests\": " << total.batcher.coalesced_requests
      << ", \"topk_ann\": " << total.topk_ann
      << ", \"topk_brute\": " << total.topk_brute
      << ", \"ann_candidates\": " << total.ann_candidates
      << ", \"installs\": " << total.installs
      << ", \"published_version\": " << published_version
      << ", \"publishes\": " << publishes << "},\n";
  // Process-wide structural-event counters, printed under their stable
  // names (profiling::kCounterNames — the lint keeps enum and table
  // aligned).
  out << "  \"counters\": {";
  for (int c = 0; c < static_cast<int>(profiling::Counter::kNumCounters);
       ++c) {
    const auto counter = static_cast<profiling::Counter>(c);
    if (c > 0) out << ", ";
    out << '"' << profiling::counter_name(counter)
        << "\": " << profiling::counter_value(counter);
  }
  out << "}\n}";
  return out.str();
}

}  // namespace sptx
