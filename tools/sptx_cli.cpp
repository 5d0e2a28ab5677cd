// sptx — command-line interface to the SparseTransX library, built on the
// sptx::Engine facade.
//
//   sptx train  --data triples.tsv --model TransE --epochs 200
//               --dim 128 --lr 0.0004 --save model.sptxc
//   sptx train  --profile FB15K --scale 0.01 --model TransR ...
//   sptx eval   --data triples.tsv --model TransE --load model.sptxc
//   sptx query  --profile FB15K --model TransE --load model.sptxc
//               --head 17 --relation 3 --top 10
//   sptx serve  --profile FB15K --model TransE [--load ckpt]
//               --threads 4 --queries 2000       (throughput smoke test)
//   sptx config [--json 1]                       (the SPTX_* registry)
//   sptx info   --data triples.tsv               (dataset statistics)
//   sptx profiles                                (the paper's Table 3)
//
// Data sources: --data <file.tsv|file.csv|file.sptx> loads a real dataset
// (format by extension); --profile <NAME> [--scale s] generates the
// synthetic equivalent of a Table 3 dataset.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/api/engine.hpp"
#include "src/common/cli_args.hpp"
#include "src/distributed/proc_ddp.hpp"
#include "src/kg/synthetic.hpp"
#include "src/profiling/timer.hpp"

namespace {

using namespace sptx;
using cli::Args;

kg::Dataset load_dataset(const Args& args) {
  if (args.has("profile")) {
    Rng rng(static_cast<std::uint64_t>(args.num("seed", 42)));
    const auto profile = kg::scaled(kg::profile_by_name(args.get("profile", "")),
                                    args.num("scale", 0.01));
    return kg::generate(profile, rng);
  }
  const std::string path = args.get("data", "");
  SPTX_CHECK(!path.empty(), "need --data <file> or --profile <NAME>");
  kg::Dataset ds;
  if (path.size() > 5 && path.substr(path.size() - 5) == ".sptx") {
    ds = kg::Dataset::load_binary(path);
  } else if (path.size() > 4 && path.substr(path.size() - 4) == ".csv") {
    ds = kg::load_csv(path, path);
  } else {
    ds = kg::load_tsv(path, path);
  }
  if (ds.test.empty()) {
    Rng rng(static_cast<std::uint64_t>(args.num("seed", 42)));
    ds = kg::split(std::move(ds), args.num("valid-frac", 0.05),
                   args.num("test-frac", 0.1), rng);
  }
  return ds;
}

ModelSpec build_spec(const Args& args) {
  ModelSpec spec;
  spec.family = args.get("model", "TransE");
  spec.framework = args.get("framework", "sparse");
  spec.config.dim = static_cast<index_t>(args.num("dim", 128));
  spec.config.rel_dim = static_cast<index_t>(args.num("rel-dim",
                                                      spec.config.dim));
  spec.config.margin = static_cast<float>(args.num("margin", 0.5));
  spec.config.dissimilarity = args.get("dissimilarity", "l2") == "l1"
                                  ? models::Dissimilarity::kL1
                                  : models::Dissimilarity::kL2;
  spec.config.loss = args.get("loss", "margin") == "logistic"
                         ? models::LossType::kLogistic
                         : models::LossType::kMarginRanking;
  spec.config.normalize_entities = args.num("normalize", 1) != 0;
  spec.seed = static_cast<std::uint64_t>(args.num("seed", 42)) + 1;
  return spec;
}

/// Engine options from the args. --ann / --nprobe / --ann-min-entities
/// become registry overrides so every session the engine opens resolves
/// them uniformly (and `sptx config` run under the same env shows
/// identical values).
Engine::Options engine_options(const Args& args) {
  Engine::Options eo;
  if (args.has("ann"))
    eo.config_overrides.emplace_back("SPTX_ANN", args.get("ann", "auto"));
  if (args.has("nprobe"))
    eo.config_overrides.emplace_back("SPTX_ANN_NPROBE",
                                     args.get("nprobe", "0"));
  if (args.has("ann-min-entities"))
    eo.config_overrides.emplace_back("SPTX_ANN_MIN_ENTITIES",
                                     args.get("ann-min-entities", "4096"));
  return eo;
}

/// Give `engine` the model the args describe, checkpoint-restored when
/// --load was given. (Two steps instead of returning an Engine by value:
/// the Engine owns a mutex and is intentionally immovable.)
void init_model(Engine& engine, const Args& args, const kg::Dataset& ds) {
  const ModelSpec spec = build_spec(args);
  if (args.has("load")) {
    engine.load_model(spec, ds.num_entities(), ds.num_relations(),
                      args.get("load", ""));
  } else {
    engine.create_model(spec, ds.num_entities(), ds.num_relations());
  }
}

void print_metrics(const eval::RankingMetrics& m) {
  std::printf("  queries %lld  Hits@1 %.4f  Hits@3 %.4f  Hits@10 %.4f  "
              "MRR %.4f  MR %.1f\n",
              static_cast<long long>(m.queries), m.hits_at_1, m.hits_at_3,
              m.hits_at_10, m.mrr, m.mean_rank);
}

/// `sptx train --ddp-workers N [--ddp-mode threads|procs] ...` — sharded
/// data-parallel training through Engine::train_ddp. In procs mode the
/// supervisor fork+execs this binary's hidden `ddp-worker` verb, so
/// worker_exec is our own executable.
int run_ddp_train(Engine& engine, const Args& args, const kg::Dataset& ds) {
  distributed::DdpConfig dc;
  dc.workers = static_cast<int>(args.num("ddp-workers", 4));
  dc.epochs = static_cast<int>(args.num("epochs", 10));
  dc.batch_size = static_cast<index_t>(args.num("batch", 4096));
  dc.shard_size = static_cast<index_t>(args.num("ddp-shard", 0));
  dc.lr = static_cast<float>(args.num("lr", 0.0004));
  dc.seed = static_cast<std::uint64_t>(args.num("seed", 42));
  dc.mode = args.get("ddp-mode", "threads");
  dc.policy = args.get("ddp-policy", "strict");
  dc.heartbeat_ms = static_cast<int>(args.num("ddp-heartbeat-ms", 1000));
  dc.max_worker_retries = static_cast<int>(args.num("ddp-retries", 1));
  dc.checkpoint_path = args.get("checkpoint", "");
  dc.checkpoint_every = static_cast<int>(
      args.num("checkpoint-every", dc.checkpoint_path.empty() ? 0 : 10));
  dc.checkpoint_keep = static_cast<int>(args.num("checkpoint-keep", 3));
  dc.resume_from = args.get("resume", "");
  dc.worker_exec = "/proc/self/exe";
  const int log_every = std::max(dc.epochs / 10, 1);
  dc.on_epoch = [&](int epoch, float loss) {
    if (epoch % log_every == 0)
      std::printf("  epoch %4d  loss %.6f\n", epoch, loss);
  };

  const auto result = engine.train_ddp(ds.train, dc);
  if (result.start_epoch > 0)
    std::printf("resumed from epoch %d (%s)\n", result.start_epoch,
                dc.resume_from.c_str());
  std::printf("ddp-trained %s in %.2fs: %d workers, shard %lld, "
              "%lld shards executed\n",
              engine.model().name().c_str(), result.total_seconds,
              result.workers, static_cast<long long>(result.shard_size),
              static_cast<long long>(result.shards_executed));
  if (result.workers_lost > 0 || result.workers_respawned > 0)
    std::printf("  fault tolerance: %d worker(s) lost, %d respawned, "
                "%lld shard(s) re-run on the supervisor\n",
                result.workers_lost, result.workers_respawned,
                static_cast<long long>(result.shards_reassigned));
  if (result.transport_frames > 0)
    std::printf("  transport: %lld frames, %.1f MB, %lld injected retries\n",
                static_cast<long long>(result.transport_frames),
                static_cast<double>(result.transport_bytes) /
                    (1024.0 * 1024.0),
                static_cast<long long>(result.transport_retries));
  if (result.checkpoints_written > 0)
    std::printf("wrote %d checkpoint(s), newest %s\n",
                result.checkpoints_written, result.last_checkpoint.c_str());

  if (args.has("save")) {
    engine.save(args.get("save", ""));
    std::printf("checkpoint written to %s\n", args.get("save", "").c_str());
  }
  if (!ds.test.empty() && args.num("eval", 1) != 0) {
    eval::EvalConfig ec;
    ec.max_queries =
        static_cast<std::int64_t>(args.num("max-queries", 200));
    std::printf("filtered link prediction on test split:\n");
    print_metrics(engine.evaluate(ds, ec));
  }
  return 0;
}

/// Hidden verb: what the DDP supervisor fork+execs. Not part of the user
/// surface (absent from usage()) — arguments come from proc_ddp.cpp's
/// spawn(), never a human.
int cmd_ddp_worker(const Args& args) {
  distributed::WorkerEndpoint endpoint;
  endpoint.socket_path = args.get("connect", "");
  endpoint.rank = static_cast<int>(args.num("rank", 0));
  endpoint.shm_fd = static_cast<int>(args.num("shm-fd", -1));
  endpoint.shm_bytes = static_cast<std::int64_t>(args.num("shm-bytes", 0));
  SPTX_CHECK(!endpoint.socket_path.empty(),
             "ddp-worker needs --connect <socket>");
  return distributed::ddp_worker_main(endpoint);
}

int cmd_train(const Args& args) {
  const kg::Dataset ds = load_dataset(args);
  std::printf("dataset %s: %lld entities, %lld relations, %lld/%lld/%lld "
              "train/valid/test\n",
              ds.name.c_str(), static_cast<long long>(ds.num_entities()),
              static_cast<long long>(ds.num_relations()),
              static_cast<long long>(ds.train.size()),
              static_cast<long long>(ds.valid.size()),
              static_cast<long long>(ds.test.size()));
  Engine engine(engine_options(args));
  init_model(engine, args, ds);
  if (args.has("ddp-workers") || args.has("ddp-mode"))
    return run_ddp_train(engine, args, ds);

  train::TrainConfig tc;
  tc.epochs = static_cast<int>(args.num("epochs", 200));
  tc.batch_size = static_cast<index_t>(args.num("batch", 32768));
  tc.lr = static_cast<float>(args.num("lr", 0.0004));
  tc.use_adagrad = args.get("optimizer", "sgd") == "adagrad";
  tc.negatives_per_positive = static_cast<int>(args.num("negatives", 1));
  tc.resample_negatives = args.num("resample-negatives", 0) != 0;
  tc.corruption = args.get("corruption", "uniform") == "bernoulli"
                      ? kg::CorruptionScheme::kBernoulli
                      : kg::CorruptionScheme::kUniform;
  tc.shuffle = args.num("shuffle", 0) != 0;
  tc.weight_decay = static_cast<float>(args.num("weight-decay", 0.0));
  tc.grad_clip_norm = static_cast<float>(args.num("clip-norm", 0.0));
  tc.patience = static_cast<int>(args.num("patience", 0));
  tc.seed = static_cast<std::uint64_t>(args.num("seed", 42));
  // Crash safety: --checkpoint <base> rotates atomic training checkpoints
  // every --checkpoint-every epochs; --resume continues a trajectory
  // bit-identically from a base path (newest rotation) or explicit file.
  tc.checkpoint_path = args.get("checkpoint", "");
  tc.checkpoint_every = static_cast<int>(
      args.num("checkpoint-every", tc.checkpoint_path.empty() ? 0 : 10));
  tc.checkpoint_keep = static_cast<int>(args.num("checkpoint-keep", 3));
  tc.resume_from = args.get("resume", "");
  const int log_every = std::max(tc.epochs / 10, 1);

  const auto result =
      engine.train(ds.train, tc, [&](int epoch, float loss) {
        if (epoch % log_every == 0)
          std::printf("  epoch %4d  loss %.6f\n", epoch, loss);
      });
  if (result.start_epoch > 0)
    std::printf("resumed from epoch %d (%s)\n", result.start_epoch,
                tc.resume_from.c_str());
  if (result.checkpoints_written > 0)
    std::printf("wrote %d checkpoint(s), newest %s\n",
                result.checkpoints_written, result.last_checkpoint.c_str());
  std::printf("trained %s in %.2fs (fwd %.2fs, bwd %.2fs, step %.2fs, "
              "post_step %.2fs); peak %.1f MB, %.2f GFLOP\n",
              engine.model().name().c_str(), result.total_seconds,
              result.phases.forward_s, result.phases.backward_s,
              result.phases.step_s, result.phases.post_step_s,
              static_cast<double>(result.peak_bytes) / (1024.0 * 1024.0),
              static_cast<double>(result.flops) / 1e9);

  if (args.has("save")) {
    engine.save(args.get("save", ""));
    std::printf("checkpoint written to %s\n", args.get("save", "").c_str());
  }
  if (!ds.test.empty() && args.num("eval", 1) != 0) {
    eval::EvalConfig ec;
    ec.max_queries =
        static_cast<std::int64_t>(args.num("max-queries", 200));
    std::printf("filtered link prediction on test split:\n");
    print_metrics(engine.evaluate(ds, ec));
  }
  return 0;
}

int cmd_eval(const Args& args) {
  const kg::Dataset ds = load_dataset(args);
  SPTX_CHECK(args.has("load"), "eval needs --load <checkpoint>");
  Engine engine(engine_options(args));
  init_model(engine, args, ds);
  eval::EvalConfig ec;
  ec.max_queries = static_cast<std::int64_t>(args.num("max-queries", 0));
  ec.filtered = args.num("filtered", 1) != 0;
  std::printf("%s on %s:\n", engine.model().name().c_str(), ds.name.c_str());
  print_metrics(engine.evaluate(ds, ec));
  if (args.num("by-category", 0) != 0) {
    const auto by_cat = eval::evaluate_by_category(engine.model(), ds, ec);
    for (int c = 0; c < 4; ++c) {
      std::printf("  [%s]", eval::to_string(
                                static_cast<eval::RelationCategory>(c)));
      print_metrics(by_cat.by_category[c]);
    }
  }
  return 0;
}

const char* type_name(ConfigType type) {
  switch (type) {
    case ConfigType::kFlag:
      return "flag";
    case ConfigType::kInt:
      return "int";
    case ConfigType::kDouble:
      return "double";
    case ConfigType::kEnum:
      return "enum";
    case ConfigType::kString:
      return "string";
  }
  return "?";
}

int cmd_config(const Args& args) {
  const RuntimeConfig rc = RuntimeConfig::from_env();
  if (args.num("json", 0) != 0) {
    std::printf("%s\n", rc.to_json().c_str());
    return 0;
  }
  std::printf("%-24s %-7s %-14s %-8s %s\n", "knob", "type", "value", "origin",
              "doc");
  for (const ConfigSpec& spec : RuntimeConfig::specs()) {
    const std::string name(spec.name);
    std::string value = rc.value_or(name, "");
    if (value.empty()) value = "(unset)";
    std::string doc(spec.doc);
    if (!spec.choices.empty())
      doc += " [" + std::string(spec.choices) + "]";
    std::printf("%-24s %-7s %-14s %-8s %s\n", name.c_str(),
                type_name(spec.type), value.c_str(),
                to_string(rc.origin(name)), doc.c_str());
  }
  return 0;
}

void print_predictions(const kg::Dataset& ds,
                       const std::vector<serve::Prediction>& predictions,
                       bool is_tail) {
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    const auto& p = predictions[i];
    const auto e = static_cast<std::size_t>(p.entity);
    const std::string name = e < ds.entity_names.size()
                                 ? ds.entity_names[e]
                                 : std::to_string(p.entity);
    std::printf("  %2zu. %s %-24s score %.4f\n", i + 1,
                is_tail ? "tail" : "head", name.c_str(), p.score);
  }
}

int cmd_query(const Args& args) {
  const kg::Dataset ds = load_dataset(args);
  SPTX_CHECK(args.has("load"), "query needs --load <checkpoint>");
  SPTX_CHECK(args.has("relation"), "query needs --relation <id>");
  Engine engine(engine_options(args));
  init_model(engine, args, ds);

  serve::SessionOptions so;
  if (args.num("filtered", 1) != 0) so.filter = &ds.train;
  auto session = engine.open_session(so);
  const auto relation = static_cast<std::int64_t>(args.num("relation", 0));
  const int k = static_cast<int>(args.num("top", 10));

  if (args.has("head") && args.has("tail")) {
    // Full triple: score it and rank the tail among all entities.
    const Triplet t{static_cast<std::int64_t>(args.num("head", 0)), relation,
                    static_cast<std::int64_t>(args.num("tail", 0))};
    std::printf("score(%lld, %lld, %lld) = %.4f   filtered tail-rank %.1f\n",
                static_cast<long long>(t.head),
                static_cast<long long>(t.relation),
                static_cast<long long>(t.tail), session->score_one(t),
                session->rank(t, /*corrupt_tail=*/true));
  } else if (args.has("head")) {
    const auto head = static_cast<std::int64_t>(args.num("head", 0));
    std::printf("top-%d tails for (%lld, %lld, ?):\n", k,
                static_cast<long long>(head),
                static_cast<long long>(relation));
    print_predictions(ds, session->top_tails(head, relation, k), true);
  } else if (args.has("tail")) {
    const auto tail = static_cast<std::int64_t>(args.num("tail", 0));
    std::printf("top-%d heads for (?, %lld, %lld):\n", k,
                static_cast<long long>(relation),
                static_cast<long long>(tail));
    print_predictions(ds, session->top_heads(relation, tail, k), false);
  } else {
    throw Error("query needs --head and/or --tail");
  }
  return 0;
}

/// Multi-threaded serving throughput smoke test: T threads drive one
/// shared session with a mixed query load (small batch scores + periodic
/// top-k), then the counters and QPS are reported. Exercises exactly the
/// concurrent path CI's ASan job needs to see under instrumentation.
int cmd_serve(const Args& args) {
  const kg::Dataset ds = load_dataset(args);
  Engine engine(engine_options(args));
  init_model(engine, args, ds);
  if (!args.has("load")) {
    // No checkpoint: warm the model with a short training run so the
    // served scores are not pure noise.
    train::TrainConfig tc;
    tc.epochs = static_cast<int>(args.num("epochs", 2));
    tc.batch_size = static_cast<index_t>(args.num("batch", 4096));
    tc.seed = static_cast<std::uint64_t>(args.num("seed", 42));
    engine.train(ds.train, tc);
  }

  serve::SessionOptions so;
  so.micro_batch = args.num("microbatch", 1) != 0;
  so.window_us = static_cast<int>(args.num("window-us", 0));
  so.queue_limit = static_cast<index_t>(args.num("queue-limit", 0));
  so.deadline_us = static_cast<std::int64_t>(args.num("deadline-us", 0));
  so.max_concurrency = static_cast<int>(args.num("concurrency", 0));
  auto session = engine.open_session(so);

  const int threads = static_cast<int>(args.num("threads", 4));
  const auto queries = static_cast<std::int64_t>(args.num("queries", 2000));
  const auto batch = static_cast<std::size_t>(args.num("query-batch", 8));
  const int top_k = static_cast<int>(args.num("top", 10));
  const int publishes = static_cast<int>(args.num("publishes", 0));
  SPTX_CHECK(threads >= 1 && queries >= 1, "bad serve load shape");

  std::atomic<std::int64_t> scored{0};
  std::atomic<std::int64_t> shed_queue{0}, shed_deadline{0};
  std::atomic<bool> done{false};
  const auto t0 = profiling::clock::now();

  // --publishes N: hot-swap N fresh snapshots into the live session while
  // the query threads hammer it — the zero-downtime publication drill.
  std::thread publisher;
  if (publishes > 0) {
    publisher = std::thread([&] {
      for (int p = 0; p < publishes && !done.load(); ++p) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        engine.publish();
      }
    });
  }

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int w = 0; w < threads; ++w) {
    pool.emplace_back([&, w] {
      Rng rng(static_cast<std::uint64_t>(1000 + w));
      std::vector<Triplet> q(batch);
      for (std::int64_t i = 0; i < queries; ++i) {
        if (i % 64 == 63) {
          // Every 64th query is a top-k prediction (the heavy path).
          const auto h = static_cast<std::int64_t>(
              rng.next_below(static_cast<std::uint64_t>(ds.num_entities())));
          const auto r = static_cast<std::int64_t>(
              rng.next_below(static_cast<std::uint64_t>(ds.num_relations())));
          session->top_tails(h, r, top_k);
          scored.fetch_add(1, std::memory_order_relaxed);
        } else {
          for (auto& t : q) {
            t.head = static_cast<std::int64_t>(rng.next_below(
                static_cast<std::uint64_t>(ds.num_entities())));
            t.relation = static_cast<std::int64_t>(rng.next_below(
                static_cast<std::uint64_t>(ds.num_relations())));
            t.tail = static_cast<std::int64_t>(rng.next_below(
                static_cast<std::uint64_t>(ds.num_entities())));
          }
          // Deadline-aware path: overload (or injected serve_queue faults)
          // sheds with a typed rejection instead of throwing mid-thread.
          switch (session->try_score(q).rejected) {
            case serve::RejectReason::kNone:
              scored.fetch_add(1, std::memory_order_relaxed);
              break;
            case serve::RejectReason::kQueueFull:
              shed_queue.fetch_add(1, std::memory_order_relaxed);
              break;
            case serve::RejectReason::kDeadline:
              shed_deadline.fetch_add(1, std::memory_order_relaxed);
              break;
          }
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  done.store(true);
  if (publisher.joinable()) publisher.join();
  const double seconds = profiling::seconds_since(t0);

  const auto stats = session->stats();
  std::printf("served %lld queries on %d threads in %.3fs — %.0f queries/s\n",
              static_cast<long long>(scored.load()), threads, seconds,
              static_cast<double>(scored.load()) / seconds);
  if (shed_queue.load() > 0 || shed_deadline.load() > 0)
    std::printf("  degraded: %lld shed queue-full, %lld shed past-deadline\n",
                static_cast<long long>(shed_queue.load()),
                static_cast<long long>(shed_deadline.load()));
  std::printf("  micro-batch: %s — %lld requests in %lld executions "
              "(%lld coalesced), %lld triplets\n",
              so.micro_batch ? "on" : "off",
              static_cast<long long>(stats.batcher.requests),
              static_cast<long long>(stats.batcher.batches_executed),
              static_cast<long long>(stats.batcher.coalesced_requests),
              static_cast<long long>(stats.batcher.triplets));
  std::printf("  candidate plans: %lld hits, %lld misses, %lld resident\n",
              static_cast<long long>(stats.plans.hits),
              static_cast<long long>(stats.plans.misses),
              static_cast<long long>(stats.plans.entries));
  std::printf("  top-k: %lld via ANN (%lld candidates re-ranked), "
              "%lld brute-force\n",
              static_cast<long long>(stats.topk_ann),
              static_cast<long long>(stats.ann_candidates),
              static_cast<long long>(stats.topk_brute));
  if (publishes > 0)
    std::printf("  hot-swap: %lld installs, serving snapshot version %llu\n",
                static_cast<long long>(stats.installs),
                static_cast<unsigned long long>(stats.snapshot_version));
  return 0;
}

/// Operational health as JSON. Bare `sptx health` reports the process
/// surface (config + fault harness, no model); with a data source and
/// --load it also reports the loaded model, and --selftest N drives N
/// scoring queries through a session so the serving counters are live.
int cmd_health(const Args& args) {
  Engine engine;
  if (args.has("data") || args.has("profile")) {
    const kg::Dataset ds = load_dataset(args);
    const ModelSpec spec = build_spec(args);
    if (args.has("load")) {
      engine.load_model(spec, ds.num_entities(), ds.num_relations(),
                        args.get("load", ""));
    } else {
      engine.create_model(spec, ds.num_entities(), ds.num_relations());
    }
    const auto selftest = static_cast<std::int64_t>(args.num("selftest", 0));
    if (selftest > 0) {
      auto session = engine.open_session({});
      Rng rng(7);
      for (std::int64_t i = 0; i < selftest; ++i) {
        const Triplet t{
            static_cast<std::int64_t>(rng.next_below(
                static_cast<std::uint64_t>(ds.num_entities()))),
            static_cast<std::int64_t>(rng.next_below(
                static_cast<std::uint64_t>(ds.num_relations()))),
            static_cast<std::int64_t>(rng.next_below(
                static_cast<std::uint64_t>(ds.num_entities())))};
        session->try_score(std::span<const Triplet>(&t, 1),
                           args.num("deadline-us", 0));
      }
      std::printf("%s\n", engine.health_json().c_str());
      return 0;
    }
  }
  std::printf("%s\n", engine.health_json().c_str());
  return 0;
}

int cmd_info(const Args& args) {
  const kg::Dataset ds = load_dataset(args);
  std::printf("%s\n", ds.name.c_str());
  std::printf("  entities  %lld\n", static_cast<long long>(ds.num_entities()));
  std::printf("  relations %lld\n",
              static_cast<long long>(ds.num_relations()));
  std::printf("  train     %lld\n", static_cast<long long>(ds.train.size()));
  std::printf("  valid     %lld\n", static_cast<long long>(ds.valid.size()));
  std::printf("  test      %lld\n", static_cast<long long>(ds.test.size()));
  const auto cats = eval::classify_relations(ds.train);
  int counts[4] = {0, 0, 0, 0};
  for (auto c : cats) counts[static_cast<int>(c)]++;
  std::printf("  relation categories: 1-1 %d, 1-N %d, N-1 %d, N-N %d\n",
              counts[0], counts[1], counts[2], counts[3]);
  return 0;
}

int cmd_profiles() {
  std::printf("%-10s %-10s %-10s %-12s\n", "dataset", "entities",
              "relations", "triplets");
  for (const auto& p : kg::paper_profiles()) {
    std::printf("%-10s %-10lld %-10lld %-12lld\n", p.name.c_str(),
                static_cast<long long>(p.entities),
                static_cast<long long>(p.relations),
                static_cast<long long>(p.triplets));
  }
  return 0;
}

void usage() {
  std::printf(
      "usage: sptx <train|eval|query|serve|health|config|info|profiles> "
      "[--option value ...]\n"
      "  data:   --data file.{tsv,csv,sptx} | --profile NAME --scale S\n"
      "  model:  --model TransE|TransR|TransH|TorusE|TransD|TransA|TransC|\n"
      "          TransM|DistMult|ComplEx|RotatE  --framework sparse|dense\n"
      "          --dim D --rel-dim D --margin M --dissimilarity l1|l2\n"
      "          --loss margin|logistic --normalize 0|1\n"
      "  train:  --epochs E --batch B --lr LR --optimizer sgd|adagrad\n"
      "          --negatives K --resample-negatives 0|1\n"
      "          --corruption uniform|bernoulli --save ckpt --load ckpt\n"
      "          --shuffle 0|1 --weight-decay L --clip-norm C --patience P\n"
      "          --checkpoint base --checkpoint-every N --checkpoint-keep K\n"
      "          --resume base|file.epN   (crash-safe rotated checkpoints)\n"
      "  ddp:    --ddp-workers N --ddp-mode threads|procs\n"
      "          --ddp-policy strict|degrade --ddp-heartbeat-ms MS\n"
      "          --ddp-retries R --ddp-shard S  (elastic multi-process DDP)\n"
      "  eval:   --load ckpt --max-queries Q --filtered 0|1 --by-category 1\n"
      "  query:  --load ckpt --relation R [--head H] [--tail T] --top K\n"
      "  serve:  [--load ckpt] --threads T --queries N --microbatch 0|1\n"
      "          --window-us U --query-batch B --queue-limit Q\n"
      "          --deadline-us D --concurrency C  (graceful degradation)\n"
      "          --publishes N  (hot-swap N snapshots mid-run)\n"
      "  ann:    --ann auto|on|off --nprobe P --ann-min-entities N\n"
      "          (clustered top-k for query/serve; scores stay exact)\n"
      "  health: [--data|--profile ... --load ckpt --selftest N]\n"
      "          print the engine health surface as JSON\n"
      "  config: [--json 1]   print the SPTX_* runtime-config registry\n");
}

// "ddp-worker" is the hidden verb the DDP supervisor fork+execs — valid to
// dispatch, deliberately absent from usage().
constexpr std::string_view kCommands[] = {"train",  "eval",     "query",
                                          "serve",  "health",   "config",
                                          "info",   "profiles", "help",
                                          "ddp-worker"};

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = cli::parse_args(argc, argv);
    if (args.command.empty()) {
      usage();
      return 1;
    }
    if (!cli::known_command(args.command, kCommands)) {
      std::fprintf(stderr, "error: unknown command '%s'\n",
                   args.command.c_str());
      usage();
      return 1;
    }
    if (args.command == "ddp-worker") return cmd_ddp_worker(args);
    if (args.command == "train") return cmd_train(args);
    if (args.command == "eval") return cmd_eval(args);
    if (args.command == "query") return cmd_query(args);
    if (args.command == "serve") return cmd_serve(args);
    if (args.command == "health") return cmd_health(args);
    if (args.command == "config") return cmd_config(args);
    if (args.command == "info") return cmd_info(args);
    if (args.command == "profiles") return cmd_profiles();
    usage();
    return 0;  // help
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
