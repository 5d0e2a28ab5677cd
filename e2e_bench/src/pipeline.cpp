#include "pipeline.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "report.hpp"
#include "roofline.hpp"
#include "serve_load.hpp"
#include "src/api/engine.hpp"
#include "src/common/cpu_features.hpp"
#include "src/kg/synthetic.hpp"
#include "src/runtime/task_pool.hpp"
#include "src/tensor/memory_tracker.hpp"
#include "traced_train.hpp"

namespace e2e {

using namespace sptx;

namespace {

/// One workload. Every workload runs the whole pipeline so it can report
/// every end-to-end metric; they differ in what the measured time is spent
/// on (see BENCHMARK.json for why each was chosen). The model is TransE,
/// d = 64, throughout.
struct Workload {
  const char* name;
  bool ddp;             // Engine::train_ddp in procs mode + baseline
  int epochs;
  index_t batch;
  bool adagrad;         // else plain SGD
  float lr;
  double serve_share;   // of --seconds, spent serving (eval comes on top)
};

// DDP is plain SGD on the batch-mean loss, so at batch 32768 it needs a
// large step to learn anything in a few epochs; 3000 does. Its training
// takes longer, so it serves for a smaller share of the run.
const Workload kWorkloads[] = {
    {"train-transe", false, 8, 4096, true, 0.1f, 0.62},
    {"ddp-procs", true, 4, 32768, false, 3000.0f, 0.54},
};

constexpr index_t kDim = 64;
constexpr int kSetupReps = 3;
constexpr int kDdpWorkers = 2;
constexpr double kRandomMrrFactor = 5.0;    // mrr must beat random by this
constexpr double kAnnRecallFloor = 0.9;     // top-10 recall vs brute force
constexpr int kRecallQueries = 64;
constexpr std::size_t kServeKeys = 2000;    // Zipf key universe
constexpr double kRefRate = 1000.0;         // req/s, reference and write
constexpr double kP99LimitUs = 100000.0;
constexpr double kPublishEveryS = 2.0;
constexpr double kGenLagShare = 0.2;  // of the p99 limit
// Interleaved eval + serving rounds; the serving time splits into
// reference windows, capacity probes and one closing write phase.
constexpr int kRounds = 24;
constexpr std::int64_t kEvalChunkQueries = 100;  // per round, both sides
constexpr int kProbesPerRound = 2;
constexpr double kRefShare = 0.35;
constexpr double kProbeShare = 0.53;
constexpr double kWriteShare = 0.12;
constexpr double kWarmUpSeconds = 0.3;
constexpr double kTraceServeScale = 0.5;
// Passing probes the staircase must have tracked for serve_max_qps to be
// a median rather than a guess.
constexpr int kMinTrackedPasses = 8;
constexpr std::size_t kTriadBytes = 16u << 20;

/// What one set-up repetition builds.
struct Stage {
  kg::Dataset ds;
  std::unique_ptr<Engine> trainer;
  std::unique_ptr<Engine> server;
  TripletStore known;  // every split: the serving filter
  std::shared_ptr<serve::InferenceSession> session;
  double generate_s = 0.0, save_s = 0.0, load_s = 0.0, open_s = 0.0;
  double total_s = 0.0;
};

models::ModelSpec make_spec(std::uint64_t seed) {
  models::ModelSpec spec;
  spec.family = "TransE";
  spec.config.dim = kDim;
  spec.seed = seed + 1;
  return spec;
}

serve::SessionOptions session_options(const TripletStore& known) {
  serve::SessionOptions so;
  so.filter = &known;
  return so;
}

Stage build_stage(const models::ModelSpec& spec, const Options& opt) {
  Stage st;
  const auto t0 = Clock::now();
  auto t = Clock::now();
  Rng rng(opt.seed);
  st.ds = kg::generate(kg::scaled(kg::profile_by_name("FB15K"), 1.0), rng);
  st.generate_s = seconds_since(t);
  const index_t n = st.ds.num_entities(), r = st.ds.num_relations();

  st.trainer = std::make_unique<Engine>();
  st.trainer->create_model(spec, n, r);
  const std::string ckpt = opt.workdir + "/init.sptxc";
  t = Clock::now();
  st.trainer->save(ckpt);
  st.save_s = seconds_since(t);

  st.server = std::make_unique<Engine>();
  t = Clock::now();
  st.server->load_model(spec, n, r, ckpt);
  st.load_s = seconds_since(t);

  std::vector<Triplet> all;
  for (const TripletStore* s : {&st.ds.train, &st.ds.valid, &st.ds.test})
    all.insert(all.end(), s->triplets().begin(), s->triplets().end());
  st.known = TripletStore(n, r, std::move(all));
  t = Clock::now();
  st.session = st.server->open_session(session_options(st.known));
  st.open_s = seconds_since(t);
  st.total_s = seconds_since(t0);
  return st;
}

/// Median of the epochs after the first (which pays plan compilation,
/// worker spawn and cold caches).
double timed_epoch_s(const std::vector<double>& epoch_seconds) {
  if (epoch_seconds.size() < 2) return median(epoch_seconds);
  return median({epoch_seconds.begin() + 1, epoch_seconds.end()});
}

bool bit_identical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::string fmt(const char* format, double a, double b = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof buf, format, a, b);
  return buf;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux.
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

void print_context(const Options& opt, int lanes) {
  const CpuFeatures& cpu = cpu_features();
  std::printf(
      "context {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"build_type\": \"%s\", \"nproc\": %ld, \"lanes\": %d, "
      "\"cpu_features\": {\"avx2\": %s, \"fma\": %s, \"avx512f\": %s}}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, SPTX_E2E_BUILD_TYPE,
      sysconf(_SC_NPROCESSORS_ONLN), lanes, cpu.avx2 ? "true" : "false",
      cpu.fma ? "true" : "false", cpu.avx512f ? "true" : "false");
  std::fflush(stdout);
}

/// Per-layer numbers of one traced training run at `suffix` lanes, with
/// the computed costs and achieved rates against the triad bandwidth.
void report_traced(Report& rep, const TracedRun& tr, const EpochCosts& cost,
                   int epochs, double triad, const std::string& suffix) {
  struct Row {
    const char* name;
    double seconds;
    LayerCost per_epoch;
  };
  const Row rows[] = {
      {"nn.step", tr.step_s, cost.step},
      {"models.post_step", tr.post_step_s, cost.post_step},
      {"models.forward", tr.forward_s, cost.forward},
      {"autograd.backward", tr.backward_s, cost.backward},
  };
  for (const Row& row : rows) {
    const std::string n = row.name;
    const double gb = row.per_epoch.bytes * epochs / 1e9;
    const double gflop = row.per_epoch.flops * epochs / 1e9;
    rep.layer(n + "_s" + suffix, row.seconds, "s");
    if (suffix.empty()) {
      rep.layer(n + ".computed_gb", gb, "GB");
      rep.layer(n + ".computed_gflop", gflop, "GFLOP");
      rep.layer(n + ".achieved_gflops", ratio(gflop, row.seconds), "GFLOP/s");
    }
    rep.layer(n + ".achieved_gbps" + suffix, ratio(gb, row.seconds), "GB/s");
    rep.layer(n + ".triad_frac" + suffix, ratio(ratio(gb, row.seconds), triad),
              "ratio");
  }
  rep.layer("train.plan_compile_s" + suffix, tr.plan_compile_s, "s");
  rep.layer("train.traced_total_s" + suffix, tr.total_s, "s");
}

}  // namespace

int run_workload(const Options& opt) {
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads)
    if (opt.workload == cand.name) w = &cand;
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  Report rep(opt.trace);
  auto& pool = runtime::TaskPool::instance();
  const int lanes = pool.threads();
  print_context(opt, lanes);
  const models::ModelSpec spec = make_spec(opt.seed);

  // ---- set-up, repeated; the last repetition's objects are kept ---------
  // One unmeasured repetition first: it spawns the runtime pool's lanes,
  // which every later phase (and every later set-up) runs with.
  std::vector<double> setup_s, generate_s, save_s, load_s, open_s;
  Stage st = build_stage(spec, opt);
  for (int i = 0; i < kSetupReps; ++i) {
    st = Stage{};
    st = build_stage(spec, opt);
    setup_s.push_back(st.total_s);
    generate_s.push_back(st.generate_s);
    save_s.push_back(st.save_s);
    load_s.push_back(st.load_s);
    open_s.push_back(st.open_s);
  }
  const index_t n = st.ds.num_entities(), r = st.ds.num_relations();
  const std::int64_t m = st.ds.train.size();
  const std::int64_t batches_per_epoch = (m + w->batch - 1) / w->batch;

  // ---- train ------------------------------------------------------------
  train::TrainConfig tc;
  tc.epochs = w->epochs;
  tc.batch_size = w->batch;
  tc.lr = w->lr;
  tc.use_adagrad = w->adagrad;
  tc.seed = opt.seed + 2;
  MemoryTracker::instance().reset_peak();
  train::TrainResult seq;  // the workload's trainer, or the DDP baseline
  distributed::DdpResult ddp;
  std::vector<float> loss_curve;
  double epoch_s = 0.0;
  if (!w->ddp) {
    seq = train::train(st.trainer->model(), st.ds.train, tc,
                       st.trainer->config());
    loss_curve = seq.epoch_loss;
    epoch_s = timed_epoch_s(seq.epoch_seconds);
  } else {
    distributed::DdpConfig dc;
    dc.workers = kDdpWorkers;
    dc.epochs = w->epochs;
    dc.batch_size = w->batch;
    dc.lr = w->lr;
    dc.seed = tc.seed;
    dc.mode = "procs";
    // Generous liveness deadline: a loaded host must not read as a dead
    // worker.
    dc.heartbeat_ms = 5000;
    ddp = st.trainer->train_ddp(st.ds.train, dc);
    loss_curve = ddp.epoch_loss;
    epoch_s = timed_epoch_s(ddp.epoch_seconds);
    auto baseline = models::make_model(spec, n, r);
    seq = train::train(*baseline, st.ds.train, tc);
  }
  {
    const std::vector<double>& secs =
        w->ddp ? ddp.epoch_seconds : seq.epoch_seconds;
    std::printf("epoch_seconds");
    for (double e : secs) std::printf(" %.4f", e);
    std::printf("\n");
  }
  const double train_peak_mb =
      static_cast<double>(std::max<std::int64_t>(
          seq.peak_bytes, MemoryTracker::instance().peak())) / 1e6;

  rep.check("loss_decreases",
            loss_curve.size() >= 2 && loss_curve.back() < loss_curve.front(),
            fmt("epoch0 %.6f last %.6f",
                loss_curve.empty() ? 0.0 : loss_curve.front(),
                loss_curve.empty() ? 0.0 : loss_curve.back()));
  if (w->ddp) {
    rep.check("baseline_loss_decreases",
              seq.epoch_loss.size() >= 2 &&
                  seq.epoch_loss.back() < seq.epoch_loss.front(),
              fmt("epoch0 %.6f last %.6f", seq.epoch_loss.front(),
                  seq.epoch_loss.back()));
    if (ddp.shards_executed == 0)
      std::printf("finding ddp-procs DdpResult::shards_executed reads 0 after "
                  "%d epochs with %d worker processes: worker-side counters "
                  "are not merged into the supervisor\n",
                  w->epochs, ddp.workers);
  }

  // ---- traced training loop (per-layer split) -------------------------
  if (opt.trace) {
    auto traced_model = models::make_model(spec, n, r);
    const TracedRun tr = traced_train(*traced_model, st.ds.train, tc);
    rep.check("traced_loss_bit_identical",
              bit_identical(tr.epoch_loss, seq.epoch_loss),
              fmt("traced last %.9g untraced last %.9g",
                  tr.epoch_loss.empty() ? 0.0 : tr.epoch_loss.back(),
                  seq.epoch_loss.empty() ? 0.0 : seq.epoch_loss.back()));
    pool.resize(1);
    auto one_lane_model = models::make_model(spec, n, r);
    const TracedRun tr1 = traced_train(*one_lane_model, st.ds.train, tc);
    pool.resize(lanes);

    const double triad = triad_gbps(lanes, kTriadBytes);
    const double triad1 = triad_gbps(1, kTriadBytes);
    const EpochCosts cost = epoch_costs(*traced_model, m, batches_per_epoch,
                                        w->adagrad, kDim);
    rep.layer("host.triad_gbps", triad, "GB/s");
    rep.layer("host.triad_gbps.1lane", triad1, "GB/s");
    report_traced(rep, tr, cost, w->epochs, triad, "");
    report_traced(rep, tr1, cost, w->epochs, triad1, ".1lane");
    rep.layer("runtime.tasks_per_batch",
              ratio(static_cast<double>(tr.pool_tasks),
                    static_cast<double>(tr.batches)),
              "count");
    rep.layer("runtime.steal_ratio",
              ratio(static_cast<double>(tr.pool_stolen),
                    static_cast<double>(tr.pool_tasks)),
              "ratio");
    rep.layer("kg.negatives_s", tr.negatives_s, "s");
    // train::train's total excludes its negative pregeneration.
    rep.layer("trace.overhead_s",
              (tr.total_s - tr.negatives_s) - seq.total_seconds, "s");
    rep.layer("trace.lane_losses_identical",
              bit_identical(tr.epoch_loss, tr1.epoch_loss) ? 1.0 : 0.0,
              "bool");
    const auto& ps = seq.plan_stats;
    rep.layer("sparse.plan_hit_ratio",
              ratio(static_cast<double>(ps.hits),
                    static_cast<double>(ps.hits + ps.misses)),
              "ratio");
    rep.layer("sparse.incidence_builds",
              static_cast<double>(seq.incidence_builds), "count");
  }

  // ---- checkpoint, reload and publish the trained weights ----------------
  const std::string trained = opt.workdir + "/trained.sptxc";
  st.trainer->save(trained);
  st.server->load_model(spec, n, r, trained);
  const serve::SessionOptions so = session_options(st.known);
  const std::uint64_t version_before = st.session->snapshot_version();
  const auto t_publish = Clock::now();
  st.server->publish(so);
  const double first_publish_s = seconds_since(t_publish);
  rep.check("trained_weights_published",
            st.session->snapshot_version() != version_before, "");

  // ---- filtered eval and open-loop serving, interleaved ------------------
  // kRounds rounds, each one eval::evaluate call on the next slice of
  // kEvalChunkQueries test triples, one reference serving window and
  // kProbesPerRound capacity probes. Every figure is taken over all the
  // rounds, so each samples the whole stretch of the run rather than one
  // part of it, and a slow spell of the host moves a few rounds, not the
  // figure.
  // Each eval slice's dataset keeps the rest of the test split in `valid`,
  // so the filter (train ∪ valid ∪ test) is the full standard one.
  std::vector<Triplet> keys(st.ds.test.triplets().begin(),
                            st.ds.test.triplets().end());
  {
    Rng shuffle(opt.seed + 3);
    for (std::size_t i = keys.size(); i > 1; --i)
      std::swap(keys[i - 1], keys[shuffle.next_below(i)]);
    keys.resize(std::min(keys.size(), kServeKeys));
  }
  const std::vector<float> expected = st.server->model().score(keys);
  ServeLoadConfig sc;
  sc.ref_rate = kRefRate;
  sc.p99_limit_us = kP99LimitUs;
  // Serving is request-parallel: nproc − 1 client threads each run their
  // request start to finish with the runtime pool at one lane, leaving a
  // core for the publisher. A request then waits on no other thread, so a
  // host stall of one core delays the requests on that core only instead of
  // every region joined across all lanes.
  sc.workers = std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)) - 1);
  sc.publish_every_s = kPublishEveryS;
  sc.seed = opt.seed + 4;
  const std::function<void()> publish = [&]() { st.server->publish(so); };
  ServeLoad load(*st.session, keys, expected, publish, sc);
  // Traced runs give part of the serving time to the traced training.
  const double serve_s =
      w->serve_share * opt.seconds * (opt.trace ? kTraceServeScale : 1.0);
  const double window_s = kRefShare * serve_s / kRounds;
  const double probe_s = kProbeShare * serve_s / (kRounds * kProbesPerRound);

  std::vector<double> eval_rate, eval_call_s;
  double eval_rankings = 0.0;
  double mrr = 0.0, hits10 = 0.0;
  const auto all_test = st.ds.test.triplets();
  pool.resize(1);
  load.warm_up(kWarmUpSeconds);
  pool.resize(lanes);
  for (int round = 0; round < kRounds; ++round) {
    kg::Dataset part;
    part.train = st.ds.train;
    std::vector<Triplet> valid(st.ds.valid.triplets().begin(),
                               st.ds.valid.triplets().end());
    std::vector<Triplet> test;
    const auto lo = static_cast<std::size_t>(round * kEvalChunkQueries);
    const auto hi = static_cast<std::size_t>((round + 1) * kEvalChunkQueries);
    for (std::size_t i = 0; i < all_test.size(); ++i)
      (i >= lo && i < hi ? test : valid).push_back(all_test[i]);
    part.valid = TripletStore(n, r, std::move(valid));
    part.test = TripletStore(n, r, std::move(test));
    const auto t0 = Clock::now();
    const eval::RankingMetrics em =
        eval::evaluate(st.trainer->model(), part, eval::EvalConfig{});
    const double secs = seconds_since(t0);
    eval_call_s.push_back(secs);
    eval_rate.push_back(static_cast<double>(em.queries) / secs);
    eval_rankings += static_cast<double>(em.queries);
    mrr += em.mrr / kRounds;
    hits10 += em.hits_at_10 / kRounds;

    pool.resize(1);
    load.reference(window_s);
    for (int p = 0; p < kProbesPerRound; ++p) load.probe(probe_s);
    pool.resize(lanes);
  }
  pool.resize(1);
  load.write(kWriteShare * serve_s);
  pool.resize(lanes);
  const double eval_s = median(eval_call_s);
  // Rankings over the summed time of every call, not a median of per-call
  // rates: single calls run in a fast or a slow mode as the host's load
  // shifts, and a median jumps between the modes where a total moves with
  // their mix.
  double eval_total_s = 0.0;
  for (double c : eval_call_s) eval_total_s += c;
  const double eval_per_s = eval_rankings / eval_total_s;
  double harmonic = 0.0;
  for (index_t k = 1; k <= n; ++k) harmonic += 1.0 / static_cast<double>(k);
  const double random_mrr = harmonic / static_cast<double>(n);
  rep.check("mrr_beats_random",
            mrr > kRandomMrrFactor * random_mrr,
            fmt("mrr %.5f random %.6f", mrr, random_mrr));

  const ServeOutcome so_out = load.outcome();
  std::printf("eval_rates");
  for (double e : eval_rate) std::printf(" %.0f", e);
  std::printf("\nwindow_p99_us");
  for (double e : so_out.window_p99_us) std::printf(" %.0f", e);
  std::printf("\n");
  rep.add_requests(so_out.attempted, so_out.failed);
  rep.check("score_one_matches_model", so_out.mismatched == 0,
            fmt("%.0f mismatched answers",
                static_cast<double>(so_out.mismatched)));
  rep.check("capacity_tracked", so_out.tracked_passes >= kMinTrackedPasses,
            fmt("%.0f passing probes tracked of %.0f",
                so_out.tracked_passes, so_out.probes));
  const double gen_lag_p99 = percentile(so_out.ref.lag_us, 0.99);
  rep.check("generator_on_schedule",
            gen_lag_p99 <= kGenLagShare * sc.p99_limit_us,
            fmt("gen lag p99 %.1f us (limit %.0f)", gen_lag_p99,
                kGenLagShare * sc.p99_limit_us));

  // Top-10 recall of the served (ANN) answers against a brute-force
  // session, and every returned score against model.score().
  {
    serve::SessionOptions brute_opts = so;
    brute_opts.ann = serve::AnnMode::kOff;
    auto brute = st.server->open_session(brute_opts);
    const models::KgeModel& model = st.server->model();
    Rng pick(opt.seed + 5);
    std::int64_t overlap = 0, score_mismatch = 0;
    for (int q = 0; q < kRecallQueries; ++q) {
      const Triplet& key = keys[pick.next_below(keys.size())];
      const bool tail_side = pick.next_below(2) == 0;
      auto top10 = [&](const serve::InferenceSession& s) {
        return tail_side ? s.top_tails(key.head, key.relation, 10)
                         : s.top_heads(key.relation, key.tail, 10);
      };
      const auto got = top10(*st.session);
      const auto want = top10(*brute);
      std::unordered_set<std::int64_t> truth;
      for (const auto& p : want) truth.insert(p.entity);
      for (const auto& p : got) {
        overlap += truth.count(p.entity) > 0 ? 1 : 0;
        const Triplet tr = tail_side
                               ? Triplet{key.head, key.relation, p.entity}
                               : Triplet{p.entity, key.relation, key.tail};
        const float ref = model.score(std::span<const Triplet>(&tr, 1))[0];
        if (std::memcmp(&ref, &p.score, sizeof ref) != 0) ++score_mismatch;
      }
    }
    const double recall =
        static_cast<double>(overlap) / (kRecallQueries * 10.0);
    rep.check("ann_recall_at_10", recall >= kAnnRecallFloor,
              fmt("recall %.4f floor %.2f", recall, kAnnRecallFloor));
    rep.check("topk_scores_match_model", score_mismatch == 0,
              fmt("%.0f mismatched scores",
                  static_cast<double>(score_mismatch)));
  }

  const double rss_mb = peak_rss_mb();
  const double ok_ratio =
      1.0 - ratio(static_cast<double>(rep.failed()),
                  static_cast<double>(rep.attempted()));

  // ---- report ------------------------------------------------------------
  if (!opt.trace) {
    rep.end_to_end("setup_s", median(setup_s), "s");
    rep.end_to_end("train_triples_per_s", static_cast<double>(m) / epoch_s,
                   "1/s");
    rep.end_to_end("final_loss", loss_curve.back(), "loss");
    rep.end_to_end("mrr", mrr, "ratio");
    rep.end_to_end("hits_at_10", hits10, "ratio");
    rep.end_to_end("eval_rankings_per_s", eval_per_s, "1/s");
    rep.end_to_end("serve_p50_us", so_out.ref_p50_us, "us");
    rep.end_to_end("serve_p99_us", so_out.ref_p99_us, "us");
    rep.end_to_end("serve_max_qps", so_out.max_qps, "1/s");
    rep.end_to_end("ok_ratio", ok_ratio, "ratio");
    rep.end_to_end("peak_rss_mb", rss_mb, "MB");
  } else {
    rep.layer("eval.evaluate_s", eval_s, "s");
    rep.layer("eval.rank_us", 1e6 / eval_per_s, "us");
    rep.layer("kg.generate_s", median(generate_s), "s");
    rep.layer("models.checkpoint_save_s", median(save_s), "s");
    rep.layer("models.checkpoint_load_s", median(load_s), "s");
    rep.layer("api.open_session_s", median(open_s), "s");
    rep.layer("tensor.peak_tracked_mb", train_peak_mb, "MB");
    rep.layer("process.peak_rss_mb", rss_mb, "MB");

    const double ddp_epoch_s = w->ddp ? timed_epoch_s(ddp.epoch_seconds) : 0.0;
    const double ddp_epochs =
        std::max(1.0, static_cast<double>(ddp.epoch_loss.size()));
    rep.layer("distributed.epoch_s", ddp_epoch_s, "s");
    rep.layer("distributed.shards_executed",
              static_cast<double>(ddp.shards_executed), "count");
    rep.layer("distributed.allreduce_rows_per_batch",
              ratio(static_cast<double>(ddp.allreduce_rows),
                    ddp_epochs * static_cast<double>(batches_per_epoch)),
              "count");
    rep.layer("distributed.dense_reduces",
              static_cast<double>(ddp.dense_reduces), "count");
    rep.layer("distributed.transport_mb_per_epoch",
              static_cast<double>(ddp.transport_bytes) / 1e6 / ddp_epochs,
              "MB");
    rep.layer("distributed.transport_frames",
              static_cast<double>(ddp.transport_frames), "count");
    rep.layer("distributed.transport_retries",
              static_cast<double>(ddp.transport_retries), "count");
    rep.layer("distributed.speedup_vs_sequential",
              ratio(timed_epoch_s(seq.epoch_seconds), ddp_epoch_s), "ratio");

    const PhaseStats& ref = so_out.ref;
    rep.layer("serve.score_p50_us", percentile(ref.score_us, 0.5), "us");
    rep.layer("serve.score_p99_us", percentile(ref.score_us, 0.99), "us");
    rep.layer("serve.topk_p50_us", percentile(ref.topk_us, 0.5), "us");
    rep.layer("serve.topk_p99_us", percentile(ref.topk_us, 0.99), "us");
    rep.layer("serve.rank_p50_us", percentile(ref.rank_us, 0.5), "us");
    rep.layer("serve.rank_p99_us", percentile(ref.rank_us, 0.99), "us");
    rep.layer("serve.queue_wait_p99_us", percentile(ref.wait_us, 0.99), "us");
    rep.layer("serve.gen_lag_p99_us", gen_lag_p99, "us");
    const PhaseStats& wr = so_out.write;
    rep.layer("serve.write_p50_us", percentile(wr.all_us, 0.5), "us");
    rep.layer("serve.write_p99_us", percentile(wr.all_us, 0.99), "us");
    rep.layer("serve.write_gen_lag_p99_us", percentile(wr.lag_us, 0.99), "us");
    const serve::SessionStats ss = st.session->stats();
    rep.layer("serve.coalesced_ratio",
              ratio(static_cast<double>(ss.batcher.coalesced_requests),
                    static_cast<double>(ss.batcher.requests)),
              "ratio");
    rep.layer("serve.topk_ann_ratio",
              ratio(static_cast<double>(ss.topk_ann),
                    static_cast<double>(ss.topk_ann + ss.topk_brute)),
              "ratio");
    rep.layer("serve.ann_candidates_per_topk",
              ratio(static_cast<double>(ss.ann_candidates),
                    static_cast<double>(ss.topk_ann)),
              "count");
    rep.layer("serve.plan_hit_ratio",
              ratio(static_cast<double>(ss.plans.hits),
                    static_cast<double>(ss.plans.hits + ss.plans.misses)),
              "ratio");
    rep.layer("serve.rejected", static_cast<double>(ss.rejected), "count");
    rep.layer("serve.installs", static_cast<double>(ss.installs), "count");
    rep.layer("serve.ladder_max_rate", so_out.max_rate, "1/s");
    std::vector<double> publishes = so_out.publish_s;
    publishes.push_back(first_publish_s);
    rep.layer("api.publish_s", median(publishes), "s");
    rep.layer("serve.error_rate", 1.0 - ok_ratio, "ratio");
  }
  rep.print_result();
  return 0;
}

}  // namespace e2e
