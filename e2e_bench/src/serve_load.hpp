// Open-loop serving load against one serve::InferenceSession.
//
// Requests are due on a fixed schedule (evenly spaced at the phase's rate)
// whatever the server does; `workers` client threads claim them in order.
// A worker that claims a request early waits for its due time (sleep, then
// spin for the last 5 ms); one that claims it late starts at once. Every
// latency is measured from the due time, so a stall is charged to every
// request queued behind it. Two kinds of lateness are kept apart:
//
//   queue wait — start − due for every request (includes backlog)
//   gen lag    — start − due for requests claimed before they were due,
//                i.e. the generator itself woke late; a high value means
//                the load generator, not the server, fell behind
//
// Mix: 70% score_one, 25% top-10 (top_tails / top_heads — the ANN path),
// 5% filtered rank. Keys are Zipf(0.7)-distributed over a fixed key set, so
// the micro-batcher and the candidate-plan cache see shared work.
//
// The caller interleaves short phases of three kinds with its other work,
// so every serving figure is a median over the whole run rather than over
// one stretch of it:
//   reference — the reference rate, reads only: each call is one window
//               whose p50 / p99 join the medians reported
//   probe     — one step of a staircase over a fixed geometric rate ladder:
//               a coarse search up from a low anchor rung until a rung fails
//               twice, then one rung up after a pass and one down after a
//               fail, so the probes hover at the highest rung that meets
//               the p99 limit with no growing backlog
//   write     — the reference rate with `publish` (Engine::publish) called
//               at a fixed cadence from one more thread, rebuilding the ANN
//               index beside the reads: publish cost and read latency under
//               writes
// Probes run without publishes so the capacity found does not depend on
// where a publish happened to fall inside a short probe.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/rng.hpp"
#include "src/kg/triplet.hpp"
#include "src/serve/session.hpp"

namespace e2e {

struct ServeLoadConfig {
  double ref_rate = 1000.0;       // req/s of the reference and write phases
  double p99_limit_us = 5000.0;   // latency limit a probe must meet
  int workers = 3;                // client threads
  double publish_every_s = 0.5;   // Engine::publish cadence
  std::uint64_t seed = 1;
};

struct PhaseStats {
  std::int64_t attempted = 0;     // requests started
  std::int64_t failed = 0;        // threw, refused or answered wrongly
  std::int64_t mismatched = 0;    // of those: score != model.score()
  std::vector<double> all_us, score_us, topk_us, rank_us;  // completed only
  std::vector<double> wait_us;    // queue wait, every started request
  std::vector<double> lag_us;     // gen lag, early-claimed requests only
  double achieved_qps = 0.0;      // completed / (last completion − start)
  double p50_us = 0.0;            // failed requests count as misses
  double p99_us = 0.0;
  double backlog_growth_us = 0.0; // median wait, last third − first third
  bool pass = false;              // met the limit with no growing backlog
  std::vector<double> publish_s;  // Engine::publish durations
  std::int64_t publish_failures = 0;
};

struct ServeOutcome {
  PhaseStats ref;                 // every reference window, pooled
  PhaseStats write;               // every write phase, pooled
  std::vector<double> window_p99_us;  // one per reference window
  double ref_p50_us = 0.0;        // median over reference windows
  double ref_p99_us = 0.0;
  double max_qps = 0.0;           // median achieved rate of passing tracked
                                  // probes
  double max_rate = 0.0;          // median offered rate of those probes
  int probes = 0;
  int tracked_passes = 0;
  std::int64_t attempted = 0;     // over every phase
  std::int64_t failed = 0;
  std::int64_t mismatched = 0;
  std::vector<double> publish_s;
};

class ServeLoad {
 public:
  /// `expected[i]` is model.score(keys[i]); every score_one answer is
  /// compared to it bit for bit. The arguments must outlive the load.
  ServeLoad(const sptx::serve::InferenceSession& session,
            const std::vector<sptx::Triplet>& keys,
            const std::vector<float>& expected,
            const std::function<void()>& publish,
            const ServeLoadConfig& config);

  /// One reference window of `seconds`.
  void reference(double seconds);
  /// One staircase probe of `seconds`; moves the staircase.
  void probe(double seconds);
  /// Requests far past capacity for `seconds`, checked but left out of
  /// every figure: the first burst past capacity in a process stalls far
  /// longer than later ones, and must not steer the staircase.
  void warm_up(double seconds);
  /// One write phase of `seconds`.
  void write(double seconds);

  /// Every figure so far.
  ServeOutcome outcome() const;

 private:
  PhaseStats run(double rate, double seconds, bool publishes);
  void account(const PhaseStats& ps);

  const sptx::serve::InferenceSession& session_;
  const std::vector<sptx::Triplet>& keys_;
  const std::vector<float>& expected_;
  const std::function<void()>& publish_;
  ServeLoadConfig config_;
  std::vector<double> zipf_cdf_;
  sptx::Rng rng_;
  ServeOutcome out_;
  std::vector<double> window_p50_, window_p99_;
  int rung_;
  bool searching_ = true;
  bool retried_ = false;          // the search's current rung failed once
  std::vector<double> tracked_qps_, tracked_rate_;
};

}  // namespace e2e
