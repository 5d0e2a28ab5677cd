#include "serve_load.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <thread>

#include "report.hpp"
#include "src/common/rng.hpp"

namespace e2e {

using namespace sptx;

namespace {

enum class Kind : std::uint8_t { kScore, kTopk, kRank };
enum class Status : std::uint8_t { kNotStarted, kOk, kFailed, kMismatch };

struct Request {
  std::int64_t due_ns = 0;
  Kind kind = Kind::kScore;
  bool tail_side = true;
  std::int32_t key = 0;
};

constexpr int kTopK = 10;
/// A worker waiting for a request's due time sleeps only until this long
/// before it, then spins: an idle vCPU of a loaded host can take
/// milliseconds to wake, and that delay would be charged to the server.
constexpr int kSpinSlackUs = 5000;
/// A queue wait this far past the limit means the probe can never pass:
/// stop issuing so an overloaded probe does not drain for seconds.
constexpr double kAbortWaitFactor = 4.0;
/// Fixed geometric rate ladder: 500 req/s × 1.06^k, k = 0..kRungs-1.
constexpr double kLadderBase = 500.0;
constexpr double kLadderStep = 1.06;
constexpr int kRungs = 85;
constexpr int kAnchorRung = 30;  // 2.9k req/s: where the search starts
constexpr int kSearchStep = 6;   // rungs per passing search probe (1.42×)
/// Keys share work, but no single key carries much of it (the hottest of
/// 2,000 gets ~3%, the ten hottest ~13%): a top-10 query's ANN cost varies
/// with the key, and at a steeper skew capacity moved ~10% from seed to
/// seed with the costs of a few hot keys.
constexpr double kZipfExponent = 0.7;
/// "No growing backlog": the queue wait may rise over a probe by at most
/// this share of the p99 limit.
constexpr double kBacklogGrowthShare = 0.1;

double rung_rate(int rung) {
  return kLadderBase * std::pow(kLadderStep, rung);
}

std::vector<double> zipf_cdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cdf;
}

std::size_t zipf_sample(const std::vector<double>& cdf, Rng& rng) {
  const double u = static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53;
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                               cdf.size() - 1);
}

std::vector<Request> make_schedule(double rate, double seconds,
                                   const std::vector<double>& zipf, Rng& rng) {
  const auto n = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::llround(rate * seconds)));
  std::vector<Request> out(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    Request& r = out[static_cast<std::size_t>(i)];
    r.due_ns = static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rate);
    const std::uint64_t u = rng.next_below(100);
    r.kind = u < 70 ? Kind::kScore : (u < 95 ? Kind::kTopk : Kind::kRank);
    r.tail_side = rng.next_below(2) == 0;
    r.key = static_cast<std::int32_t>(zipf_sample(zipf, rng));
  }
  return out;
}

void wait_until(Clock::time_point due) {
  const auto slack = std::chrono::microseconds(kSpinSlackUs);
  if (due - Clock::now() > 2 * slack)
    std::this_thread::sleep_until(due - slack);
  while (Clock::now() < due) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
  }
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

void append(PhaseStats& into, const PhaseStats& from) {
  auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  into.attempted += from.attempted;
  into.failed += from.failed;
  into.mismatched += from.mismatched;
  cat(into.all_us, from.all_us);
  cat(into.score_us, from.score_us);
  cat(into.topk_us, from.topk_us);
  cat(into.rank_us, from.rank_us);
  cat(into.wait_us, from.wait_us);
  cat(into.lag_us, from.lag_us);
  cat(into.publish_s, from.publish_s);
  into.publish_failures += from.publish_failures;
}

}  // namespace

ServeLoad::ServeLoad(const serve::InferenceSession& session,
                     const std::vector<Triplet>& keys,
                     const std::vector<float>& expected,
                     const std::function<void()>& publish,
                     const ServeLoadConfig& config)
    : session_(session),
      keys_(keys),
      expected_(expected),
      publish_(publish),
      config_(config),
      zipf_cdf_(zipf_cdf(keys.size(), kZipfExponent)),
      rng_(config.seed),
      rung_(kAnchorRung) {}

PhaseStats ServeLoad::run(double rate, double seconds, bool publishes) {
  const std::vector<Request> schedule =
      make_schedule(rate, seconds, zipf_cdf_, rng_);
  const std::size_t n = schedule.size();
  std::vector<Status> status(n, Status::kNotStarted);
  std::vector<double> latency_us(n, 0.0), wait_us(n, 0.0), lag_us(n, -1.0);
  std::vector<Clock::time_point> end_at(n);
  const double abort_wait_us = kAbortWaitFactor * config_.p99_limit_us;
  const auto num_entities = static_cast<double>(session_.num_entities());

  std::atomic<std::size_t> next{0};
  std::atomic<bool> abort{false};
  std::atomic<bool> done{false};
  // Lead time so every worker is parked before the first request is due.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);

  auto worker = [&]() {
    while (!abort.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      const Request& req = schedule[i];
      const Clock::time_point due = t0 + std::chrono::nanoseconds(req.due_ns);
      const bool early = Clock::now() < due;
      if (early) wait_until(due);
      const Clock::time_point start = Clock::now();
      wait_us[i] = us_between(due, start);
      if (early) lag_us[i] = wait_us[i];
      if (wait_us[i] > abort_wait_us) abort.store(true);

      const Triplet& t = keys_[static_cast<std::size_t>(req.key)];
      Status s = Status::kOk;
      try {
        switch (req.kind) {
          case Kind::kScore: {
            const float v = session_.score_one(t);
            const float want = expected_[static_cast<std::size_t>(req.key)];
            if (std::memcmp(&v, &want, sizeof v) != 0) s = Status::kMismatch;
            break;
          }
          case Kind::kTopk: {
            const auto top =
                req.tail_side ? session_.top_tails(t.head, t.relation, kTopK)
                              : session_.top_heads(t.relation, t.tail, kTopK);
            if (top.size() != static_cast<std::size_t>(kTopK))
              s = Status::kFailed;
            break;
          }
          case Kind::kRank: {
            const double r = session_.rank(t, req.tail_side);
            if (!(r >= 1.0 && r <= num_entities)) s = Status::kFailed;
            break;
          }
        }
      } catch (...) {
        s = Status::kFailed;
      }
      end_at[i] = Clock::now();
      latency_us[i] = us_between(due, end_at[i]);
      status[i] = s;
    }
  };

  PhaseStats ps;
  const double cadence = config_.publish_every_s;
  std::thread publisher([&]() {
    for (int k = 0;; ++k) {
      const double offset = (k + 0.5) * cadence;
      if (!publishes || offset >= seconds) break;
      const auto at = t0 + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(offset));
      while (Clock::now() < at && !done.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      if (done.load()) break;
      const auto p0 = Clock::now();
      try {
        publish_();
        ps.publish_s.push_back(seconds_since(p0));
      } catch (...) {
        ++ps.publish_failures;
      }
    }
  });
  std::vector<std::thread> workers;
  for (int w = 0; w < config_.workers; ++w) workers.emplace_back(worker);
  for (auto& t : workers) t.join();
  done.store(true);
  publisher.join();

  std::vector<double> miss_sample;  // failed requests count as misses
  Clock::time_point last_end = t0;
  std::size_t started = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (status[i] == Status::kNotStarted) continue;
    ++started;
    ps.wait_us.push_back(wait_us[i]);
    if (lag_us[i] >= 0.0) ps.lag_us.push_back(lag_us[i]);
    if (status[i] != Status::kOk) {
      ++ps.failed;
      if (status[i] == Status::kMismatch) ++ps.mismatched;
      miss_sample.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    last_end = std::max(last_end, end_at[i]);
    miss_sample.push_back(latency_us[i]);
    ps.all_us.push_back(latency_us[i]);
    switch (schedule[i].kind) {
      case Kind::kScore: ps.score_us.push_back(latency_us[i]); break;
      case Kind::kTopk: ps.topk_us.push_back(latency_us[i]); break;
      case Kind::kRank: ps.rank_us.push_back(latency_us[i]); break;
    }
  }
  ps.attempted = static_cast<std::int64_t>(started);
  ps.p50_us = percentile(miss_sample, 0.5);
  ps.p99_us = percentile(miss_sample, 0.99);
  // Backlog growth: median queue wait of the last third of the requests
  // over that of the first third. Overload grows it steadily; a short host
  // stall moves neither median.
  const auto third = static_cast<std::ptrdiff_t>(started / 3);
  ps.backlog_growth_us =
      median({ps.wait_us.end() - third, ps.wait_us.end()}) -
      median({ps.wait_us.begin(), ps.wait_us.begin() + third});
  const double span_s = std::chrono::duration<double>(last_end - t0).count();
  ps.achieved_qps =
      span_s > 0.0 ? static_cast<double>(ps.all_us.size()) / span_s : 0.0;
  ps.pass = !abort.load() && started == n && ps.failed == 0 &&
            ps.p99_us <= config_.p99_limit_us &&
            ps.backlog_growth_us <= kBacklogGrowthShare * config_.p99_limit_us;
  return ps;
}

void ServeLoad::account(const PhaseStats& ps) {
  out_.attempted += ps.attempted;
  out_.failed += ps.failed + ps.publish_failures;
  out_.mismatched += ps.mismatched;
  out_.publish_s.insert(out_.publish_s.end(), ps.publish_s.begin(),
                        ps.publish_s.end());
}

void ServeLoad::reference(double seconds) {
  const PhaseStats ps = run(config_.ref_rate, seconds, /*publishes=*/false);
  account(ps);
  append(out_.ref, ps);
  window_p50_.push_back(ps.p50_us);
  window_p99_.push_back(ps.p99_us);
}

void ServeLoad::write(double seconds) {
  const PhaseStats ps = run(config_.ref_rate, seconds, /*publishes=*/true);
  account(ps);
  append(out_.write, ps);
}

void ServeLoad::warm_up(double seconds) {
  account(run(rung_rate(kRungs - 1), seconds, /*publishes=*/false));
}

void ServeLoad::probe(double seconds) {
  const double rate = rung_rate(rung_);
  const PhaseStats ps = run(rate, seconds, /*publishes=*/false);
  account(ps);
  ++out_.probes;
  std::printf("probe rate %.1f started %lld p99_us %.1f "
              "backlog_growth_us %.1f achieved_qps %.1f %s%s\n",
              rate, static_cast<long long>(ps.attempted), ps.p99_us,
              ps.backlog_growth_us, ps.achieved_qps, ps.pass ? "pass" : "fail",
              searching_ ? " search" : "");
  if (searching_) {
    // Up in coarse steps; a failed rung is probed once more, so one host
    // stall does not end the search. Tracking starts at the last rung that
    // passed (one below the anchor if none did).
    if (ps.pass) {
      retried_ = false;
      if (rung_ + kSearchStep < kRungs) {
        rung_ += kSearchStep;
      } else {
        searching_ = false;
      }
    } else if (!retried_) {
      retried_ = true;
    } else {
      searching_ = false;
      rung_ = rung_ == kAnchorRung ? rung_ - 1 : rung_ - kSearchStep;
    }
    return;
  }
  if (ps.pass) {
    tracked_qps_.push_back(ps.achieved_qps);
    tracked_rate_.push_back(rate);
  }
  rung_ = std::clamp(rung_ + (ps.pass ? 1 : -1), 0, kRungs - 1);
}

ServeOutcome ServeLoad::outcome() const {
  ServeOutcome out = out_;
  out.ref_p50_us = median(window_p50_);
  out.ref_p99_us = median(window_p99_);
  out.window_p99_us = window_p99_;
  out.max_qps = median(tracked_qps_);
  out.max_rate = median(tracked_rate_);
  out.tracked_passes = static_cast<int>(tracked_qps_.size());
  return out;
}

}  // namespace e2e
