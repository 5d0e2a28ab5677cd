// Metric and check bookkeeping for one benchmark run, plus the small
// statistics helpers every phase shares.
//
// Every metric is printed as it is recorded ("metric <name> <value>
// <unit>"), every output check as "check <name> ok|FAIL <detail>". The last
// line is the JSON result run.py forwards: end-to-end metrics in an untraced
// run, per-layer metrics in a traced one.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);

/// Nearest-rank percentile, q in (0, 1]; 0 when empty.
double percentile(std::vector<double> v, double q);

class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  bool trace() const { return trace_; }

  void end_to_end(const std::string& name, double value,
                  const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);

  /// Record an output check; a failed check counts one failed attempt.
  bool check(const std::string& name, bool ok, const std::string& detail);

  /// Serving requests issued and how many failed, were refused or answered
  /// wrongly.
  void add_requests(std::int64_t attempted, std::int64_t failed);

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

  /// The final JSON line.
  void print_result() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  void emit(std::vector<Metric>& into, const std::string& name, double value,
            const std::string& unit);

  bool trace_;
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layers_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

}  // namespace e2e
