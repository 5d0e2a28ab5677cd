#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace e2e {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void Report::emit(std::vector<Metric>& into, const std::string& name,
                  double value, const std::string& unit) {
  std::printf("metric %s %.17g %s\n", name.c_str(), value, unit.c_str());
  std::fflush(stdout);
  into.push_back({name, value, unit});
}

void Report::end_to_end(const std::string& name, double value,
                        const std::string& unit) {
  emit(end_to_end_, name, value, unit);
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  emit(layers_, name, value, unit);
}

bool Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  std::printf("check %s %s %s\n", name.c_str(), ok ? "ok" : "FAIL",
              detail.c_str());
  std::fflush(stdout);
  ++attempted_;
  if (!ok) ++failed_;
  return ok;
}

void Report::add_requests(std::int64_t attempted, std::int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::print_result() const {
  const std::vector<Metric>& metrics = trace_ ? layers_ : end_to_end_;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              failed_ == 0 ? "true" : "false",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace e2e
