#include "roofline.hpp"

#include <algorithm>
#include <thread>
#include <vector>

#include "report.hpp"

namespace e2e {

EpochCosts epoch_costs(sptx::models::KgeModel& model, std::int64_t triples,
                       std::int64_t batches, bool adagrad, std::int64_t dim) {
  double param_elems = 0.0;
  for (const auto& p : model.params())
    param_elems += static_cast<double>(p.value().rows()) *
                   static_cast<double>(p.value().cols());
  const auto nb = static_cast<double>(batches);
  const auto d = static_cast<double>(dim);
  // Scored triples per epoch: every positive and its negative.
  const double scored = 2.0 * static_cast<double>(triples);

  EpochCosts c;
  // The optimizer visits every element of every table once per batch.
  // zero_grad writes the gradient (4 B). SGD reads param + grad and writes
  // param (12 B, 2 flops); Adagrad also reads and writes the accumulator
  // (20 B, 6 flops: g², add, sqrt, add eps, divide, fused update).
  c.step.bytes = nb * param_elems * (4.0 + (adagrad ? 20.0 : 12.0));
  c.step.flops = nb * param_elems * (adagrad ? 6.0 : 2.0);
  // post_step L2-normalizes the entity rows: read + write (8 B) and
  // square-accumulate + scale (3 flops) per element.
  const double entity_elems =
      static_cast<double>(model.num_entities()) * d;
  c.post_step.bytes = nb * entity_elems * 8.0;
  c.post_step.flops = nb * entity_elems * 3.0;
  // Forward gathers h, r, t (3 rows of d) and computes h + r − t and its
  // L2 norm; backward reads the three rows and read-modify-writes three
  // gradient rows.
  c.forward.bytes = scored * 3.0 * d * 4.0;
  c.forward.flops = scored * 4.0 * d;
  c.backward.bytes = scored * 9.0 * d * 4.0;
  c.backward.flops = scored * 4.0 * d;
  return c;
}

double triad_gbps(int threads, std::size_t bytes_per_array) {
  threads = std::max(threads, 1);
  const std::size_t n = bytes_per_array / sizeof(float);
  std::vector<float> a(n, 0.0f), b(n, 1.0f), c(n, 2.0f);
  const float s = 3.0f;
  auto triad = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) a[i] = b[i] + s * c[i];
  };
  double best = 1e30;
  for (int rep = 0; rep < 12; ++rep) {
    const auto t0 = Clock::now();
    std::vector<std::thread> pool;
    const std::size_t chunk = (n + static_cast<std::size_t>(threads) - 1) /
                              static_cast<std::size_t>(threads);
    for (int w = 1; w < threads; ++w) {
      const std::size_t lo = std::min(n, chunk * static_cast<std::size_t>(w));
      pool.emplace_back(triad, lo, std::min(n, lo + chunk));
    }
    triad(0, std::min(n, chunk));
    for (auto& t : pool) t.join();
    best = std::min(best, seconds_since(t0));
  }
  // Two reads and one write per element.
  return 3.0 * static_cast<double>(n) * sizeof(float) / best / 1e9;
}

}  // namespace e2e
