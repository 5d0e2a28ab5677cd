// Phase timers and a hotspot registry.
//
// Reproduces the paper's two time measurements:
//  * PhaseTimer — forward / backward / step / post-step accumulation
//    (Table 1, Figure 8), the way the paper times with Python's time module.
//  * HotspotRegistry — named per-function time attribution (Figure 2's
//    "top CPU-intensive functions"); autograd ops and kernels report their
//    runtime under a stable name, and the registry can rank them.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "src/common/thread_annotations.hpp"

namespace sptx::profiling {

using clock = std::chrono::steady_clock;

inline double seconds_since(clock::time_point t0) {
  return std::chrono::duration<double>(clock::now() - t0).count();
}

/// Accumulates wall time of the training phases: forward, backward, the
/// optimizer step (with the gradient clear) and the model's post-step
/// constraints (entity renormalization).
struct PhaseTimer {
  double forward_s = 0.0;
  double backward_s = 0.0;
  double step_s = 0.0;
  double post_step_s = 0.0;

  double total() const {
    return forward_s + backward_s + step_s + post_step_s;
  }
  void reset() { forward_s = backward_s = step_s = post_step_s = 0.0; }
  PhaseTimer& operator+=(const PhaseTimer& o) {
    forward_s += o.forward_s;
    backward_s += o.backward_s;
    step_s += o.step_s;
    post_step_s += o.post_step_s;
    return *this;
  }
};

/// RAII timer adding its lifetime to an accumulator.
class ScopedAccum {
 public:
  explicit ScopedAccum(double& slot) : slot_(slot), t0_(clock::now()) {}
  ~ScopedAccum() { slot_ += seconds_since(t0_); }
  ScopedAccum(const ScopedAccum&) = delete;
  ScopedAccum& operator=(const ScopedAccum&) = delete;

 private:
  double& slot_;
  clock::time_point t0_;
};

/// Named time attribution for Figure 2 style hotspot ranking. The fused
/// kernels and autograd ops report from DDP workers and pool tasks, so
/// accumulation is mutex-guarded; samples are per-batch (not per-row), so
/// the lock is uncontended noise next to the work being attributed.
class HotspotRegistry {
 public:
  static HotspotRegistry& instance();

  void add(const std::string& name, double seconds) SPTX_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    accum_[name] += seconds;
  }
  void reset() SPTX_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    accum_.clear();
  }

  /// (name, seconds) sorted descending by time.
  std::vector<std::pair<std::string, double>> ranked() const
      SPTX_EXCLUDES(mu_);
  double total() const SPTX_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::map<std::string, double> accum_ SPTX_GUARDED_BY(mu_);
};

/// RAII hotspot sample: attributes its lifetime to `name`.
class ScopedHotspot {
 public:
  explicit ScopedHotspot(const char* name) : name_(name), t0_(clock::now()) {}
  ~ScopedHotspot() {
    HotspotRegistry::instance().add(name_, seconds_since(t0_));
  }
  ScopedHotspot(const ScopedHotspot&) = delete;
  ScopedHotspot& operator=(const ScopedHotspot&) = delete;

 private:
  const char* name_;
  clock::time_point t0_;
};

}  // namespace sptx::profiling
