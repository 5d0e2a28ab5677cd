// Optimizers and learning-rate schedulers.
//
// The paper trains with a fixed learning rate (0.0004, §5.3) and, for the
// accuracy study of Appendix E, a learning-rate scheduler. SGD covers the
// timing experiments; Adagrad is provided because per-coordinate scaling is
// the standard choice for sparse-gradient embedding training, and a
// StepLR / CosineLR pair covers the scheduler runs.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/autograd/variable.hpp"

namespace sptx::nn {

/// A step's row support, one entry per parameter: the sorted rows of
/// params()[i] its gradient may be nonzero in, or nullptr for every row.
using RowSupport = std::span<const std::vector<index_t>* const>;

/// Interface over a set of parameters (autograd leaf Variables). Each
/// optimizer is one row kernel (optim.inc); a step runs it over every row
/// or over a batch's row support.
class Optimizer {
 public:
  explicit Optimizer(std::vector<autograd::Variable> params, float lr)
      : params_(std::move(params)), lr_(lr) {}
  virtual ~Optimizer() = default;

  /// Apply one update from the accumulated gradients to every row.
  void step();

  /// Apply the update to the rows in `support` only, zeroing those
  /// gradient rows as it reads them. Rows outside the support must hold
  /// zero gradient: the update leaves such a row bit-for-bit unchanged, so
  /// this equals step() followed by zero_grad(). When moves_only_support()
  /// is false that is what runs.
  void step(RowSupport support);

  /// Whether a step leaves rows without gradient untouched. Momentum keeps
  /// moving them and weight decay shrinks them, so either makes every step
  /// run over all rows; this follows from the settings, it is not a knob.
  virtual bool moves_only_support() const { return weight_decay_ == 0.0f; }

  /// Stable identifier for checkpointing ("sgd", "adagrad").
  virtual std::string kind() const = 0;

  /// Per-parameter slot state (momentum velocity, Adagrad accumulators) for
  /// checkpointing. May be empty when slots are lazily allocated and no
  /// step has run yet.
  virtual std::vector<Matrix> export_state() const { return {}; }

  /// Restore slot state captured by export_state on an identically
  /// configured optimizer. Throws Error{kCorruptCheckpoint} on a
  /// shape/count mismatch.
  virtual void import_state(std::vector<Matrix> state) = 0;

  /// Clear gradients (call between batches).
  void zero_grad() {
    for (auto& p : params_) p.zero_grad();
  }

  float lr() const { return lr_; }
  void set_lr(float lr) { lr_ = lr; }
  /// Decoupled L2 weight decay applied before the gradient step
  /// (w ← (1 − lr·λ)·w), 0 disables.
  void set_weight_decay(float lambda) { weight_decay_ = lambda; }
  /// Global gradient-norm clip across all parameters, 0 disables.
  void set_grad_clip_norm(float max_norm) { grad_clip_norm_ = max_norm; }
  const std::vector<autograd::Variable>& params() const { return params_; }

 protected:
  /// The optimizer's row kernel over parameter i: the listed rows, or
  /// every row when `rows` is null, zeroing the gradient rows it reads when
  /// `clear`. Called only when the parameter has a gradient.
  virtual void update(std::size_t i, const std::vector<index_t>* rows,
                      bool clear) = 0;

  std::vector<autograd::Variable> params_;
  float lr_;
  float weight_decay_ = 0.0f;
  float grad_clip_norm_ = 0.0f;

 private:
  /// Clipping (over the support's rows), weight decay, then update() per
  /// parameter; an empty support means every row.
  void apply(RowSupport support, bool clear);
};

/// Plain SGD: w ← w − lr · g (optional classical momentum).
class Sgd final : public Optimizer {
 public:
  Sgd(std::vector<autograd::Variable> params, float lr, float momentum = 0.0f);
  std::string kind() const override { return "sgd"; }
  bool moves_only_support() const override {
    return momentum_ == 0.0f && Optimizer::moves_only_support();
  }
  std::vector<Matrix> export_state() const override { return velocity_; }
  void import_state(std::vector<Matrix> state) override;

 protected:
  void update(std::size_t i, const std::vector<index_t>* rows,
              bool clear) override;

 private:
  float momentum_;
  std::vector<Matrix> velocity_;  // allocated lazily when momentum > 0
};

/// Adagrad: w ← w − lr · g / (√G + ε), G accumulating squared gradients.
class Adagrad final : public Optimizer {
 public:
  Adagrad(std::vector<autograd::Variable> params, float lr,
          float eps = 1e-10f);
  std::string kind() const override { return "adagrad"; }
  std::vector<Matrix> export_state() const override { return accum_; }
  void import_state(std::vector<Matrix> state) override;

 protected:
  void update(std::size_t i, const std::vector<index_t>* rows,
              bool clear) override;

 private:
  float eps_;
  std::vector<Matrix> accum_;
};

/// w −= lr·g over the listed rows of w, or every row when `rows` is null,
/// zeroing those rows of g when `clear`: Sgd's row kernel, shared with the
/// distributed trainer's replica step.
void sgd_rows(Matrix& w, Matrix& g, const std::vector<index_t>* rows,
              float lr, bool clear);

/// Multiplies the optimizer lr by `gamma` every `step_size` epochs.
class StepLr {
 public:
  StepLr(Optimizer& opt, int step_size, float gamma)
      : opt_(opt), base_lr_(opt.lr()), step_size_(step_size), gamma_(gamma) {}
  void on_epoch(int epoch);

 private:
  Optimizer& opt_;
  float base_lr_;
  int step_size_;
  float gamma_;
};

/// Cosine annealing from the base lr to `min_lr` over `total_epochs`.
class CosineLr {
 public:
  CosineLr(Optimizer& opt, int total_epochs, float min_lr = 0.0f)
      : opt_(opt),
        base_lr_(opt.lr()),
        total_epochs_(total_epochs),
        min_lr_(min_lr) {}
  void on_epoch(int epoch);

 private:
  Optimizer& opt_;
  float base_lr_;
  int total_epochs_;
  float min_lr_;
};

}  // namespace sptx::nn
