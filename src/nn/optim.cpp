#include "src/nn/optim.hpp"

#include <cmath>
#include <utility>

#include "src/common/error.hpp"
#include "src/common/simd.hpp"
#include "src/profiling/flops.hpp"

namespace sptx::nn {

namespace {

/// Shared import validation: state must be empty (no slots yet) or one
/// matrix per parameter with matching shapes.
void check_slot_state(const std::vector<autograd::Variable>& params,
                      const std::vector<Matrix>& state, const char* kind) {
  if (state.empty()) return;
  SPTX_CHECK_CODE(state.size() == params.size(), ErrorCode::kCorruptCheckpoint,
                  kind << " state has " << state.size() << " slots, model has "
                       << params.size() << " parameters");
  for (std::size_t i = 0; i < params.size(); ++i)
    SPTX_CHECK_CODE(state[i].same_shape(params[i].value()),
                    ErrorCode::kCorruptCheckpoint,
                    kind << " slot " << i << " shape " << state[i].shape_str()
                         << " vs parameter " << params[i].value().shape_str());
}

/// The (row list, row count) pair a row kernel walks for parameter `w`.
std::pair<const index_t*, index_t> walk(const Matrix& w,
                                        const std::vector<index_t>* rows) {
  if (rows == nullptr) return {nullptr, w.rows()};
  return {rows->data(), static_cast<index_t>(rows->size())};
}

#define SPTX_WIDTH_INC "src/nn/optim.inc"
#include "src/common/foreach_width.inc"

}  // namespace

void Optimizer::step() { apply({}, /*clear=*/false); }

void Optimizer::step(RowSupport support) {
  if (!moves_only_support()) {
    apply({}, /*clear=*/true);
    return;
  }
  SPTX_CHECK(support.size() == params_.size(),
             "row support has " << support.size() << " entries, optimizer has "
                                << params_.size() << " parameters");
  apply(support, /*clear=*/true);
}

void Optimizer::apply(RowSupport support, bool clear) {
  const auto rows_of = [&](std::size_t i) -> const std::vector<index_t>* {
    return support.empty() ? nullptr : support[i];
  };
  // Row by row in row order into a double: the rows a support skips hold
  // zero gradient and would add exact zeros, so a clipped support step
  // matches the all-rows one bit for bit.
  const auto each_grad_row = [&](auto&& fn) {
    for (std::size_t i = 0; i < params_.size(); ++i) {
      auto& p = params_[i];
      if (!p.has_grad()) continue;
      Matrix& g = p.grad();
      if (const auto* rows = rows_of(i)) {
        for (index_t r : *rows) fn(g.row(r), g.cols());
      } else {
        for (index_t r = 0; r < g.rows(); ++r) fn(g.row(r), g.cols());
      }
    }
  };
  if (grad_clip_norm_ > 0.0f) {
    double sq = 0.0;
    each_grad_row([&](const float* row, index_t d) {
      sq += static_cast<double>(simd::squared_norm(row, d));
    });
    const double norm = std::sqrt(sq);
    if (norm > grad_clip_norm_) {
      const float scale = grad_clip_norm_ / static_cast<float>(norm);
      each_grad_row([&](float* row, index_t d) { simd::scale(row, d, scale); });
    }
  }
  if (weight_decay_ > 0.0f) {
    const float shrink = 1.0f - lr_ * weight_decay_;
    for (auto& p : params_) p.mutable_value().scale_(shrink);
  }
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (params_[i].has_grad()) update(i, rows_of(i), clear);
  }
}

Sgd::Sgd(std::vector<autograd::Variable> params, float lr, float momentum)
    : Optimizer(std::move(params), lr), momentum_(momentum) {}

void Sgd::update(std::size_t i, const std::vector<index_t>* rows,
                 bool clear) {
  Matrix& w = params_[i].mutable_value();
  Matrix& g = params_[i].grad();
  if (momentum_ == 0.0f) {
    sgd_rows(w, g, rows, lr_, clear);
    return;
  }
  if (velocity_.empty()) {
    velocity_.reserve(params_.size());
    for (auto& p : params_)
      velocity_.emplace_back(p.value().rows(), p.value().cols());
  }
  const auto [list, n] = walk(w, rows);
  profiling::count_flops(4 * n * w.cols());
  SPTX_BY_WIDTH(momentum, w.data(), velocity_[i].data(), g.data(), w.cols(),
                list, n, lr_, momentum_, clear);
}

void sgd_rows(Matrix& w, Matrix& g, const std::vector<index_t>* rows,
              float lr, bool clear) {
  SPTX_CHECK(w.same_shape(g), "sgd_rows: " << w.shape_str() << " vs "
                                           << g.shape_str());
  const auto [list, n] = walk(w, rows);
  profiling::count_flops(2 * n * w.cols());
  SPTX_BY_WIDTH(sgd, w.data(), g.data(), w.cols(), list, n, lr, clear);
}

void Sgd::import_state(std::vector<Matrix> state) {
  check_slot_state(params_, state, "sgd");
  velocity_ = std::move(state);
}

Adagrad::Adagrad(std::vector<autograd::Variable> params, float lr, float eps)
    : Optimizer(std::move(params), lr), eps_(eps) {
  accum_.reserve(params_.size());
  for (auto& p : params_)
    accum_.emplace_back(p.value().rows(), p.value().cols());
}

void Adagrad::update(std::size_t i, const std::vector<index_t>* rows,
                     bool clear) {
  auto& p = params_[i];
  Matrix& w = p.mutable_value();
  const auto [list, n] = walk(w, rows);
  profiling::count_flops(5 * n * w.cols());
  SPTX_BY_WIDTH(adagrad, w.data(), accum_[i].data(), p.grad().data(),
                w.cols(), list, n, lr_, eps_, clear);
}

void Adagrad::import_state(std::vector<Matrix> state) {
  check_slot_state(params_, state, "adagrad");
  // Adagrad allocates its accumulators eagerly, so empty state (a
  // checkpoint taken before any step) keeps the zero-initialised slots.
  if (!state.empty()) accum_ = std::move(state);
}

void StepLr::on_epoch(int epoch) {
  const int decays = step_size_ > 0 ? epoch / step_size_ : 0;
  opt_.set_lr(base_lr_ * std::pow(gamma_, static_cast<float>(decays)));
}

void CosineLr::on_epoch(int epoch) {
  if (total_epochs_ <= 1) return;
  const float t = static_cast<float>(epoch) /
                  static_cast<float>(total_epochs_ - 1);
  const float cos_term = 0.5f * (1.0f + std::cos(3.14159265358979f * t));
  opt_.set_lr(min_lr_ + (base_lr_ - min_lr_) * cos_term);
}

}  // namespace sptx::nn
