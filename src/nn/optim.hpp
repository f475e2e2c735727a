// Gradient-descent optimizers over a fixed parameter list.
#pragma once

#include <cstddef>
#include <vector>

#include "src/nn/tape.hpp"

namespace tsc::nn {

/// Scales gradients so their global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm.
double clip_grad_norm(const std::vector<Parameter*>& params, double max_norm);

/// Same clip over raw gradient tensors held outside the parameters (the
/// sharded PPO update reduces worker gradients into its own buffers and
/// clips those). The fold order over tensors matches the Parameter*
/// overload's order over params, so clipping the same values gives the
/// same result either way.
double clip_grad_norm(std::vector<Tensor>& grads, double max_norm);

class Sgd {
 public:
  Sgd(std::vector<Parameter*> params, double lr) : params_(std::move(params)), lr_(lr) {}
  void step();
  void set_lr(double lr) { lr_ = lr; }

 private:
  std::vector<Parameter*> params_;
  double lr_;
};

/// Adam (Kingma & Ba 2015) with bias correction.
class Adam {
 public:
  struct Config {
    double lr = 3e-4;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double eps = 1e-8;
    double weight_decay = 0.0;  // decoupled (AdamW-style)
  };

  Adam(std::vector<Parameter*> params, Config config);
  explicit Adam(std::vector<Parameter*> params) : Adam(std::move(params), Config{}) {}

  /// Applies one update from the parameters' current gradients:
  /// begin_step() then apply_elements(0, num_elements()).
  void step();

  /// step() in two parts, so disjoint element ranges can be applied on
  /// different threads. begin_step() advances the step count and fixes its
  /// bias corrections; apply_elements(lo, hi) then updates elements
  /// [lo, hi) of the parameters laid end to end in parameter order, from
  /// their grad tensors. Adam is elementwise, so any partition of
  /// [0, num_elements()) applied after one begin_step() is bit-identical to
  /// step(). Ranges applied concurrently must not overlap.
  void begin_step();
  void apply_elements(std::size_t lo, std::size_t hi);
  /// Total elements over all parameters.
  std::size_t num_elements() const { return offsets_.back(); }

  /// Applies one update reading gradients positionally from `grads` instead
  /// of the parameters' own grad tensors; the parameters' grad tensors are
  /// left untouched. Identical arithmetic to step(). Used by the sharded
  /// PPO update, which reduces per-sample gradients outside the parameters.
  /// Throws std::invalid_argument on count or shape mismatch.
  void step_with_grads(const std::vector<Tensor>& grads);

  void set_lr(double lr) { config_.lr = lr; }
  double lr() const { return config_.lr; }
  std::size_t steps_taken() const { return t_; }

  // ---- state access for checkpointing (nn/serialize.cpp) ----
  std::size_t num_params() const { return params_.size(); }
  const std::vector<Parameter*>& params() const { return params_; }
  const std::vector<Tensor>& first_moments() const { return m_; }
  const std::vector<Tensor>& second_moments() const { return v_; }
  /// Restores moments and step count from a checkpoint. Throws
  /// std::invalid_argument unless `m`/`v` match the parameter list
  /// pairwise in count and shape.
  void restore_state(std::vector<Tensor> m, std::vector<Tensor> v,
                     std::size_t t);

 private:
  /// Elements [lo, hi) of parameter k.
  void apply_param(std::size_t k, const Tensor& grad, double bc1, double bc2,
                   std::size_t lo, std::size_t hi);

  std::vector<Parameter*> params_;
  Config config_;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
  /// offsets_[k]: first element of parameter k; offsets_.back(): total.
  std::vector<std::size_t> offsets_;
  std::size_t t_ = 0;
  double bc1_ = 1.0, bc2_ = 1.0;  ///< bias corrections of step t_
};

}  // namespace tsc::nn
