#include "src/nn/optim.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace tsc::nn {

double clip_grad_norm(const std::vector<Parameter*>& params, double max_norm) {
  double total_sq = 0.0;
  for (const Parameter* p : params)
    for (std::size_t i = 0; i < p->grad.size(); ++i) total_sq += p->grad[i] * p->grad[i];
  const double norm = std::sqrt(total_sq);
  if (norm > max_norm && norm > 0.0) {
    const double scale = max_norm / norm;
    for (Parameter* p : params)
      for (std::size_t i = 0; i < p->grad.size(); ++i) p->grad[i] *= scale;
  }
  return norm;
}

double clip_grad_norm(std::vector<Tensor>& grads, double max_norm) {
  double total_sq = 0.0;
  for (const Tensor& g : grads)
    for (std::size_t i = 0; i < g.size(); ++i) total_sq += g[i] * g[i];
  const double norm = std::sqrt(total_sq);
  if (norm > max_norm && norm > 0.0) {
    const double scale = max_norm / norm;
    for (Tensor& g : grads)
      for (std::size_t i = 0; i < g.size(); ++i) g[i] *= scale;
  }
  return norm;
}

void Sgd::step() {
  for (Parameter* p : params_)
    for (std::size_t i = 0; i < p->value.size(); ++i) p->value[i] -= lr_ * p->grad[i];
}

Adam::Adam(std::vector<Parameter*> params, Config config)
    : params_(std::move(params)), config_(config) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  offsets_.assign(1, 0);
  for (const Parameter* p : params_) {
    m_.push_back(Tensor::zeros_like(p->value));
    v_.push_back(Tensor::zeros_like(p->value));
    offsets_.push_back(offsets_.back() + p->value.size());
  }
}

void Adam::apply_param(std::size_t k, const Tensor& grad, double bc1, double bc2,
                       std::size_t lo, std::size_t hi) {
  Parameter& p = *params_[k];
  Tensor& m = m_[k];
  Tensor& v = v_[k];
  for (std::size_t i = lo; i < hi; ++i) {
    const double g = grad[i];
    m[i] = config_.beta1 * m[i] + (1.0 - config_.beta1) * g;
    v[i] = config_.beta2 * v[i] + (1.0 - config_.beta2) * g * g;
    const double m_hat = m[i] / bc1;
    const double v_hat = v[i] / bc2;
    p.value[i] -= config_.lr *
                  (m_hat / (std::sqrt(v_hat) + config_.eps) +
                   config_.weight_decay * p.value[i]);
  }
}

void Adam::step() {
  begin_step();
  apply_elements(0, num_elements());
}

void Adam::begin_step() {
  ++t_;
  bc1_ = 1.0 - std::pow(config_.beta1, static_cast<double>(t_));
  bc2_ = 1.0 - std::pow(config_.beta2, static_cast<double>(t_));
}

void Adam::apply_elements(std::size_t lo, std::size_t hi) {
  assert(lo <= hi && hi <= num_elements());
  for (std::size_t k = 0; k < params_.size() && offsets_[k] < hi; ++k) {
    const std::size_t begin = std::max(lo, offsets_[k]);
    const std::size_t end = std::min(hi, offsets_[k + 1]);
    if (begin < end)
      apply_param(k, params_[k]->grad, bc1_, bc2_, begin - offsets_[k],
                  end - offsets_[k]);
  }
}

void Adam::step_with_grads(const std::vector<Tensor>& grads) {
  if (grads.size() != params_.size())
    throw std::invalid_argument("Adam::step_with_grads: gradient count mismatch");
  for (std::size_t k = 0; k < params_.size(); ++k)
    if (!grads[k].same_shape(params_[k]->value))
      throw std::invalid_argument("Adam::step_with_grads: shape mismatch for " +
                                  params_[k]->name);
  begin_step();
  for (std::size_t k = 0; k < params_.size(); ++k)
    apply_param(k, grads[k], bc1_, bc2_, 0, grads[k].size());
}

void Adam::restore_state(std::vector<Tensor> m, std::vector<Tensor> v,
                         std::size_t t) {
  if (m.size() != params_.size() || v.size() != params_.size())
    throw std::invalid_argument("Adam::restore_state: moment count mismatch");
  for (std::size_t k = 0; k < params_.size(); ++k)
    if (!m[k].same_shape(params_[k]->value) || !v[k].same_shape(params_[k]->value))
      throw std::invalid_argument("Adam::restore_state: shape mismatch for " +
                                  params_[k]->name);
  m_ = std::move(m);
  v_ = std::move(v);
  t_ = t;
}

}  // namespace tsc::nn
