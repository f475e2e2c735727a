// PPO building blocks: the clipped surrogate objective (paper Eq. 4) with
// value and entropy terms, plus configuration shared by the PPO trainers.
#pragma once

#include <cstddef>
#include <vector>

#include "src/nn/tape.hpp"

namespace tsc::rl {

struct PpoConfig {
  double gamma = 0.99;
  double lambda = 0.95;        ///< GAE lambda
  double clip_eps = 0.2;       ///< epsilon in Eq. 4
  double entropy_coef = 0.01;  ///< beta in Eq. 7
  double value_coef = 0.5;
  double lr = 3e-4;
  double max_grad_norm = 0.5;
  std::size_t epochs = 4;       ///< K in Algorithm 1
  std::size_t minibatch = 128;  ///< M in Algorithm 1
  bool normalize_advantages = true;
  /// Action selection during rollout: true samples from pi (standard PPO);
  /// false uses the paper's Algorithm 1 epsilon-greedy argmax.
  bool sample_actions = true;
  double epsilon_start = 0.5;  ///< epsilon-greedy schedule (paper mode)
  double epsilon_end = 0.02;
  std::size_t epsilon_decay_episodes = 100;
};

/// Scalar PPO total loss on `tape`:
///     L = -L_clip + value_coef * L_value - entropy_coef * H
/// Inputs:
///   new_logp   [B,1]  log pi_new(a_t | s_t) for the stored actions
///   entropy    [1]    mean policy entropy over the minibatch
///   values     [B,1]  V_new(s_t)
///   old_logp / advantages / returns: stored rollout statistics (size B).
nn::Var ppo_total_loss(nn::Tape& tape, nn::Var new_logp, nn::Var entropy,
                       nn::Var values, const std::vector<double>& old_logp,
                       const std::vector<double>& advantages,
                       const std::vector<double>& returns, const PpoConfig& config);

/// Policy entropy of a [B, A] logits node: mean over rows of
/// -sum_a p log p. Returns a scalar node.
nn::Var policy_entropy(nn::Tape& tape, nn::Var logits);

/// policy_entropy with an explicit divisor instead of the node's own row
/// count: identical op sequence, but scaled by -1/divisor. The sharded PPO
/// update (core/update_engine.cpp) evaluates graphs over a contiguous slice
/// of the minibatch that must contribute gradients as its exact
/// rows/minibatch share of the batched graph, so it passes the full
/// minibatch size here regardless of the node's row count.
nn::Var policy_entropy_scaled(nn::Tape& tape, nn::Var logits, std::size_t divisor);

/// The same objective as ppo_total_loss, but with every batch mean written
/// as sum()/divisor (Tape::div_scalar) so a graph over any subset of a
/// minibatch contributes its exact share of the full minibatch gradient.
/// With rows == divisor the two losses are the same objective; the backward
/// arithmetic is engineered to match ppo_total_loss rounding-for-rounding
/// (see core/update_engine.hpp for the argument). Callers pass a contiguous
/// minibatch slice at rows <= divisor (one shard's rows). `entropy` must
/// come from policy_entropy_scaled with the same divisor.
nn::Var ppo_shard_loss(nn::Tape& tape, nn::Var new_logp, nn::Var entropy,
                       nn::Var values, const std::vector<double>& old_logp,
                       const std::vector<double>& advantages,
                       const std::vector<double>& returns, std::size_t divisor,
                       const PpoConfig& config);

/// Tape-free fused PPO loss + gradient: evaluates the same objective as
/// ppo_shard_loss (== ppo_total_loss when divisor == rows, where mean() and
/// sum()/divisor are the same expression) over masked `logits` [rows, A]
/// and `values` [rows, 1], and emits the gradient of the loss w.r.t. the
/// logits and values directly into `dlogits` / `dvalues` (every element
/// assigned; both reshaped here). `p` / `logp` are caller-provided scratch
/// filled with softmax / log-softmax of the logits (retained because the
/// backward reads them). Every arithmetic chain — the ratio/clip surrogate,
/// the value MSE, the entropy term, and all three logits-gradient
/// contributions (softmax, log-softmax, gathered action log-prob, in the
/// tape's descending node order) — replays the tape's rounding exactly, so
/// the returned loss and the emitted gradients are bit-identical to
/// building the graph and calling Tape::backward (pinned by
/// tests/test_backward_path.cpp). It is fused_policy_loss_grad plus
/// fused_value_loss_grad, combined by ppo_loss_from_terms.
double fused_ppo_loss_grad(const nn::Tensor& logits, const nn::Tensor& values,
                           const std::vector<std::size_t>& actions,
                           const std::vector<double>& old_logp,
                           const std::vector<double>& advantages,
                           const std::vector<double>& returns,
                           std::size_t divisor, const PpoConfig& config,
                           nn::Tensor& p, nn::Tensor& logp, nn::Tensor& dlogits,
                           nn::Tensor& dvalues);

/// The policy terms of the loss: the clipped surrogate mean (po) and the
/// policy entropy mean, each already divided by the divisor.
struct PolicyLossTerms {
  double surrogate = 0.0;
  double entropy = 0.0;
};

/// The actor's half of fused_ppo_loss_grad: fills `p`, `logp` and
/// `dlogits` exactly as it does and returns the policy terms. Reads nothing
/// of the critic, so it can run beside fused_value_loss_grad.
PolicyLossTerms fused_policy_loss_grad(const nn::Tensor& logits,
                                       const std::vector<std::size_t>& actions,
                                       const std::vector<double>& old_logp,
                                       const std::vector<double>& advantages,
                                       std::size_t divisor,
                                       const PpoConfig& config, nn::Tensor& p,
                                       nn::Tensor& logp, nn::Tensor& dlogits);

/// The critic's half of fused_ppo_loss_grad: fills `dvalues` exactly as it
/// does and returns the value loss (the squared-error sum / divisor).
double fused_value_loss_grad(const nn::Tensor& values,
                             const std::vector<double>& returns,
                             std::size_t divisor, const PpoConfig& config,
                             nn::Tensor& dvalues);

/// The scalar loss from the two halves, in fused_ppo_loss_grad's (and the
/// tape graph's) expression order: -po + (value_coef·vl − entropy_coef·H).
double ppo_loss_from_terms(const PolicyLossTerms& policy, double value_loss,
                           const PpoConfig& config);

/// Linear epsilon decay: start -> end over `decay_episodes`.
double epsilon_at(std::size_t episode, const PpoConfig& config);

}  // namespace tsc::rl
