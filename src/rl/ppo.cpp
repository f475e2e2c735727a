#include "src/rl/ppo.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/nn/inference.hpp"

namespace tsc::rl {

nn::Var ppo_total_loss(nn::Tape& tape, nn::Var new_logp, nn::Var entropy,
                       nn::Var values, const std::vector<double>& old_logp,
                       const std::vector<double>& advantages,
                       const std::vector<double>& returns, const PpoConfig& config) {
  const std::size_t batch = old_logp.size();
  assert(advantages.size() == batch && returns.size() == batch);
  assert(tape.value(new_logp).rows() == batch && tape.value(new_logp).cols() == 1);
  assert(tape.value(values).rows() == batch && tape.value(values).cols() == 1);

  std::vector<double> old_logp_col(old_logp);
  nn::Var old_logp_node =
      tape.constant(nn::Tensor::matrix(batch, 1, std::move(old_logp_col)));
  std::vector<double> adv_col(advantages);
  nn::Var adv_node = tape.constant(nn::Tensor::matrix(batch, 1, std::move(adv_col)));

  // ratio = exp(logp_new - logp_old), clipped surrogate (Eq. 4).
  nn::Var ratio = tape.exp(tape.sub(new_logp, old_logp_node));
  nn::Var unclipped = tape.mul(ratio, adv_node);
  nn::Var clipped = tape.mul(
      tape.clamp(ratio, 1.0 - config.clip_eps, 1.0 + config.clip_eps), adv_node);
  nn::Var policy_objective = tape.mean(tape.min_elem(unclipped, clipped));

  std::vector<double> ret_col(returns);
  nn::Var ret_node = tape.constant(nn::Tensor::matrix(batch, 1, std::move(ret_col)));
  nn::Var value_loss = tape.mean(tape.square(tape.sub(values, ret_node)));

  nn::Var loss = tape.add(
      tape.neg(policy_objective),
      tape.sub(tape.scale(value_loss, config.value_coef),
               tape.scale(entropy, config.entropy_coef)));
  return loss;
}

nn::Var policy_entropy(nn::Tape& tape, nn::Var logits) {
  return policy_entropy_scaled(tape, logits, tape.value(logits).rows());
}

nn::Var policy_entropy_scaled(nn::Tape& tape, nn::Var logits, std::size_t divisor) {
  nn::Var logp = tape.log_softmax_rows(logits);
  nn::Var p = tape.softmax_rows(logits);
  // H = -mean_rows sum_a p*logp == -sum(p*logp)/divisor
  nn::Var plogp = tape.sum(tape.mul(p, logp));
  return tape.scale(plogp, -1.0 / static_cast<double>(divisor));
}

nn::Var ppo_shard_loss(nn::Tape& tape, nn::Var new_logp, nn::Var entropy,
                       nn::Var values, const std::vector<double>& old_logp,
                       const std::vector<double>& advantages,
                       const std::vector<double>& returns, std::size_t divisor,
                       const PpoConfig& config) {
  const std::size_t batch = old_logp.size();
  assert(divisor >= batch && divisor > 0);
  assert(advantages.size() == batch && returns.size() == batch);
  assert(tape.value(new_logp).rows() == batch && tape.value(new_logp).cols() == 1);
  assert(tape.value(values).rows() == batch && tape.value(values).cols() == 1);

  std::vector<double> old_logp_col(old_logp);
  nn::Var old_logp_node =
      tape.constant(nn::Tensor::matrix(batch, 1, std::move(old_logp_col)));
  std::vector<double> adv_col(advantages);
  nn::Var adv_node = tape.constant(nn::Tensor::matrix(batch, 1, std::move(adv_col)));

  nn::Var ratio = tape.exp(tape.sub(new_logp, old_logp_node));
  nn::Var unclipped = tape.mul(ratio, adv_node);
  nn::Var clipped = tape.mul(
      tape.clamp(ratio, 1.0 - config.clip_eps, 1.0 + config.clip_eps), adv_node);
  nn::Var policy_objective = tape.div_scalar(
      tape.sum(tape.min_elem(unclipped, clipped)), static_cast<double>(divisor));

  std::vector<double> ret_col(returns);
  nn::Var ret_node = tape.constant(nn::Tensor::matrix(batch, 1, std::move(ret_col)));
  nn::Var value_loss = tape.div_scalar(tape.sum(tape.square(tape.sub(values, ret_node))),
                                       static_cast<double>(divisor));

  nn::Var loss = tape.add(
      tape.neg(policy_objective),
      tape.sub(tape.scale(value_loss, config.value_coef),
               tape.scale(entropy, config.entropy_coef)));
  return loss;
}

PolicyLossTerms fused_policy_loss_grad(const nn::Tensor& logits,
                                       const std::vector<std::size_t>& actions,
                                       const std::vector<double>& old_logp,
                                       const std::vector<double>& advantages,
                                       std::size_t divisor,
                                       const PpoConfig& config, nn::Tensor& p,
                                       nn::Tensor& logp, nn::Tensor& dlogits) {
  const std::size_t rows = logits.rows();
  const std::size_t cols = logits.cols();
  assert(divisor >= rows && divisor > 0);
  assert(actions.size() == rows && old_logp.size() == rows);
  assert(advantages.size() == rows);

  nn::softmax_rows_into(p, logits);
  nn::log_softmax_rows_into(logp, logits);
  dlogits.reshape(rows, cols);

  const double d = static_cast<double>(divisor);
  const double lo = 1.0 - config.clip_eps;
  const double hi = 1.0 + config.clip_eps;
  const double c_ent = -1.0 / d;
  const double* plp = logp.data();
  const double* pp = p.data();

  // ---- loss forward, rounding-for-rounding the tape graph's values ----
  // (ascending-row sums; each tensor op's intermediate rounded exactly
  // where the tape's node would round it).
  double po_sum = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    const double nl = plp[r * cols + actions[r]];
    const double ratio = std::exp(nl - old_logp[r]);
    const double u = ratio * advantages[r];
    const double cl = std::clamp(ratio, lo, hi) * advantages[r];
    po_sum += std::min(u, cl);
  }
  double plogp = 0.0;
  for (std::size_t i = 0; i < rows * cols; ++i) plogp += pp[i] * plp[i];
  PolicyLossTerms terms;
  terms.entropy = plogp * c_ent;
  terms.surrogate = po_sum / d;

  // ---- backward scalars, in the tape's descending node order ----
  // Every `0.0 +` is a tape node-grad seed (`grad += term` onto zeros): it
  // flushes -0.0 to +0.0 exactly where the tape would.
  const double g_se = 0.0 - 1.0;                        // sub backward
  const double g_e = 0.0 + config.entropy_coef * g_se;  // scale backward
  const double g_s = 0.0 + c_ent * g_e;
  const double g_m = 0.0 + g_s;                         // sum backward
  const double g_po = 0.0 + -1.0 * 1.0;                 // neg (scale by -1)
  const double g_sm = 0.0 + g_po / d;

  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t a = actions[r];
    // Replay the surrogate chain's forward values for this row.
    const double nl = plp[r * cols + a];
    const double ratio = std::exp(nl - old_logp[r]);
    const double u = ratio * advantages[r];
    const double cl = std::clamp(ratio, lo, hi) * advantages[r];
    // min_elem -> mul/clamp/mul -> exp -> sub -> gather backward. The
    // ratio's two contributions land in the tape's order: the clamp
    // passthrough first (higher node index), then the unclipped product.
    const double g_mn = 0.0 + g_sm;
    double g_u = 0.0;
    double g_cl = 0.0;
    if (u < cl) {
      g_u += g_mn;
    } else if (cl < u) {
      g_cl += g_mn;
    } else {
      g_u += 0.5 * g_mn;
      g_cl += 0.5 * g_mn;
    }
    const double g_c = 0.0 + g_cl * advantages[r];
    double g_r = 0.0;
    if (ratio > lo && ratio < hi) g_r += g_c;
    g_r += g_u * advantages[r];
    const double g_sb = 0.0 + g_r * ratio;  // exp backward (y == ratio)
    const double g_nl = 0.0 + g_sb;
    // gather_cols scatters g_nl into one column of the action
    // log-softmax's grad; its row sum over that one-hot row is g_nl.
    const double g_sum1 = 0.0 + g_nl;

    // Entropy-term grads: the softmax node's backward runs first (highest
    // node index), then the entropy log-softmax, then the gathered one —
    // dlogits[rc] accumulates ((0 + t3) + t2) + t1 in that order.
    const double* lprow = plp + r * cols;
    const double* prow = pp + r * cols;
    double* drow = dlogits.data() + r * cols;
    double dot = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      const double g_p = 0.0 + g_m * lprow[c];  // mul backward -> softmax in
      dot += g_p * prow[c];
    }
    double g_sum2 = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      g_sum2 += 0.0 + g_m * prow[c];  // mul backward -> log-softmax in
    }
    for (std::size_t c = 0; c < cols; ++c) {
      const double g_p = 0.0 + g_m * lprow[c];
      const double g_lp = 0.0 + g_m * prow[c];
      const double ey = std::exp(lprow[c]);
      const double t3 = prow[c] * (g_p - dot);
      const double t2 = g_lp - ey * g_sum2;
      const double g1 = (c == a) ? g_nl : 0.0;
      const double t1 = g1 - ey * g_sum1;
      drow[c] = 0.0 + t3 + t2 + t1;
    }
  }
  return terms;
}


double fused_value_loss_grad(const nn::Tensor& values,
                             const std::vector<double>& returns,
                             std::size_t divisor, const PpoConfig& config,
                             nn::Tensor& dvalues) {
  const std::size_t rows = values.rows();
  assert(divisor >= rows && divisor > 0);
  assert(returns.size() == rows && values.cols() == 1);
  dvalues.reshape(rows, 1);
  const double d = static_cast<double>(divisor);
  const double* pv = values.data();

  double ss = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    const double vs = pv[r] - returns[r];
    ss += vs * vs;
  }

  // Backward scalars as in fused_policy_loss_grad's tape-order chain.
  const double g_vl = 0.0 + config.value_coef * 1.0;
  const double g_ss = 0.0 + g_vl / d;  // div_scalar backward
  const double g_sq = 0.0 + g_ss;      // sum backward, broadcast per row
  for (std::size_t r = 0; r < rows; ++r) {
    const double vs = pv[r] - returns[r];
    const double g_vs = 0.0 + 2.0 * g_sq * vs;  // square backward
    dvalues[r] = 0.0 + g_vs;                    // sub backward -> dV
  }
  return ss / d;
}

double ppo_loss_from_terms(const PolicyLossTerms& policy, double value_loss,
                           const PpoConfig& config) {
  return (policy.surrogate * -1.0) +
         ((value_loss * config.value_coef) - (policy.entropy * config.entropy_coef));
}

double fused_ppo_loss_grad(const nn::Tensor& logits, const nn::Tensor& values,
                           const std::vector<std::size_t>& actions,
                           const std::vector<double>& old_logp,
                           const std::vector<double>& advantages,
                           const std::vector<double>& returns,
                           std::size_t divisor, const PpoConfig& config,
                           nn::Tensor& p, nn::Tensor& logp, nn::Tensor& dlogits,
                           nn::Tensor& dvalues) {
  assert(values.rows() == logits.rows());
  const PolicyLossTerms policy = fused_policy_loss_grad(
      logits, actions, old_logp, advantages, divisor, config, p, logp, dlogits);
  const double value_loss =
      fused_value_loss_grad(values, returns, divisor, config, dvalues);
  return ppo_loss_from_terms(policy, value_loss, config);
}

double epsilon_at(std::size_t episode, const PpoConfig& config) {
  if (config.epsilon_decay_episodes == 0) return config.epsilon_end;
  const double frac =
      std::min(1.0, static_cast<double>(episode) /
                        static_cast<double>(config.epsilon_decay_episodes));
  return config.epsilon_start + frac * (config.epsilon_end - config.epsilon_start);
}

}  // namespace tsc::rl
