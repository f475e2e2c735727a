#include "src/core/update_engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <future>
#include <stdexcept>
#include <string>

#include "src/rl/ppo.hpp"

namespace tsc::core {

using tsc::nn::Tape;
using tsc::nn::Tensor;
using tsc::nn::Var;

namespace {

// Packs minibatch sample fields straight into recycled alloc_constant()
// nodes: no per-row vector intermediates and — after the first minibatch —
// no allocation at all, since reset() returns each node's backing storage
// to the tape's recycle pool.
struct PackedInputs {
  Var input, h_a, c_a;
};
struct PackedCriticInputs {
  Var v_input, h_v, c_v;
};

PackedInputs pack_actor_inputs(Tape& tape, const CoordinatedActor& actor,
                               const std::vector<const rl::Sample*>& samples,
                               const std::vector<std::size_t>& order,
                               std::size_t begin, std::size_t rows,
                               std::size_t hidden) {
  PackedInputs p;
  p.input = tape.alloc_constant(rows, actor.input_dim());
  p.h_a = tape.alloc_constant(rows, hidden);
  p.c_a = tape.alloc_constant(rows, hidden);
  Tensor& in_t = tape.mutable_value(p.input);
  Tensor& ha_t = tape.mutable_value(p.h_a);
  Tensor& ca_t = tape.mutable_value(p.c_a);
  for (std::size_t r = 0; r < rows; ++r) {
    const rl::Sample& s = *samples[order[begin + r]];
    assert(s.obs.size() == actor.input_dim());
    std::copy(s.obs.begin(), s.obs.end(), in_t.data() + r * actor.input_dim());
    std::copy(s.h_actor.begin(), s.h_actor.end(), ha_t.data() + r * hidden);
    std::copy(s.c_actor.begin(), s.c_actor.end(), ca_t.data() + r * hidden);
  }
  return p;
}

PackedCriticInputs pack_critic_inputs(Tape& tape, const CentralizedCritic& critic,
                                      const std::vector<const rl::Sample*>& samples,
                                      const std::vector<std::size_t>& order,
                                      std::size_t begin, std::size_t rows,
                                      std::size_t hidden) {
  PackedCriticInputs p;
  p.v_input = tape.alloc_constant(rows, critic.input_dim());
  p.h_v = tape.alloc_constant(rows, hidden);
  p.c_v = tape.alloc_constant(rows, hidden);
  Tensor& vi_t = tape.mutable_value(p.v_input);
  Tensor& hv_t = tape.mutable_value(p.h_v);
  Tensor& cv_t = tape.mutable_value(p.c_v);
  for (std::size_t r = 0; r < rows; ++r) {
    const rl::Sample& s = *samples[order[begin + r]];
    assert(s.critic_obs.size() == critic.input_dim());
    std::copy(s.critic_obs.begin(), s.critic_obs.end(),
              vi_t.data() + r * critic.input_dim());
    std::copy(s.h_critic.begin(), s.h_critic.end(), hv_t.data() + r * hidden);
    std::copy(s.c_critic.begin(), s.c_critic.end(), cv_t.data() + r * hidden);
  }
  return p;
}

PackedInputs pack_actor_inputs(Tape& tape, const PackedSampleBlock& block,
                               const std::vector<std::size_t>& order,
                               std::size_t begin, std::size_t rows) {
  PackedInputs p;
  p.input = tape.alloc_constant(rows, block.obs_dim());
  p.h_a = tape.alloc_constant(rows, block.hidden());
  p.c_a = tape.alloc_constant(rows, block.hidden());
  Tensor& in_t = tape.mutable_value(p.input);
  Tensor& ha_t = tape.mutable_value(p.h_a);
  Tensor& ca_t = tape.mutable_value(p.c_a);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t src = order[begin + r];
    std::copy(block.obs_row(src), block.obs_row(src) + block.obs_dim(),
              in_t.data() + r * block.obs_dim());
    std::copy(block.h_actor_row(src), block.h_actor_row(src) + block.hidden(),
              ha_t.data() + r * block.hidden());
    std::copy(block.c_actor_row(src), block.c_actor_row(src) + block.hidden(),
              ca_t.data() + r * block.hidden());
  }
  return p;
}

PackedCriticInputs pack_critic_inputs(Tape& tape, const PackedSampleBlock& block,
                                      const std::vector<std::size_t>& order,
                                      std::size_t begin, std::size_t rows) {
  PackedCriticInputs p;
  p.v_input = tape.alloc_constant(rows, block.critic_dim());
  p.h_v = tape.alloc_constant(rows, block.hidden());
  p.c_v = tape.alloc_constant(rows, block.hidden());
  Tensor& vi_t = tape.mutable_value(p.v_input);
  Tensor& hv_t = tape.mutable_value(p.h_v);
  Tensor& cv_t = tape.mutable_value(p.c_v);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t src = order[begin + r];
    std::copy(block.critic_obs_row(src),
              block.critic_obs_row(src) + block.critic_dim(),
              vi_t.data() + r * block.critic_dim());
    std::copy(block.h_critic_row(src), block.h_critic_row(src) + block.hidden(),
              hv_t.data() + r * block.hidden());
    std::copy(block.c_critic_row(src), block.c_critic_row(src) + block.hidden(),
              cv_t.data() + r * block.hidden());
  }
  return p;
}

/// Minibatch PPO scalars gathered from either source (values identical).
void gather_scalars(const std::vector<const rl::Sample*>& samples,
                    const PackedSampleBlock* block,
                    const std::vector<std::size_t>& order, std::size_t begin,
                    std::size_t rows, std::vector<std::size_t>& actions,
                    std::vector<std::size_t>& phase_counts,
                    std::vector<double>& old_logp,
                    std::vector<double>& advantages,
                    std::vector<double>& returns) {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t src = order[begin + r];
    if (block != nullptr) {
      actions[r] = block->action(src);
      old_logp[r] = block->log_prob(src);
      advantages[r] = block->advantage(src);
      returns[r] = block->ret(src);
      phase_counts[r] = block->phase_count(src);
    } else {
      const rl::Sample& s = *samples[src];
      actions[r] = s.action;
      old_logp[r] = s.log_prob;
      advantages[r] = s.advantage;
      returns[r] = s.ret;
      phase_counts[r] = s.phase_count;
    }
  }
}

/// Copies `width` values from `src` into row `r` of `dst`, after checking
/// that the row has the width the network reads (a mismatched buffer would
/// otherwise be read or written past its end).
void copy_row(const double* src, std::size_t width, Tensor& dst, std::size_t r,
              const char* what) {
  if (width != dst.cols())
    throw std::invalid_argument(std::string("minibatch ") + what + " row has " +
                                std::to_string(width) + " values, the network "
                                "reads " + std::to_string(dst.cols()));
  std::copy(src, src + width, dst.data() + r * width);
}

/// The actor's half of one fused minibatch pass on `ws` (after the caller's
/// begin_pass): gathers the actor's rows and PPO scalars, runs the traced
/// forward, the policy half of the loss, and the analytic backward into
/// `sinks`. Touches nothing the critic half touches.
rl::PolicyLossTerms fused_actor_half(
    nn::Workspace& ws, const CoordinatedActor& actor,
    const std::vector<const rl::Sample*>& samples, const PackedSampleBlock* block,
    const std::vector<std::size_t>& order, std::size_t begin, std::size_t rows,
    std::size_t batch, const rl::PpoConfig& ppo, Tensor* const* sinks,
    util::Crew* crew) {
  std::vector<std::size_t> actions(rows), phase_counts(rows);
  std::vector<double> old_logp(rows), advantages(rows);
  Tensor& input = ws.acquire(rows, actor.input_dim());
  Tensor& h = ws.acquire(rows, actor.hidden_size());
  Tensor& c = ws.acquire(rows, actor.hidden_size());
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t src = order[begin + r];
    if (block != nullptr) {
      copy_row(block->obs_row(src), block->obs_dim(), input, r, "actor input");
      copy_row(block->h_actor_row(src), block->hidden(), h, r, "actor h");
      copy_row(block->c_actor_row(src), block->hidden(), c, r, "actor c");
      actions[r] = block->action(src);
      phase_counts[r] = block->phase_count(src);
      old_logp[r] = block->log_prob(src);
      advantages[r] = block->advantage(src);
    } else {
      const rl::Sample& s = *samples[src];
      copy_row(s.obs.data(), s.obs.size(), input, r, "actor input");
      copy_row(s.h_actor.data(), s.h_actor.size(), h, r, "actor h");
      copy_row(s.c_actor.data(), s.c_actor.size(), c, r, "actor c");
      actions[r] = s.action;
      phase_counts[r] = s.phase_count;
      old_logp[r] = s.log_prob;
      advantages[r] = s.advantage;
    }
  }
  CoordinatedActor::TrainActivations acts;
  const Tensor& logits =
      actor.forward_train(ws, input, h, c, phase_counts, acts, crew);
  Tensor& p = ws.acquire(rows, actor.max_phases());
  Tensor& logp = ws.acquire(rows, actor.max_phases());
  Tensor& dlogits = ws.acquire(rows, actor.max_phases());
  const rl::PolicyLossTerms terms = rl::fused_policy_loss_grad(
      logits, actions, old_logp, advantages, batch, ppo, p, logp, dlogits);
  actor.backward_train(ws, acts, dlogits, sinks, crew);
  return terms;
}

/// The critic's half of the same pass: its rows and returns, traced
/// forward, value half of the loss, backward. Returns the value loss.
/// `returns` is the caller's `rows`-long scratch, so a helper thread running
/// this half never allocates.
double fused_critic_half(nn::Workspace& ws, const CentralizedCritic& critic,
                         const std::vector<const rl::Sample*>& samples,
                         const PackedSampleBlock* block,
                         const std::vector<std::size_t>& order,
                         std::size_t begin, std::size_t rows, std::size_t batch,
                         const rl::PpoConfig& ppo, Tensor* const* sinks,
                         std::vector<double>& returns, util::Crew* crew) {
  Tensor& input = ws.acquire(rows, critic.input_dim());
  Tensor& h = ws.acquire(rows, critic.hidden_size());
  Tensor& c = ws.acquire(rows, critic.hidden_size());
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t src = order[begin + r];
    if (block != nullptr) {
      copy_row(block->critic_obs_row(src), block->critic_dim(), input, r,
               "critic input");
      copy_row(block->h_critic_row(src), block->hidden(), h, r, "critic h");
      copy_row(block->c_critic_row(src), block->hidden(), c, r, "critic c");
      returns[r] = block->ret(src);
    } else {
      const rl::Sample& s = *samples[src];
      copy_row(s.critic_obs.data(), s.critic_obs.size(), input, r,
               "critic input");
      copy_row(s.h_critic.data(), s.h_critic.size(), h, r, "critic h");
      copy_row(s.c_critic.data(), s.c_critic.size(), c, r, "critic c");
      returns[r] = s.ret;
    }
  }
  CentralizedCritic::TrainActivations acts;
  const Tensor& values = critic.forward_train(ws, input, h, c, acts, crew);
  Tensor& dvalues = ws.acquire(rows, 1);
  const double value_loss =
      rl::fused_value_loss_grad(values, returns, batch, ppo, dvalues);
  critic.backward_train(ws, acts, dvalues, sinks, crew);
  return value_loss;
}

/// The end of every minibatch update: clip (one ordered sum on the calling
/// thread), the non-finite guard, Adam. With a team, Adam's elements are
/// split into balanced ranges over all its threads (Adam is elementwise,
/// so any split is exact).
void clip_and_step(UpdateContext& ctx, double loss, std::size_t begin,
                   std::size_t end) {
  const double norm =
      nn::clip_grad_norm(ctx.params, ctx.config->ppo.max_grad_norm);
  if (!std::isfinite(loss) || !std::isfinite(norm))
    throw TrainingDiverged(begin, end, loss, norm);
  nn::Adam& optim = *ctx.optim;
  optim.begin_step();
  nn::run_parts(ctx.team != nullptr ? &ctx.team->threads().all() : nullptr,
                [&optim](std::size_t part, std::size_t parts) {
                  const nn::IndexRange elems =
                      nn::even_range(optim.num_elements(), part, parts);
                  optim.apply_elements(elems.begin, elems.end);
                });
}

}  // namespace

TrainingDiverged::TrainingDiverged(std::size_t begin, std::size_t end,
                                   double loss, double grad_norm)
    : std::runtime_error("PPO minibatch [" + std::to_string(begin) + ", " +
                         std::to_string(end) + ") diverged: loss " +
                         std::to_string(loss) + ", pre-clip gradient norm " +
                         std::to_string(grad_norm) +
                         "; its Adam step was not applied"),
      begin_(begin),
      end_(end) {}

void PackedSampleBlock::build(const std::vector<const rl::Sample*>& samples,
                              std::size_t obs_dim, std::size_t critic_dim,
                              std::size_t hidden) {
  // Every row of every field is checked before anything is resized or
  // copied: a short or long row would otherwise overrun the block, and a
  // throw leaves the previous block intact.
  struct Field {
    const char* name;
    std::vector<double> rl::Sample::*values;
    std::size_t width;
  };
  const Field fields[] = {
      {"obs", &rl::Sample::obs, obs_dim},
      {"critic_obs", &rl::Sample::critic_obs, critic_dim},
      {"h_actor", &rl::Sample::h_actor, hidden},
      {"c_actor", &rl::Sample::c_actor, hidden},
      {"h_critic", &rl::Sample::h_critic, hidden},
      {"c_critic", &rl::Sample::c_critic, hidden},
  };
  for (std::size_t r = 0; r < samples.size(); ++r)
    for (const Field& f : fields)
      if ((samples[r]->*f.values).size() != f.width)
        throw std::invalid_argument(
            std::string("PackedSampleBlock: sample ") + std::to_string(r) +
            " has " + std::to_string((samples[r]->*f.values).size()) + " " +
            f.name + " values, the block expects " + std::to_string(f.width));

  rows_ = samples.size();
  obs_dim_ = obs_dim;
  critic_dim_ = critic_dim;
  hidden_ = hidden;
  obs_.resize(rows_ * obs_dim_);
  h_a_.resize(rows_ * hidden_);
  c_a_.resize(rows_ * hidden_);
  critic_obs_.resize(rows_ * critic_dim_);
  h_v_.resize(rows_ * hidden_);
  c_v_.resize(rows_ * hidden_);
  actions_.resize(rows_);
  phase_counts_.resize(rows_);
  log_probs_.resize(rows_);
  advantages_.resize(rows_);
  returns_.resize(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const rl::Sample& s = *samples[r];
    std::copy(s.obs.begin(), s.obs.end(), obs_.data() + r * obs_dim_);
    std::copy(s.h_actor.begin(), s.h_actor.end(), h_a_.data() + r * hidden_);
    std::copy(s.c_actor.begin(), s.c_actor.end(), c_a_.data() + r * hidden_);
    std::copy(s.critic_obs.begin(), s.critic_obs.end(),
              critic_obs_.data() + r * critic_dim_);
    std::copy(s.h_critic.begin(), s.h_critic.end(), h_v_.data() + r * hidden_);
    std::copy(s.c_critic.begin(), s.c_critic.end(), c_v_.data() + r * hidden_);
    actions_[r] = s.action;
    phase_counts_[r] = s.phase_count;
    log_probs_[r] = s.log_prob;
    advantages_[r] = s.advantage;
    returns_[r] = s.ret;
  }
}

double serial_minibatch_update(UpdateContext& ctx,
                               const std::vector<const rl::Sample*>& samples,
                               const std::vector<std::size_t>& order,
                               std::size_t begin, std::size_t end) {
  assert(begin < end && end <= order.size());
  CoordinatedActor& actor = *ctx.actor;
  CentralizedCritic& critic = *ctx.critic;
  const PairUpConfig& config = *ctx.config;
  const std::size_t batch = end - begin;

  if (config.update_path == UpdatePath::kFused) {
    assert(ctx.backward != nullptr);
    // The fused kernels accumulate, so the sinks start from zero_grad's
    // +0.0 like the tape's; clip + step are the tape path's own calls.
    actor.zero_grad();
    critic.zero_grad();
    std::vector<Tensor*> sinks;
    sinks.reserve(ctx.params.size());
    for (nn::Parameter* p : ctx.params) sinks.push_back(&p->grad);
    const std::size_t actor_count = actor.parameters().size();
    const double loss = fused_shard_loss_and_grads(
        *ctx.backward, actor, critic, samples, order, begin, end, batch,
        config, ctx.block, sinks.data(), sinks.data() + actor_count, ctx.team);
    clip_and_step(ctx, loss, begin, end);
    return loss;
  }

  Tape& tape = *ctx.tape;

  std::vector<std::size_t> actions(batch), phase_counts(batch);
  std::vector<double> old_logp(batch), advantages(batch), returns(batch);
  gather_scalars(samples, ctx.block, order, begin, batch, actions, phase_counts,
                 old_logp, advantages, returns);

  tape.reset();
  PackedInputs a_in =
      ctx.block != nullptr
          ? pack_actor_inputs(tape, *ctx.block, order, begin, batch)
          : pack_actor_inputs(tape, actor, samples, order, begin, batch,
                              config.hidden);
  auto actor_out =
      actor.forward(tape, a_in.input, a_in.h_a, a_in.c_a, phase_counts);
  Var logp_all = tape.log_softmax_rows(actor_out.logits);
  Var new_logp = tape.gather_cols(logp_all, actions);
  Var entropy = rl::policy_entropy(tape, actor_out.logits);

  PackedCriticInputs c_in =
      ctx.block != nullptr
          ? pack_critic_inputs(tape, *ctx.block, order, begin, batch)
          : pack_critic_inputs(tape, critic, samples, order, begin, batch,
                               config.hidden);
  auto critic_out = critic.forward(tape, c_in.v_input, c_in.h_v, c_in.c_v);

  Var loss = rl::ppo_total_loss(tape, new_logp, entropy, critic_out.value,
                                old_logp, advantages, returns, config.ppo);
  actor.zero_grad();
  critic.zero_grad();
  tape.backward(loss);
  const double loss_value = tape.value(loss)[0];
  clip_and_step(ctx, loss_value, begin, end);
  return loss_value;
}

double shard_loss_and_grads(nn::Tape& tape, CoordinatedActor& actor,
                            CentralizedCritic& critic,
                            const std::vector<const rl::Sample*>& samples,
                            const std::vector<std::size_t>& order,
                            std::size_t begin, std::size_t end,
                            std::size_t batch, const PairUpConfig& config,
                            const PackedSampleBlock* block) {
  assert(begin < end && end <= order.size());
  const std::size_t rows = end - begin;

  std::vector<std::size_t> actions(rows), phase_counts(rows);
  std::vector<double> old_logp(rows), advantages(rows), returns(rows);
  gather_scalars(samples, block, order, begin, rows, actions, phase_counts,
                 old_logp, advantages, returns);

  tape.reset();
  // Same node layout as serial_minibatch_update but at `rows` rows and with
  // the GLOBAL batch divisor: the shard contributes its rows/batch share of
  // the minibatch loss and gradients.
  PackedInputs a_in =
      block != nullptr
          ? pack_actor_inputs(tape, *block, order, begin, rows)
          : pack_actor_inputs(tape, actor, samples, order, begin, rows,
                              actor.hidden_size());
  auto actor_out =
      actor.forward(tape, a_in.input, a_in.h_a, a_in.c_a, phase_counts);
  Var logp_all = tape.log_softmax_rows(actor_out.logits);
  Var new_logp = tape.gather_cols(logp_all, actions);
  Var entropy = rl::policy_entropy_scaled(tape, actor_out.logits, batch);

  PackedCriticInputs c_in =
      block != nullptr
          ? pack_critic_inputs(tape, *block, order, begin, rows)
          : pack_critic_inputs(tape, critic, samples, order, begin, rows,
                               critic.hidden_size());
  auto critic_out = critic.forward(tape, c_in.v_input, c_in.h_v, c_in.c_v);

  Var loss = rl::ppo_shard_loss(tape, new_logp, entropy, critic_out.value,
                                old_logp, advantages, returns, batch,
                                config.ppo);
  tape.backward(loss);
  return tape.value(loss)[0];
}

double fused_shard_loss_and_grads(nn::Workspace& ws,
                                  CoordinatedActor& actor,
                                  CentralizedCritic& critic,
                                  const std::vector<const rl::Sample*>& samples,
                                  const std::vector<std::size_t>& order,
                                  std::size_t begin, std::size_t end,
                                  std::size_t batch, const PairUpConfig& config,
                                  const PackedSampleBlock* block,
                                  nn::Tensor* const* actor_sinks,
                                  nn::Tensor* const* critic_sinks,
                                  UpdateTeam* team) {
  assert(begin < end && end <= order.size());
  const std::size_t rows = end - begin;
  // Fixed acquisition sequence per pass and per workspace, so after the
  // first minibatch of a shape every slot is recycled (alloc_events()
  // flatlines).
  ws.begin_pass();
  std::vector<double> returns(rows);
  rl::PolicyLossTerms policy;
  double value_loss = 0.0;
  if (team == nullptr) {
    policy = fused_actor_half(ws, actor, samples, block, order, begin, rows,
                              batch, config.ppo, actor_sinks, nullptr);
    value_loss = fused_critic_half(ws, critic, samples, block, order, begin,
                                   rows, batch, config.ppo, critic_sinks,
                                   returns, nullptr);
  } else {
    nn::Workspace& critic_ws = team->critic_workspace();
    team->threads().run_split(
        [&](util::Crew& crew) {
          policy = fused_actor_half(ws, actor, samples, block, order, begin,
                                    rows, batch, config.ppo, actor_sinks, &crew);
        },
        [&](util::Crew& crew) {
          critic_ws.begin_pass();
          value_loss = fused_critic_half(critic_ws, critic, samples, block,
                                         order, begin, rows, batch, config.ppo,
                                         critic_sinks, returns, &crew);
        });
  }
  return rl::ppo_loss_from_terms(policy, value_loss, config.ppo);
}

ParallelUpdateEngine::ParallelUpdateEngine(std::size_t num_shards)
    : num_shards_(std::max<std::size_t>(2, num_shards)), pool_(num_shards_) {
  shard_tapes_.reserve(num_shards_);
  shard_ws_.reserve(num_shards_);
  for (std::size_t s = 0; s < num_shards_; ++s) {
    shard_tapes_.push_back(std::make_unique<Tape>());
    shard_ws_.push_back(std::make_unique<nn::Workspace>());
  }
}

std::size_t ParallelUpdateEngine::backward_alloc_events() const {
  std::size_t total = 0;
  for (const auto& ws : shard_ws_) total += ws->alloc_events();
  return total;
}

void ParallelUpdateEngine::ensure_buffers(
    const std::vector<nn::Parameter*>& params) {
  bool rebuild = reduced_grads_.size() != params.size();
  for (std::size_t k = 0; !rebuild && k < params.size(); ++k)
    rebuild = !reduced_grads_[k].same_shape(params[k]->value);
  if (!rebuild) return;
  reduced_grads_.clear();
  slot_grads_.assign(num_shards_, {});
  for (const nn::Parameter* p : params) {
    reduced_grads_.push_back(Tensor::zeros_like(p->value));
    for (std::vector<Tensor>& slots : slot_grads_)
      slots.push_back(Tensor::zeros_like(p->value));
  }
  slot_losses_.assign(num_shards_, 0.0);
}

double ParallelUpdateEngine::run_minibatch(
    UpdateContext& ctx, const std::vector<const rl::Sample*>& samples,
    const std::vector<std::size_t>& order, std::size_t begin, std::size_t end) {
  assert(begin < end && end <= order.size());
  const std::size_t batch = end - begin;
  ensure_buffers(ctx.params);
  const bool fused = ctx.config->update_path == UpdatePath::kFused;
  const std::size_t actor_sink_count =
      fused ? ctx.actor->parameters().size() : 0;

  // Contiguous shard ranges; each gradient slot is touched by exactly one
  // worker, and the weights are only read until every future resolves.
  std::vector<std::future<void>> futures;
  futures.reserve(num_shards_);
  for (std::size_t shard = 0; shard < num_shards_; ++shard) {
    const std::size_t lo = batch * shard / num_shards_;
    const std::size_t hi = batch * (shard + 1) / num_shards_;
    if (lo == hi) {
      slot_losses_[shard] = 0.0;
      continue;
    }
    futures.push_back(pool_.submit([this, &ctx, &samples, &order, begin, batch,
                                    shard, lo, hi, fused, actor_sink_count]() {
      std::vector<Tensor>& slots = slot_grads_[shard];
      for (Tensor& g : slots) g.fill(0.0);
      if (fused) {
        // Gradients flow straight into the slot tensors as sinks (the same
        // slots the tape path redirects into), so the ordered fold below is
        // shared by both paths.
        std::vector<Tensor*> sinks;
        sinks.reserve(slots.size());
        for (Tensor& g : slots) sinks.push_back(&g);
        slot_losses_[shard] = fused_shard_loss_and_grads(
            *shard_ws_[shard], *ctx.actor, *ctx.critic, samples, order,
            begin + lo, begin + hi, batch, *ctx.config, ctx.block,
            sinks.data(), sinks.data() + actor_sink_count);
        return;
      }
      Tape& tape = *shard_tapes_[shard];
      nn::Tape::GradRedirects redirects;
      redirects.reserve(ctx.params.size());
      for (std::size_t k = 0; k < ctx.params.size(); ++k)
        redirects.emplace_back(ctx.params[k], &slots[k]);
      tape.set_grad_redirects(&redirects);
      slot_losses_[shard] =
          shard_loss_and_grads(tape, *ctx.actor, *ctx.critic, samples, order,
                               begin + lo, begin + hi, batch, *ctx.config,
                               ctx.block);
      tape.set_grad_redirects(nullptr);
    }));
  }
  for (auto& f : futures) f.get();  // rethrows worker exceptions

  // Ordered fold on the calling thread: shard slots in shard order, which
  // fixes the result for a given shard count but re-associates the serial
  // row fold at shard boundaries (see the header's file comment).
  for (Tensor& g : reduced_grads_) g.fill(0.0);
  for (std::size_t shard = 0; shard < num_shards_; ++shard) {
    if (batch * shard / num_shards_ == batch * (shard + 1) / num_shards_)
      continue;
    for (std::size_t k = 0; k < ctx.params.size(); ++k)
      reduced_grads_[k] += slot_grads_[shard][k];
  }

  double loss = 0.0;
  for (std::size_t shard = 0; shard < num_shards_; ++shard)
    loss += slot_losses_[shard];
  const double norm =
      nn::clip_grad_norm(reduced_grads_, ctx.config->ppo.max_grad_norm);
  if (!std::isfinite(loss) || !std::isfinite(norm))
    throw TrainingDiverged(begin, end, loss, norm);
  ctx.optim->step_with_grads(reduced_grads_);
  return loss;
}

}  // namespace tsc::core
