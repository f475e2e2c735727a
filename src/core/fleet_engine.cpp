#include "src/core/fleet_engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace tsc::core {

using tsc::nn::Tensor;

FleetRolloutEngine::FleetRolloutEngine(const PairUpConfig* config,
                                       std::vector<CoordinatedActor*> actors,
                                       std::vector<CentralizedCritic*> critics,
                                       std::size_t hop1_slots,
                                       std::size_t hop2_slots,
                                       std::size_t critic_input_dim)
    : config_(config),
      actors_(std::move(actors)),
      critics_(std::move(critics)),
      hop1_slots_(hop1_slots),
      hop2_slots_(hop2_slots),
      critic_input_dim_(critic_input_dim) {
  // The reference tier runs the multi-row blocked GEMM (bit-identical to
  // the tape's kernel; see nn/tensor.hpp); the fast tier the FMA GEMM plus
  // the vectorized gate nonlinearities (tolerance-bounded; nn/kernels.hpp).
  ws_.set_kernel_tier(config_->kernel_tier);
}

void FleetRolloutEngine::reshape_slab(Tensor& slab, std::size_t rows,
                                      std::size_t cols) {
  const std::size_t cap_before = slab.values().capacity();
  slab.reshape(rows, cols);
  if (slab.values().capacity() != cap_before) ++slab_events_;
}

void FleetRolloutEngine::decide(std::vector<FleetSlot>& slots,
                                const std::vector<std::size_t>& active,
                                bool explore, bool record,
                                std::vector<Rng>* sample_rngs) {
  const std::size_t num_active = active.size();
  const std::size_t n = slots[active.front()].env->num_agents();
  const std::size_t hidden = config_->hidden;
  const std::size_t msg_dim = config_->msg_dim;
  const std::size_t obs_dim = slots[active.front()].env->obs_dim();
  const std::size_t actor_in_dim = obs_dim + msg_dim;

  // Phase 1 — partner picks, slot-ascending then agent-ascending: each
  // slot's exploration stream is consumed in agent order.
  for (std::size_t a = 0; a < num_active; ++a) {
    const std::size_t w = active[a];
    FleetSlot& slot = slots[w];
    for (std::size_t i = 0; i < n; ++i)
      partners_[w][i] = pick_partner(*slot.env, *config_, slot.rng, i);
  }

  // Phase 2 — acquire every bucket's batch tensors, then pack ALL input
  // rows before any forward runs: everyone reads the PREVIOUS step's
  // messages (Algorithm 1's synchronous sweep; matters when agents span
  // multiple buckets, since a bucket's scatter updates its message rows).
  ws_.begin_pass();
  for (std::size_t m = 0; m < groups_.size(); ++m) {
    if (groups_[m].empty()) continue;
    const std::size_t rows = num_active * groups_[m].size();
    auto& bs = bucket_slots_[m];
    bs[0] = &ws_.acquire(rows, actor_in_dim);
    bs[1] = &ws_.acquire(rows, hidden);
    bs[2] = &ws_.acquire(rows, hidden);
    bs[3] = &ws_.acquire(rows, critic_input_dim_);
    bs[4] = &ws_.acquire(rows, hidden);
    bs[5] = &ws_.acquire(rows, hidden);
  }
  for (std::size_t a = 0; a < num_active; ++a) {
    const std::size_t w = active[a];
    env::TscEnv& env = *slots[w].env;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t m = config_->parameter_sharing ? 0 : i;
      const std::size_t row = a * groups_[m].size() + pos_in_bucket_[i];
      auto& bs = bucket_slots_[m];

      // Actor + critic rows in one zero-copy call: local obs straight into
      // the actor batch row, obs prefix + padded 1-hop/2-hop neighbor
      // features (paper section V-B) into the critic row, all from the
      // env's cached observation snapshot.
      double* in_row = bs[0]->data() + row * actor_in_dim;
      double* v_row = bs[3]->data() + row * critic_input_dim_;
      env.obs_into_row(i, in_row, v_row, hop1_slots_, hop2_slots_);
      // Then the partner's previous regularized message (or zeros when comm
      // is off).
      if (config_->comm_enabled) {
        const double* msg_src = msg_.data() + (w * n + partners_[w][i]) * msg_dim;
        std::copy(msg_src, msg_src + msg_dim, in_row + obs_dim);
      } else {
        std::fill(in_row + obs_dim, in_row + obs_dim + msg_dim, 0.0);
      }

      // Recurrent state rows come straight from the resident slabs.
      const std::size_t srow = (w * n + i) * hidden;
      std::copy(h_a_.data() + srow, h_a_.data() + srow + hidden,
                bs[1]->data() + row * hidden);
      std::copy(c_a_.data() + srow, c_a_.data() + srow + hidden,
                bs[2]->data() + row * hidden);
      std::copy(h_v_.data() + srow, h_v_.data() + srow + hidden,
                bs[4]->data() + row * hidden);
      std::copy(c_v_.data() + srow, c_v_.data() + srow + hidden,
                bs[5]->data() + row * hidden);
    }
  }

  // Phase 3 — per bucket (model order): one fleet-sized batched forward,
  // then the scatter. Rows are slot-major with members ascending inside a
  // slot, so each slot's RNG draws happen in agent order.
  for (std::size_t m = 0; m < groups_.size(); ++m) {
    const auto& members = groups_[m];
    if (members.empty()) continue;
    const std::size_t bucket = members.size();
    const std::size_t rows = num_active * bucket;
    CoordinatedActor& actor = *actors_[m];
    CentralizedCritic& critic = *critics_[m];
    auto& bs = bucket_slots_[m];
    env::TscEnv& env0 = *slots[active.front()].env;

    phase_counts_.resize(rows);
    for (std::size_t a = 0; a < num_active; ++a)
      for (std::size_t b = 0; b < bucket; ++b)
        phase_counts_[a * bucket + b] = env0.agent(members[b]).num_phases;

    auto actor_out =
        actor.forward(ws_, *bs[0], *bs[1], *bs[2], phase_counts_);
    Tensor& probs = ws_.acquire(rows, actor.max_phases());
    nn::softmax_rows_into(probs, *actor_out.logits, ws_.kernel_tier());
    Tensor& logp = ws_.acquire(rows, actor.max_phases());
    nn::log_softmax_rows_into(logp, *actor_out.logits, ws_.kernel_tier());
    auto critic_out = critic.forward(ws_, *bs[3], *bs[4], *bs[5]);

    const Tensor& msg_t = *actor_out.message;
    const Tensor& ha_t = *actor_out.h;
    const Tensor& ca_t = *actor_out.c;
    const Tensor& hv_t = *critic_out.h;
    const Tensor& cv_t = *critic_out.c;
    const Tensor& val_t = *critic_out.value;

    for (std::size_t a = 0; a < num_active; ++a) {
      const std::size_t w = active[a];
      FleetSlot& slot = slots[w];
      for (std::size_t b = 0; b < bucket; ++b) {
        const std::size_t i = members[b];
        const std::size_t row = a * bucket + b;
        const std::size_t num_phases = phase_counts_[row];

        // Action selection on this slot's streams: greedy or sampled
        // evaluation, sampled training, or paper Algorithm 1's
        // epsilon-greedy over the policy's argmax.
        std::size_t action;
        Rng* srng = sample_rngs != nullptr ? &(*sample_rngs)[w] : nullptr;
        if (!explore) {
          if (srng != nullptr) {
            cat_weights_.resize(num_phases);
            for (std::size_t p = 0; p < num_phases; ++p)
              cat_weights_[p] = probs.at(row, p);
            action = srng->categorical(cat_weights_);
          } else {
            action = 0;
            for (std::size_t p = 1; p < num_phases; ++p)
              if (probs.at(row, p) > probs.at(row, action)) action = p;
          }
        } else if (config_->ppo.sample_actions) {
          cat_weights_.resize(num_phases);
          for (std::size_t p = 0; p < num_phases; ++p)
            cat_weights_[p] = probs.at(row, p);
          action = slot.rng->categorical(cat_weights_);
        } else {
          if (slot.rng->bernoulli(epsilon_)) {
            action = slot.rng->uniform_int(num_phases);
          } else {
            action = 0;
            for (std::size_t p = 1; p < num_phases; ++p)
              if (probs.at(row, p) > probs.at(row, action)) action = p;
          }
        }

        actions_[w][i] = action;
        values_[w][i] = val_t.at(row, 0);

        const std::size_t srow = (w * n + i) * hidden;
        if (record) {
          rl::Sample sample;
          const double* in_row = bs[0]->data() + row * actor_in_dim;
          const double* v_row = bs[3]->data() + row * critic_input_dim_;
          sample.obs.assign(in_row, in_row + actor_in_dim);
          sample.critic_obs.assign(v_row, v_row + critic_input_dim_);
          sample.h_actor.assign(h_a_.data() + srow, h_a_.data() + srow + hidden);
          sample.c_actor.assign(c_a_.data() + srow, c_a_.data() + srow + hidden);
          sample.h_critic.assign(h_v_.data() + srow, h_v_.data() + srow + hidden);
          sample.c_critic.assign(c_v_.data() + srow, c_v_.data() + srow + hidden);
          sample.action = action;
          sample.phase_count = num_phases;
          sample.log_prob = logp.at(row, action);
          sample.value = values_[w][i];
          slot.buffer->add(i, std::move(sample));
        }

        // Advance recurrent state (slab rows were read above, so samples
        // hold the pre-step state) and regularize the outgoing message:
        // m_hat = Logistic(N(m, sigma)), noiseless when not exploring.
        std::copy(ha_t.data() + row * hidden, ha_t.data() + (row + 1) * hidden,
                  h_a_.data() + srow);
        std::copy(ca_t.data() + row * hidden, ca_t.data() + (row + 1) * hidden,
                  c_a_.data() + srow);
        std::copy(hv_t.data() + row * hidden, hv_t.data() + (row + 1) * hidden,
                  h_v_.data() + srow);
        std::copy(cv_t.data() + row * hidden, cv_t.data() + (row + 1) * hidden,
                  c_v_.data() + srow);
        double* msg_row = msg_.data() + (w * n + i) * msg_dim;
        for (std::size_t k = 0; k < msg_dim; ++k) {
          const double raw = msg_t.at(row, k);
          const double noisy =
              explore ? slot.rng->normal(raw, config_->msg_sigma) : raw;
          msg_row[k] = nn::logistic(noisy, ws_.kernel_tier());
        }
      }
    }
  }
}

void FleetRolloutEngine::begin(const std::vector<FleetSlot>& slots,
                               double epsilon) {
  assert(!slots.empty());
  const std::size_t k = slots.size();
  const std::size_t n = slots.front().env->num_agents();
  const std::size_t hidden = config_->hidden;
  epsilon_ = epsilon;

  // Buckets: one per model — all agents under parameter sharing, one agent
  // per bucket on heterogeneous networks (each agent's own model).
  groups_.resize(actors_.size());
  for (auto& g : groups_) g.clear();
  pos_in_bucket_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t m = config_->parameter_sharing ? 0 : i;
    pos_in_bucket_[i] = groups_[m].size();
    groups_[m].push_back(i);
  }
  bucket_slots_.resize(actors_.size());

  // Fleet-ordered state slabs, zeroed: every episode starts from h = c = 0
  // and silent (all-zero) messages.
  reshape_slab(h_a_, k * n, hidden);
  reshape_slab(c_a_, k * n, hidden);
  reshape_slab(h_v_, k * n, hidden);
  reshape_slab(c_v_, k * n, hidden);
  reshape_slab(msg_, k * n, config_->msg_dim);
  h_a_.fill(0.0);
  c_a_.fill(0.0);
  h_v_.fill(0.0);
  c_v_.fill(0.0);
  msg_.fill(0.0);

  actions_.resize(k);
  values_.resize(k);
  partners_.resize(k);
  for (std::size_t w = 0; w < k; ++w) {
    assert(slots[w].env != nullptr);
    assert(slots[w].env->num_agents() == n);
    actions_[w].resize(n);
    values_[w].resize(n);
    partners_[w].resize(n);
  }
}

std::vector<env::EpisodeStats> FleetRolloutEngine::run_episodes(
    std::vector<FleetSlot>& slots, bool train_mode, double epsilon) {
  begin(slots, epsilon);
  const std::size_t k = slots.size();
  const std::size_t n = slots.front().env->num_agents();
  reward_sum_.assign(k, 0.0);
  reward_count_.assign(k, 0);
  last_messages_.resize(k);
  last_partners_.resize(k);
  for (FleetSlot& slot : slots) {
    assert(!train_mode || slot.buffer != nullptr);
    slot.env->reset(slot.seed);
  }

  // Stochastic-eval streams derive from each slot's episode seed, the same
  // seed ^ kEvalSampleSalt stream every stochastic controller uses.
  std::vector<Rng> sample_rngs;
  const bool use_sample_rng = !train_mode && !config_->greedy_eval;
  if (use_sample_rng) {
    sample_rngs.reserve(k);
    for (const FleetSlot& slot : slots)
      sample_rngs.emplace_back(slot.seed ^ env::kEvalSampleSalt);
  }

  active_.resize(k);
  for (std::size_t w = 0; w < k; ++w) active_[w] = w;

  std::vector<env::EpisodeStats> stats(k);
  while (!active_.empty()) {
    decide(slots, active_, /*explore=*/train_mode, /*record=*/train_mode,
           use_sample_rng ? &sample_rngs : nullptr);
    newly_done_.clear();
    for (std::size_t w : active_) {
      FleetSlot& slot = slots[w];
      const std::vector<double> rewards = slot.env->step(actions_[w]);
      for (double r : rewards) {
        reward_sum_[w] += r;
        ++reward_count_[w];
      }
      if (train_mode)
        for (std::size_t i = 0; i < rewards.size(); ++i)
          slot.buffer->last(i).reward = rewards[i];
      if (slot.env->done()) newly_done_.push_back(w);
    }
    if (newly_done_.empty()) continue;

    if (train_mode) {
      // Bootstrap V(s_T) for the finished envs in one batched greedy
      // decision (Algorithm 1 line 24).
      decide(slots, newly_done_, /*explore=*/false, /*record=*/false,
             nullptr);
      for (std::size_t w : newly_done_)
        for (std::size_t i = 0; i < n; ++i)
          slots[w].buffer->finish_agent(i, values_[w][i], config_->ppo.gamma,
                                        config_->ppo.lambda);
    }

    for (std::size_t w : newly_done_) {
      env::TscEnv& env = *slots[w].env;
      stats[w].avg_wait = env.episode_avg_wait();
      stats[w].travel_time = env.average_travel_time();
      stats[w].delay = env.average_delay();
      stats[w].mean_reward =
          reward_count_[w]
              ? reward_sum_[w] / static_cast<double>(reward_count_[w])
              : 0.0;
      stats[w].vehicles_finished = env.simulator().vehicles_finished();
      stats[w].vehicles_spawned = env.simulator().vehicles_spawned();

      // Protocol-inspection views at the slot's final decision.
      last_partners_[w] = partners_[w];
      last_messages_[w].resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        const double* msg_row = msg_.data() + (w * n + i) * config_->msg_dim;
        last_messages_[w][i].assign(msg_row, msg_row + config_->msg_dim);
      }
    }
    active_.erase(std::remove_if(active_.begin(), active_.end(),
                                 [&](std::size_t w) {
                                   return std::find(newly_done_.begin(),
                                                    newly_done_.end(),
                                                    w) != newly_done_.end();
                                 }),
                  active_.end());
  }
  return stats;
}

}  // namespace tsc::core
