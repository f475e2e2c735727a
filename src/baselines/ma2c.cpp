#include "src/baselines/ma2c.hpp"

#include <algorithm>
#include <cassert>

namespace tsc::baselines {

using tsc::nn::Tape;
using tsc::nn::Tensor;
using tsc::nn::Var;

namespace {

Tensor pack_rows(const std::vector<std::vector<double>>& rows, std::size_t width) {
  Tensor t = Tensor::zeros(rows.size(), width);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    assert(rows[r].size() == width);
    for (std::size_t c = 0; c < width; ++c) t.at(r, c) = rows[r][c];
  }
  return t;
}

}  // namespace

Ma2cTrainer::Ma2cTrainer(env::TscEnv* env, Ma2cConfig config)
    : env_(env), config_(config), rng_(config.seed), episode_seed_(config.seed * 4793) {
  workspace_.set_kernel_tier(config_.kernel_tier);
  const std::size_t n = env_->num_agents();
  for (std::size_t i = 0; i < n; ++i)
    hop1_slots_ = std::max(hop1_slots_, env_->agent(i).hop1.size());
  const std::size_t obs = env_->obs_dim();
  const std::size_t max_phases = env_->config().max_phases;
  input_dim_ = obs + hop1_slots_ * (obs + max_phases);

  for (std::size_t i = 0; i < n; ++i) {
    actors_.push_back(std::make_unique<nn::Mlp>(
        std::vector<std::size_t>{input_dim_, config_.hidden, config_.hidden,
                                 max_phases},
        rng_));
    critics_.push_back(std::make_unique<nn::Mlp>(
        std::vector<std::size_t>{input_dim_, config_.hidden, config_.hidden, 1}, rng_,
        nn::Activation::kTanh, 1.0));
    auto params = actors_.back()->parameters();
    auto critic_params = critics_.back()->parameters();
    params.insert(params.end(), critic_params.begin(), critic_params.end());
    nn::Adam::Config adam_config;
    adam_config.lr = config_.lr;
    optims_.push_back(std::make_unique<nn::Adam>(std::move(params), adam_config));
  }
  fingerprints_.assign(n, std::vector<double>(max_phases, 0.0));
}

std::size_t Ma2cTrainer::comm_bits_per_step() const {
  // Each neighbor ships its local observation + policy fingerprint.
  return hop1_slots_ * (env_->obs_dim() + env_->config().max_phases) * 32;
}

std::vector<double> Ma2cTrainer::agent_input(std::size_t i) const {
  const std::size_t obs_dim = env_->obs_dim();
  const std::size_t max_phases = env_->config().max_phases;
  std::vector<double> input = env_->local_obs(i);
  const env::AgentSpec& spec = env_->agent(i);
  for (std::size_t slot = 0; slot < hop1_slots_; ++slot) {
    if (slot < spec.hop1.size()) {
      const std::size_t nb = spec.hop1[slot];
      auto nb_obs = env_->local_obs(nb);
      for (double v : nb_obs) input.push_back(config_.alpha * v);
      for (double v : fingerprints_[nb]) input.push_back(v);
    } else {
      input.insert(input.end(), obs_dim + max_phases, 0.0);
    }
  }
  assert(input.size() == input_dim_);
  return input;
}

std::vector<std::size_t> Ma2cTrainer::act_all(bool explore,
                                              rl::RolloutBuffer* buffer,
                                              Rng* sample_rng) {
  const std::size_t n = env_->num_agents();
  std::vector<std::size_t> actions(n);
  std::vector<std::vector<double>> new_fingerprints(n);
  const std::size_t max_phases = env_->config().max_phases;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t num_phases = env_->agent(i).num_phases;
    const auto input = agent_input(i);

    workspace_.begin_pass();
    Tensor& x = workspace_.acquire(1, input_dim_);
    std::copy(input.begin(), input.end(), x.data());
    Tensor& logits = const_cast<Tensor&>(actors_[i]->forward(workspace_, x));
    // Mask exactly like the tape update: elementwise add of 0.0 / -1e9.
    if (num_phases < max_phases)
      for (std::size_t p = 0; p < max_phases; ++p)
        logits.at(0, p) += p < num_phases ? 0.0 : -1e9;
    Tensor& probs_t = workspace_.acquire(1, max_phases);
    nn::softmax_rows_into(probs_t, logits, workspace_.kernel_tier());
    Tensor& logp = workspace_.acquire(1, max_phases);
    nn::log_softmax_rows_into(logp, logits, workspace_.kernel_tier());
    const Tensor& value = critics_[i]->forward(workspace_, x);

    std::size_t action = 0;
    if (explore) {
      std::vector<double> w(num_phases);
      for (std::size_t p = 0; p < num_phases; ++p) w[p] = probs_t.at(0, p);
      action = rng_.categorical(w);
    } else if (sample_rng != nullptr) {
      std::vector<double> w(num_phases);
      for (std::size_t p = 0; p < num_phases; ++p) w[p] = probs_t.at(0, p);
      action = sample_rng->categorical(w);
    } else {
      for (std::size_t p = 1; p < num_phases; ++p)
        if (probs_t.at(0, p) > probs_t.at(0, action)) action = p;
    }
    actions[i] = action;

    new_fingerprints[i].assign(max_phases, 0.0);
    for (std::size_t p = 0; p < max_phases; ++p)
      new_fingerprints[i][p] = probs_t.at(0, p);

    if (buffer != nullptr) {
      rl::Sample s;
      s.obs = input;
      s.action = action;
      s.phase_count = num_phases;
      s.log_prob = logp.at(0, action);
      s.value = value.at(0, 0);
      buffer->add(i, std::move(s));
    }
  }
  fingerprints_ = std::move(new_fingerprints);
  return actions;
}

env::EpisodeStats Ma2cTrainer::run(bool train_mode, std::uint64_t seed) {
  env_->reset(seed);
  for (auto& fp : fingerprints_) std::fill(fp.begin(), fp.end(), 0.0);
  rl::RolloutBuffer buffer(env_->num_agents());
  rl::RolloutBuffer* buffer_ptr = train_mode ? &buffer : nullptr;
  Rng eval_rng(seed ^ env::kEvalSampleSalt);
  Rng* sample_rng = (!train_mode && !config_.greedy_eval) ? &eval_rng : nullptr;
  double reward_sum = 0.0;
  std::size_t reward_count = 0;
  while (!env_->done()) {
    const auto actions = act_all(train_mode, buffer_ptr, sample_rng);
    const auto rewards = env_->step(actions);
    for (std::size_t i = 0; i < rewards.size(); ++i) {
      reward_sum += rewards[i];
      ++reward_count;
      if (buffer_ptr != nullptr) {
        // Spatially discounted reward: own + alpha * neighbors'.
        double r = rewards[i];
        for (std::size_t nb : env_->agent(i).hop1) r += config_.alpha * rewards[nb];
        buffer.last(i).reward = r;
      }
    }
  }
  if (train_mode) {
    // Bootstrap each agent's value at the final state.
    for (std::size_t i = 0; i < env_->num_agents(); ++i) {
      const auto input = agent_input(i);
      workspace_.begin_pass();
      Tensor& x = workspace_.acquire(1, input_dim_);
      std::copy(input.begin(), input.end(), x.data());
      const double boot = critics_[i]->forward(workspace_, x).at(0, 0);
      // A2C uses Monte-Carlo returns with bootstrap (lambda = 1).
      buffer.finish_agent(i, boot, config_.gamma, 1.0);
    }
    update(buffer);
    ++episode_;
  }
  env::EpisodeStats stats;
  stats.avg_wait = env_->episode_avg_wait();
  stats.travel_time = env_->average_travel_time();
  stats.delay = env_->average_delay();
  stats.mean_reward =
      reward_count ? reward_sum / static_cast<double>(reward_count) : 0.0;
  stats.vehicles_finished = env_->simulator().vehicles_finished();
  stats.vehicles_spawned = env_->simulator().vehicles_spawned();
  return stats;
}

env::EpisodeStats Ma2cTrainer::train_episode() {
  return run(true, episode_seed_ + episode_);
}

env::EpisodeStats Ma2cTrainer::eval_episode(std::uint64_t seed) {
  return run(false, seed);
}

std::vector<env::EpisodeStats> Ma2cTrainer::eval_episodes_fleet(
    const std::vector<std::uint64_t>& seeds) {
  const std::size_t k = seeds.size();
  const std::size_t n = env_->num_agents();
  const std::size_t obs_dim = env_->obs_dim();
  const std::size_t max_phases = env_->config().max_phases;
  std::vector<std::unique_ptr<env::TscEnv>> envs;
  envs.reserve(k);
  for (std::size_t w = 0; w < k; ++w) {
    envs.push_back(env_->clone(seeds[w]));
    envs.back()->reset(seeds[w]);
  }
  // Per-replica episode state, mirroring what run()/act_all() keep in
  // members and locals: a fingerprint table and a sample stream per seed.
  std::vector<std::vector<std::vector<double>>> fps(
      k, std::vector<std::vector<double>>(n,
                                          std::vector<double>(max_phases, 0.0)));
  std::vector<Rng> srngs;
  if (!config_.greedy_eval) {
    srngs.reserve(k);
    for (std::size_t w = 0; w < k; ++w)
      srngs.emplace_back(seeds[w] ^ env::kEvalSampleSalt);
  }

  std::vector<std::size_t> active(k);
  for (std::size_t w = 0; w < k; ++w) active[w] = w;
  std::vector<std::vector<std::size_t>> actions(k, std::vector<std::size_t>(n, 0));
  std::vector<double> reward_sum(k, 0.0);
  std::vector<std::size_t> reward_count(k, 0);
  // Next-step fingerprints staged per active replica so that every agent's
  // input this step reads the PREVIOUS step's table (act_all swaps at end).
  std::vector<std::vector<std::vector<double>>> staged;
  while (!active.empty()) {
    const std::size_t batch = active.size();
    staged.assign(batch, std::vector<std::vector<double>>(n));
    workspace_.begin_pass();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t num_phases = env_->agent(i).num_phases;
      Tensor& x = workspace_.acquire(batch, input_dim_);
      for (std::size_t a = 0; a < batch; ++a) {
        const env::TscEnv& env = *envs[active[a]];
        double* row = x.data() + a * input_dim_;
        env.local_obs_into(i, row);
        const env::AgentSpec& spec = env.agent(i);
        double* cur = row + obs_dim;
        for (std::size_t slot = 0; slot < hop1_slots_; ++slot) {
          if (slot < spec.hop1.size()) {
            const std::size_t nb = spec.hop1[slot];
            env.local_obs_into(nb, cur);
            for (std::size_t j = 0; j < obs_dim; ++j) cur[j] = config_.alpha * cur[j];
            cur += obs_dim;
            const std::vector<double>& fp = fps[active[a]][nb];
            std::copy(fp.begin(), fp.end(), cur);
            cur += max_phases;
          } else {
            std::fill(cur, cur + obs_dim + max_phases, 0.0);
            cur += obs_dim + max_phases;
          }
        }
      }
      Tensor& logits = const_cast<Tensor&>(actors_[i]->forward(workspace_, x));
      if (num_phases < max_phases)
        for (std::size_t a = 0; a < batch; ++a)
          for (std::size_t p = 0; p < max_phases; ++p)
            logits.at(a, p) += p < num_phases ? 0.0 : -1e9;
      Tensor& probs = workspace_.acquire(batch, max_phases);
      nn::softmax_rows_into(probs, logits, workspace_.kernel_tier());
      for (std::size_t a = 0; a < batch; ++a) {
        std::size_t action = 0;
        if (!config_.greedy_eval) {
          std::vector<double> weights(num_phases);
          for (std::size_t p = 0; p < num_phases; ++p) weights[p] = probs.at(a, p);
          action = srngs[active[a]].categorical(weights);
        } else {
          for (std::size_t p = 1; p < num_phases; ++p)
            if (probs.at(a, p) > probs.at(a, action)) action = p;
        }
        actions[active[a]][i] = action;
        staged[a][i].assign(max_phases, 0.0);
        for (std::size_t p = 0; p < max_phases; ++p)
          staged[a][i][p] = probs.at(a, p);
      }
    }
    for (std::size_t a = 0; a < batch; ++a) {
      const std::size_t w = active[a];
      fps[w].swap(staged[a]);
      const auto rewards = envs[w]->step(actions[w]);
      for (double r : rewards) {
        reward_sum[w] += r;
        ++reward_count[w];
      }
    }
    active.erase(std::remove_if(active.begin(), active.end(),
                                [&](std::size_t w) { return envs[w]->done(); }),
                 active.end());
  }

  std::vector<env::EpisodeStats> out(k);
  for (std::size_t w = 0; w < k; ++w) {
    out[w].avg_wait = envs[w]->episode_avg_wait();
    out[w].travel_time = envs[w]->average_travel_time();
    out[w].delay = envs[w]->average_delay();
    out[w].mean_reward =
        reward_count[w] ? reward_sum[w] / static_cast<double>(reward_count[w])
                        : 0.0;
    out[w].vehicles_finished = envs[w]->simulator().vehicles_finished();
    out[w].vehicles_spawned = envs[w]->simulator().vehicles_spawned();
  }
  return out;
}

void Ma2cTrainer::update(rl::RolloutBuffer& buffer) {
  const std::size_t max_phases = env_->config().max_phases;
  for (std::size_t i = 0; i < env_->num_agents(); ++i) {
    const auto& samples = buffer.agent_samples(i);
    if (samples.empty()) continue;
    const std::size_t minibatch = std::max<std::size_t>(1, config_.minibatch);
    for (std::size_t start = 0; start < samples.size(); start += minibatch) {
      const std::size_t end = std::min(samples.size(), start + minibatch);
      const std::size_t batch = end - start;
      std::vector<std::vector<double>> in_rows(batch);
      std::vector<std::size_t> actions(batch);
      std::vector<double> advantages(batch), returns(batch);
      for (std::size_t b = 0; b < batch; ++b) {
        const rl::Sample& s = samples[start + b];
        in_rows[b] = s.obs;
        actions[b] = s.action;
        advantages[b] = s.advantage;
        returns[b] = s.ret;
      }
      Tape tape;
      Var x = tape.constant(pack_rows(in_rows, input_dim_));
      Var logits = actors_[i]->forward(tape, x);
      if (env_->agent(i).num_phases < max_phases) {
        Tensor mask = Tensor::zeros(batch, max_phases);
        for (std::size_t b = 0; b < batch; ++b)
          for (std::size_t p = env_->agent(i).num_phases; p < max_phases; ++p)
            mask.at(b, p) = -1e9;
        logits = tape.add(logits, tape.constant(std::move(mask)));
      }
      Var logp = tape.gather_cols(tape.log_softmax_rows(logits), actions);
      Var entropy = rl::policy_entropy(tape, logits);
      Var values = critics_[i]->forward(tape, x);

      // A2C losses (Eqs. 1-3): -mean(logp * adv) + c_v * mse - c_e * H.
      Var adv = tape.constant(Tensor::matrix(batch, 1, std::vector<double>(
                                                           advantages)));
      Var ret = tape.constant(Tensor::matrix(batch, 1, std::vector<double>(returns)));
      Var policy_loss = tape.neg(tape.mean(tape.mul(logp, adv)));
      Var value_loss = tape.mean(tape.square(tape.sub(values, ret)));
      Var loss = tape.add(policy_loss,
                          tape.sub(tape.scale(value_loss, config_.value_coef),
                                   tape.scale(entropy, config_.entropy_coef)));
      actors_[i]->zero_grad();
      critics_[i]->zero_grad();
      tape.backward(loss);
      auto params = actors_[i]->parameters();
      auto critic_params = critics_[i]->parameters();
      params.insert(params.end(), critic_params.begin(), critic_params.end());
      nn::clip_grad_norm(params, config_.max_grad_norm);
      optims_[i]->step();
    }
  }
}

// ---------------------------------------------------------------------------

class Ma2cController : public env::Controller {
 public:
  explicit Ma2cController(Ma2cTrainer* trainer) : trainer_(trainer) {}
  void begin_episode(const env::TscEnv& env) override {
    for (auto& fp : trainer_->fingerprints_) std::fill(fp.begin(), fp.end(), 0.0);
    rng_ = Rng(env.episode_seed() ^ env::kEvalSampleSalt);
  }
  std::vector<std::size_t> act(const env::TscEnv& env) override {
    (void)env;
    Rng* sample_rng = trainer_->config_.greedy_eval ? nullptr : &rng_;
    return trainer_->act_all(/*explore=*/false, nullptr, sample_rng);
  }
  std::string name() const override { return "MA2C"; }

 private:
  Ma2cTrainer* trainer_;
  Rng rng_{0};
};

std::unique_ptr<env::Controller> Ma2cTrainer::make_controller() {
  return std::make_unique<Ma2cController>(this);
}

}  // namespace tsc::baselines
