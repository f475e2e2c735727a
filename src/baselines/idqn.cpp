#include "src/baselines/idqn.hpp"

#include <algorithm>
#include <cassert>

namespace tsc::baselines {

using tsc::nn::Tape;
using tsc::nn::Tensor;
using tsc::nn::Var;

IdqnTrainer::IdqnTrainer(env::TscEnv* env, IdqnConfig config)
    : env_(env), config_(config), rng_(config.seed) {
  workspace_.set_kernel_tier(config_.kernel_tier);
  const std::size_t obs = env_->obs_dim();
  const std::size_t max_phases = env_->config().max_phases;
  for (std::size_t i = 0; i < env_->num_agents(); ++i) {
    online_.push_back(std::make_unique<nn::Mlp>(
        std::vector<std::size_t>{obs, config_.hidden, max_phases}, rng_,
        nn::Activation::kRelu, 0.1));
    target_.push_back(std::make_unique<nn::Mlp>(
        std::vector<std::size_t>{obs, config_.hidden, max_phases}, rng_,
        nn::Activation::kRelu, 0.1));
    target_.back()->copy_weights_from(*online_.back());
    nn::Adam::Config adam_config;
    adam_config.lr = config_.lr;
    optims_.push_back(
        std::make_unique<nn::Adam>(online_.back()->parameters(), adam_config));
    replays_.emplace_back(config_.replay_capacity);
  }
}

double IdqnTrainer::current_epsilon() const {
  if (config_.epsilon_decay_episodes == 0) return config_.epsilon_end;
  const double frac =
      std::min(1.0, static_cast<double>(episode_) /
                        static_cast<double>(config_.epsilon_decay_episodes));
  return config_.epsilon_start + frac * (config_.epsilon_end - config_.epsilon_start);
}

std::vector<std::size_t> IdqnTrainer::act_all(bool explore) {
  const std::size_t n = env_->num_agents();
  std::vector<std::size_t> actions(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t num_phases = env_->agent(i).num_phases;
    if (explore && rng_.bernoulli(current_epsilon())) {
      actions[i] = rng_.uniform_int(num_phases);
      continue;
    }
    const auto obs = env_->local_obs(i);
    workspace_.begin_pass();
    Tensor& x = workspace_.acquire(1, obs.size());
    std::copy(obs.begin(), obs.end(), x.data());
    const Tensor& q_t = online_[i]->forward(workspace_, x);
    actions[i] = nn::argmax_row(q_t, 0, num_phases);
  }
  return actions;
}

void IdqnTrainer::learn_step(std::size_t agent) {
  auto& replay = replays_[agent];
  if (replay.size() < config_.batch_size) return;
  const auto batch = replay.sample(config_.batch_size, rng_);
  const std::size_t num_phases = env_->agent(agent).num_phases;

  std::vector<double> targets(batch.size());
  for (std::size_t b = 0; b < batch.size(); ++b) {
    const Transition& t = *batch[b];
    double y = t.reward;
    if (!t.terminal) {
      Tape tape;
      Var x = tape.constant(Tensor::matrix(1, t.next_obs.size(), t.next_obs));
      Var q = target_[agent]->forward(tape, x);
      double best = tape.value(q).at(0, 0);
      for (std::size_t p = 1; p < num_phases; ++p)
        best = std::max(best, tape.value(q).at(0, p));
      y += config_.gamma * best;
    }
    targets[b] = y;
  }

  // Batched TD update with Huber-clipped errors.
  Tape tape;
  const std::size_t obs_dim = env_->obs_dim();
  Tensor obs_batch = Tensor::zeros(batch.size(), obs_dim);
  std::vector<std::size_t> actions(batch.size());
  for (std::size_t b = 0; b < batch.size(); ++b) {
    for (std::size_t k = 0; k < obs_dim; ++k)
      obs_batch.at(b, k) = batch[b]->obs[k];
    actions[b] = batch[b]->action;
  }
  Var q_all = online_[agent]->forward(tape, tape.constant(std::move(obs_batch)));
  Var q_taken = tape.gather_cols(q_all, actions);
  Var target =
      tape.constant(Tensor::matrix(batch.size(), 1, std::move(targets)));
  Var loss = tape.mean(tape.huber(tape.sub(q_taken, target), 1.0));
  online_[agent]->zero_grad();
  tape.backward(loss);
  auto params = online_[agent]->parameters();
  nn::clip_grad_norm(params, config_.max_grad_norm);
  optims_[agent]->step();

  ++learn_steps_;
  if (learn_steps_ % config_.target_update_steps == 0)
    target_[agent]->copy_weights_from(*online_[agent]);
}

env::EpisodeStats IdqnTrainer::run(bool train_mode, std::uint64_t seed) {
  env_->reset(seed);
  const std::size_t n = env_->num_agents();
  double reward_sum = 0.0;
  std::size_t reward_count = 0;
  std::vector<std::vector<double>> prev_obs(n);
  while (!env_->done()) {
    for (std::size_t i = 0; i < n; ++i) prev_obs[i] = env_->local_obs(i);
    const auto actions = act_all(train_mode);
    const auto rewards = env_->step(actions);
    const bool terminal = env_->done();
    for (std::size_t i = 0; i < n; ++i) {
      reward_sum += rewards[i];
      ++reward_count;
      if (train_mode) {
        Transition t;
        t.obs = prev_obs[i];
        t.next_obs = env_->local_obs(i);
        t.action = actions[i];
        t.reward = rewards[i];
        t.terminal = terminal;
        replays_[i].push(std::move(t));
        for (std::size_t u = 0; u < config_.updates_per_step; ++u) learn_step(i);
      }
    }
  }
  if (train_mode) ++episode_;
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

env::EpisodeStats IdqnTrainer::train_episode() {
  return run(true, config_.seed * 2861 + episode_);
}

env::EpisodeStats IdqnTrainer::eval_episode(std::uint64_t seed) {
  return run(false, seed);
}

std::vector<env::EpisodeStats> IdqnTrainer::eval_episodes_fleet(
    const std::vector<std::uint64_t>& seeds) {
  const std::size_t k = seeds.size();
  const std::size_t n = env_->num_agents();
  const std::size_t obs_dim = env_->obs_dim();
  std::vector<std::unique_ptr<env::TscEnv>> envs;
  envs.reserve(k);
  for (std::size_t w = 0; w < k; ++w) {
    envs.push_back(env_->clone(seeds[w]));
    envs.back()->reset(seeds[w]);
  }

  std::vector<std::size_t> active(k);
  for (std::size_t w = 0; w < k; ++w) active[w] = w;
  std::vector<std::vector<std::size_t>> actions(k, std::vector<std::size_t>(n, 0));
  std::vector<double> reward_sum(k, 0.0);
  std::vector<std::size_t> reward_count(k, 0);
  while (!active.empty()) {
    const std::size_t batch = active.size();
    workspace_.begin_pass();
    for (std::size_t i = 0; i < n; ++i) {
      Tensor& x = workspace_.acquire(batch, obs_dim);
      for (std::size_t a = 0; a < batch; ++a)
        envs[active[a]]->local_obs_into(i, x.data() + a * obs_dim);
      const Tensor& q = online_[i]->forward(workspace_, x);
      const std::size_t num_phases = env_->agent(i).num_phases;
      for (std::size_t a = 0; a < batch; ++a)
        actions[active[a]][i] = nn::argmax_row(q, a, num_phases);
    }
    for (std::size_t a = 0; a < batch; ++a) {
      const std::size_t w = active[a];
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

// ---------------------------------------------------------------------------

class IdqnController : public env::Controller {
 public:
  explicit IdqnController(IdqnTrainer* trainer) : trainer_(trainer) {}
  std::vector<std::size_t> act(const env::TscEnv& env) override {
    (void)env;
    return trainer_->act_all(/*explore=*/false);
  }
  std::string name() const override { return "IDQN"; }

 private:
  IdqnTrainer* trainer_;
};

std::unique_ptr<env::Controller> IdqnTrainer::make_controller() {
  return std::make_unique<IdqnController>(this);
}

}  // namespace tsc::baselines
