#include "src/baselines/colight.hpp"

#include <algorithm>
#include <cassert>

namespace tsc::baselines {

using tsc::nn::Tape;
using tsc::nn::Tensor;
using tsc::nn::Var;

CoLightTrainer::QNet::QNet(std::size_t obs_dim, std::size_t embed_dim,
                           std::size_t entities, std::size_t max_phases, Rng& rng) {
  embed = std::make_unique<nn::Linear>(obs_dim, embed_dim, rng);
  gat = std::make_unique<nn::GatLayer>(embed_dim, embed_dim, entities, rng);
  q_head = std::make_unique<nn::Linear>(embed_dim, max_phases, rng, 0.1);
  register_module(embed.get());
  register_module(gat.get());
  register_module(q_head.get());
}

Var CoLightTrainer::QNet::forward(Tape& tape, Var entity_obs,
                                  const std::vector<bool>& mask) {
  Var embedded = tape.relu(embed->forward(tape, entity_obs));  // [E, d]
  Var mixed = gat->forward(tape, embedded, mask);              // [1, d]
  return q_head->forward(tape, mixed);                         // [1, A]
}

const Tensor& CoLightTrainer::QNet::forward(
    nn::Workspace& ws, const Tensor& entity_obs,
    std::span<const std::vector<bool>* const> masks) {
  Tensor& embedded =
      const_cast<Tensor&>(embed->forward(ws, entity_obs));  // [B*E, d]
  nn::relu_inplace(embedded);
  const Tensor& mixed = gat->forward(ws, embedded, masks);  // [B, d]
  return q_head->forward(ws, mixed);                        // [B, A]
}

CoLightTrainer::CoLightTrainer(env::TscEnv* env, CoLightConfig config)
    : env_(env),
      config_(config),
      rng_(config.seed),
      replay_(config.replay_capacity),
      episode_seed_(config.seed * 3371) {
  workspace_.set_kernel_tier(config_.kernel_tier);
  std::size_t hop1_slots = 0;
  for (std::size_t i = 0; i < env_->num_agents(); ++i)
    hop1_slots = std::max(hop1_slots, env_->agent(i).hop1.size());
  entities_ = 1 + hop1_slots;
  online_ = std::make_unique<QNet>(env_->obs_dim(), config_.embed_dim, entities_,
                                   env_->config().max_phases, rng_);
  target_ = std::make_unique<QNet>(env_->obs_dim(), config_.embed_dim, entities_,
                                   env_->config().max_phases, rng_);
  target_->copy_weights_from(*online_);
  nn::Adam::Config adam_config;
  adam_config.lr = config_.lr;
  optim_ = std::make_unique<nn::Adam>(online_->parameters(), adam_config);
}

std::size_t CoLightTrainer::comm_bits_per_step() const {
  return (entities_ - 1) * env_->obs_dim() * 32;
}

double CoLightTrainer::current_epsilon() const {
  if (config_.epsilon_decay_episodes == 0) return config_.epsilon_end;
  const double frac =
      std::min(1.0, static_cast<double>(episode_) /
                        static_cast<double>(config_.epsilon_decay_episodes));
  return config_.epsilon_start + frac * (config_.epsilon_end - config_.epsilon_start);
}

std::vector<double> CoLightTrainer::entity_obs(std::size_t i) const {
  const std::size_t obs_dim = env_->obs_dim();
  std::vector<double> out;
  out.reserve(entities_ * obs_dim);
  const auto own = env_->local_obs(i);
  out.insert(out.end(), own.begin(), own.end());
  const env::AgentSpec& spec = env_->agent(i);
  for (std::size_t slot = 0; slot + 1 < entities_; ++slot) {
    if (slot < spec.hop1.size()) {
      const auto nb = env_->local_obs(spec.hop1[slot]);
      out.insert(out.end(), nb.begin(), nb.end());
    } else {
      out.insert(out.end(), obs_dim, 0.0);
    }
  }
  return out;
}

std::vector<bool> CoLightTrainer::entity_mask(std::size_t i) const {
  std::vector<bool> mask(entities_, false);
  mask[0] = true;
  for (std::size_t slot = 0; slot < env_->agent(i).hop1.size(); ++slot)
    mask[slot + 1] = true;
  return mask;
}

std::vector<std::size_t> CoLightTrainer::act_all(bool explore) {
  const std::size_t n = env_->num_agents();
  std::vector<std::size_t> actions(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t num_phases = env_->agent(i).num_phases;
    if (explore && rng_.bernoulli(current_epsilon())) {
      actions[i] = rng_.uniform_int(num_phases);
      continue;
    }
    workspace_.begin_pass();
    const auto flat = entity_obs(i);
    Tensor& obs = workspace_.acquire(entities_, env_->obs_dim());
    std::copy(flat.begin(), flat.end(), obs.data());
    const std::vector<bool> mask = entity_mask(i);
    const std::vector<bool>* masks[] = {&mask};
    const Tensor& q_t = online_->forward(workspace_, obs, masks);
    actions[i] = nn::argmax_row(q_t, 0, num_phases);
  }
  return actions;
}

void CoLightTrainer::learn_step() {
  if (replay_.size() < config_.batch_size) return;
  const auto batch = replay_.sample(config_.batch_size, rng_);

  // Targets from the target network: y = r + gamma * max_a' Q_target(s', a').
  std::vector<double> targets(batch.size());
  for (std::size_t b = 0; b < batch.size(); ++b) {
    const Transition& t = *batch[b];
    double y = t.reward;
    if (!t.terminal) {
      Tape tape;
      Var obs = tape.constant(
          Tensor::matrix(entities_, env_->obs_dim(), t.next_entity_obs));
      Var q = target_->forward(tape, obs, t.mask);
      const Tensor& q_t = tape.value(q);
      double best = q_t.at(0, 0);
      for (std::size_t p = 1; p < t.phase_count; ++p)
        best = std::max(best, q_t.at(0, p));
      y += config_.gamma * best;
    }
    targets[b] = y;
  }

  // One combined graph for the whole minibatch: per-sample forwards feed a
  // shared squared-error loss.
  Tape tape;
  std::vector<Var> errors;
  errors.reserve(batch.size());
  for (std::size_t b = 0; b < batch.size(); ++b) {
    const Transition& t = *batch[b];
    Var obs =
        tape.constant(Tensor::matrix(entities_, env_->obs_dim(), t.entity_obs));
    Var q = online_->forward(tape, obs, t.mask);
    Var q_a = tape.slice_cols(q, t.action, 1);  // [1,1]
    Var target = tape.constant(Tensor::matrix(1, 1, {targets[b]}));
    // Huber-clipped TD error, as in standard DQN practice.
    errors.push_back(tape.huber(tape.sub(q_a, target), 1.0));
  }
  Var loss = tape.mean(tape.concat_rows(errors));
  online_->zero_grad();
  tape.backward(loss);
  auto params = online_->parameters();
  nn::clip_grad_norm(params, config_.max_grad_norm);
  optim_->step();

  ++learn_steps_;
  if (learn_steps_ % config_.target_update_steps == 0)
    target_->copy_weights_from(*online_);
}

env::EpisodeStats CoLightTrainer::run(bool train_mode, std::uint64_t seed) {
  env_->reset(seed);
  const std::size_t n = env_->num_agents();
  double reward_sum = 0.0;
  std::size_t reward_count = 0;

  std::vector<std::vector<double>> prev_obs(n);
  std::vector<std::size_t> prev_actions;
  while (!env_->done()) {
    for (std::size_t i = 0; i < n; ++i) prev_obs[i] = entity_obs(i);
    const auto actions = act_all(train_mode);
    const auto rewards = env_->step(actions);
    const bool terminal = env_->done();
    for (std::size_t i = 0; i < n; ++i) {
      reward_sum += rewards[i];
      ++reward_count;
      if (train_mode) {
        Transition t;
        t.entity_obs = prev_obs[i];
        t.next_entity_obs = entity_obs(i);
        t.mask = entity_mask(i);
        t.action = actions[i];
        t.phase_count = env_->agent(i).num_phases;
        t.reward = rewards[i];
        t.terminal = terminal;
        replay_.push(std::move(t));
      }
    }
    if (train_mode)
      for (std::size_t u = 0; u < config_.updates_per_step; ++u) learn_step();
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

env::EpisodeStats CoLightTrainer::train_episode() {
  return run(true, episode_seed_ + episode_);
}

env::EpisodeStats CoLightTrainer::eval_episode(std::uint64_t seed) {
  return run(false, seed);
}

std::vector<env::EpisodeStats> CoLightTrainer::eval_episodes_fleet(
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
  // Entity masks depend only on the grid topology, identical across clones.
  std::vector<std::vector<bool>> agent_masks(n);
  for (std::size_t i = 0; i < n; ++i) agent_masks[i] = entity_mask(i);

  std::vector<std::size_t> active(k);
  for (std::size_t w = 0; w < k; ++w) active[w] = w;
  std::vector<std::vector<std::size_t>> actions(k, std::vector<std::size_t>(n, 0));
  std::vector<double> reward_sum(k, 0.0);
  std::vector<std::size_t> reward_count(k, 0);
  std::vector<const std::vector<bool>*> masks;
  while (!active.empty()) {
    const std::size_t batch = active.size();
    workspace_.begin_pass();
    Tensor& obs = workspace_.acquire(batch * n * entities_, obs_dim);
    masks.clear();
    for (std::size_t a = 0; a < batch; ++a) {
      const env::TscEnv& env = *envs[active[a]];
      for (std::size_t i = 0; i < n; ++i) {
        double* block = obs.data() + (a * n + i) * entities_ * obs_dim;
        env.local_obs_into(i, block);
        const env::AgentSpec& spec = env.agent(i);
        for (std::size_t slot = 0; slot + 1 < entities_; ++slot) {
          double* row = block + (slot + 1) * obs_dim;
          if (slot < spec.hop1.size())
            env.local_obs_into(spec.hop1[slot], row);
          else
            std::fill(row, row + obs_dim, 0.0);
        }
        masks.push_back(&agent_masks[i]);
      }
    }
    const Tensor& q = online_->forward(workspace_, obs, masks);
    for (std::size_t a = 0; a < batch; ++a)
      for (std::size_t i = 0; i < n; ++i)
        actions[active[a]][i] =
            nn::argmax_row(q, a * n + i, env_->agent(i).num_phases);
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

class CoLightController : public env::Controller {
 public:
  explicit CoLightController(CoLightTrainer* trainer) : trainer_(trainer) {}
  std::vector<std::size_t> act(const env::TscEnv& env) override {
    (void)env;
    return trainer_->act_all(/*explore=*/false);
  }
  std::string name() const override { return "CoLight"; }

 private:
  CoLightTrainer* trainer_;
};

std::unique_ptr<env::Controller> CoLightTrainer::make_controller() {
  return std::make_unique<CoLightController>(this);
}

}  // namespace tsc::baselines
