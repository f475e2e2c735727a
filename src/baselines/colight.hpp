// CoLight baseline (Wei, Xu et al. 2019, paper section VI-B).
//
// A parameter-shared Deep Q-Network whose state embedding attends over the
// agent's neighborhood with a graph attention layer: each agent embeds its
// own and its 1-hop neighbors' observations, a GAT mixes them (query =
// self), and a Q head scores each phase. Trained off-policy from a replay
// buffer with a target network and epsilon-greedy exploration.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "src/env/controller.hpp"
#include "src/env/env.hpp"
#include "src/nn/gat.hpp"
#include "src/nn/inference.hpp"
#include "src/nn/layers.hpp"
#include "src/nn/optim.hpp"
#include "src/rl/replay.hpp"
#include "src/util/rng.hpp"

namespace tsc::baselines {

struct CoLightConfig {
  double gamma = 0.99;
  double lr = 1e-3;
  double epsilon_start = 0.8;
  double epsilon_end = 0.05;
  std::size_t epsilon_decay_episodes = 60;
  std::size_t embed_dim = 32;
  std::size_t replay_capacity = 20000;
  std::size_t batch_size = 32;
  std::size_t target_update_steps = 200;  ///< hard target-net sync interval
  std::size_t updates_per_step = 1;       ///< gradient steps per env step
  double max_grad_norm = 1.0;
  /// Math-kernel tier of action selection, which runs the Q-network's
  /// workspace forward (nn/inference.hpp): kReference (default) is
  /// bit-identical to the tape forward; kFast is tolerance-bounded
  /// SIMD/FMA. The Q update trains on the tape, always at reference.
  nn::KernelTier kernel_tier = nn::KernelTier::kReference;
  std::uint64_t seed = 4;
};

class CoLightTrainer {
 public:
  /// A Q-network: shared obs embedding + GAT + Q head.
  struct QNet : nn::Module {
    QNet(std::size_t obs_dim, std::size_t embed_dim, std::size_t entities,
         std::size_t max_phases, Rng& rng);
    /// entity_obs: [entities, obs_dim] (row 0 = self). Returns [1, max_phases].
    nn::Var forward(nn::Tape& tape, nn::Var entity_obs,
                    const std::vector<bool>& mask);
    /// Block-batched workspace forward: entity_obs stacks B = masks.size()
    /// neighborhoods as [B * entities, obs_dim] and masks[b] is block b's
    /// entity mask. Row b of the returned [B, max_phases] tensor is
    /// bit-identical to the tape forward on block b alone at the reference
    /// tier (see GatLayer::forward for the argument). Non-const because
    /// the GAT layer records its attention weights.
    const nn::Tensor& forward(nn::Workspace& ws, const nn::Tensor& entity_obs,
                              std::span<const std::vector<bool>* const> masks);
    std::unique_ptr<nn::Linear> embed;
    std::unique_ptr<nn::GatLayer> gat;
    std::unique_ptr<nn::Linear> q_head;
  };

  CoLightTrainer(env::TscEnv* env, CoLightConfig config);

  env::EpisodeStats train_episode();
  env::EpisodeStats eval_episode(std::uint64_t seed);
  /// Fleet-batched greedy evaluation: one episode per seed, all replicas
  /// stepped in lockstep with every (replica, agent) neighborhood stacked
  /// into one block-batched Q forward per step — the embedding, GAT
  /// projections, and Q head each run as a single GEMM over
  /// active_replicas * num_agents blocks. stats[w] is bit-identical to
  /// eval_episode(seeds[w]) (greedy CoLight consumes no RNG). Runs on
  /// per-call environment clones; the trainer's environment and RNG stream
  /// are untouched.
  std::vector<env::EpisodeStats> eval_episodes_fleet(
      const std::vector<std::uint64_t>& seeds);
  std::unique_ptr<env::Controller> make_controller();
  std::size_t episodes_trained() const { return episode_; }
  /// The online Q-network (for tests and inspection).
  QNet& q_network() { return *online_; }

  /// Bits received from other intersections per step: 1-hop neighbors ship
  /// their link-level observations as 32-bit floats (Table IV "CoLight").
  std::size_t comm_bits_per_step() const;

 private:
  friend class CoLightController;

  struct Transition {
    std::vector<double> entity_obs;       ///< flattened [entities, obs_dim]
    std::vector<double> next_entity_obs;
    std::vector<bool> mask;
    std::size_t action = 0;
    std::size_t phase_count = 0;
    double reward = 0.0;
    bool terminal = false;
  };

  /// Flattened neighborhood observation of agent i (self first).
  std::vector<double> entity_obs(std::size_t i) const;
  std::vector<bool> entity_mask(std::size_t i) const;
  std::vector<std::size_t> act_all(bool explore);
  void learn_step();
  env::EpisodeStats run(bool train_mode, std::uint64_t seed);
  double current_epsilon() const;

  env::TscEnv* env_;
  CoLightConfig config_;
  Rng rng_;
  std::size_t entities_ = 0;  ///< 1 + hop1 slots
  std::unique_ptr<QNet> online_;
  std::unique_ptr<QNet> target_;
  std::unique_ptr<nn::Adam> optim_;
  rl::ReplayBuffer<Transition> replay_;
  nn::Workspace workspace_;
  std::size_t episode_ = 0;
  std::size_t learn_steps_ = 0;
  std::uint64_t episode_seed_ = 0;
};

}  // namespace tsc::baselines
