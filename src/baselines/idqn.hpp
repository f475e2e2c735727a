// IDQN baseline: one independent Deep Q-Network per intersection, local
// observations only, no communication and no parameter sharing - the
// "Individual RL" comparator standard in TSC studies (e.g. CoLight's
// IndividualRL, Wei et al.'s IntelliLight lineage). Included beyond the
// paper's baseline set to separate the value of *learning* from the value
// of *coordination*.
#pragma once

#include <memory>
#include <vector>

#include "src/env/controller.hpp"
#include "src/env/env.hpp"
#include "src/nn/inference.hpp"
#include "src/nn/layers.hpp"
#include "src/nn/optim.hpp"
#include "src/rl/replay.hpp"
#include "src/util/rng.hpp"

namespace tsc::baselines {

struct IdqnConfig {
  double gamma = 0.99;
  double lr = 1e-3;
  double epsilon_start = 0.8;
  double epsilon_end = 0.05;
  std::size_t epsilon_decay_episodes = 60;
  std::size_t hidden = 64;
  std::size_t replay_capacity = 10000;  ///< per agent
  std::size_t batch_size = 32;
  std::size_t target_update_steps = 200;
  std::size_t updates_per_step = 1;
  double max_grad_norm = 1.0;
  /// Math-kernel tier of action selection, which runs the Q-network's
  /// workspace forward (nn/inference.hpp): kReference (default) is
  /// bit-identical to the tape forward; kFast is tolerance-bounded
  /// SIMD/FMA. The Q update trains on the tape, always at reference.
  nn::KernelTier kernel_tier = nn::KernelTier::kReference;
  std::uint64_t seed = 5;
};

class IdqnTrainer {
 public:
  IdqnTrainer(env::TscEnv* env, IdqnConfig config);

  env::EpisodeStats train_episode();
  env::EpisodeStats eval_episode(std::uint64_t seed);
  /// Fleet-batched greedy evaluation: one episode per seed, all replicas
  /// stepped in lockstep with each agent's Q forward batched across the
  /// live replicas into one GEMM per layer. stats[w] is bit-identical to
  /// eval_episode(seeds[w]) — greedy IDQN consumes no RNG, per-row argmax
  /// replays the serial tie-break, and the batched GEMM kernel matches the
  /// reference bit-for-bit. Runs on per-call environment clones; the
  /// trainer's own environment and RNG stream are untouched.
  std::vector<env::EpisodeStats> eval_episodes_fleet(
      const std::vector<std::uint64_t>& seeds);
  std::unique_ptr<env::Controller> make_controller();
  std::size_t episodes_trained() const { return episode_; }
  /// Agent i's online Q-network (for tests and inspection).
  nn::Mlp& q_network(std::size_t i) { return *online_.at(i); }

  /// IDQN receives nothing from other intersections.
  std::size_t comm_bits_per_step() const { return 0; }

 private:
  friend class IdqnController;

  struct Transition {
    std::vector<double> obs;
    std::vector<double> next_obs;
    std::size_t action = 0;
    double reward = 0.0;
    bool terminal = false;
  };

  std::vector<std::size_t> act_all(bool explore);
  void learn_step(std::size_t agent);
  env::EpisodeStats run(bool train_mode, std::uint64_t seed);
  double current_epsilon() const;

  env::TscEnv* env_;
  IdqnConfig config_;
  Rng rng_;
  std::vector<std::unique_ptr<nn::Mlp>> online_;
  std::vector<std::unique_ptr<nn::Mlp>> target_;
  std::vector<std::unique_ptr<nn::Adam>> optims_;
  std::vector<rl::ReplayBuffer<Transition>> replays_;
  nn::Workspace workspace_;
  std::size_t episode_ = 0;
  std::size_t learn_steps_ = 0;
};

}  // namespace tsc::baselines
