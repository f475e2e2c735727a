// MA2C baseline (Chu et al. 2019, paper section VI-B).
//
// Independent advantage actor-critic per intersection - no parameter
// sharing. Each agent augments its local observation with:
//   * spatially discounted neighbor observations (factor alpha), and
//   * neighbor policy fingerprints (the neighbors' previous action
//     probability distributions),
// and trains on a spatially discounted reward
//   r_i + alpha * sum_{j in N(i)} r_j.
// Updates are on-policy A2C (Eqs. 1-3): one pass over the episode batch.
#pragma once

#include <memory>
#include <vector>

#include "src/env/controller.hpp"
#include "src/env/env.hpp"
#include "src/nn/inference.hpp"
#include "src/nn/layers.hpp"
#include "src/nn/optim.hpp"
#include "src/rl/ppo.hpp"
#include "src/rl/rollout.hpp"
#include "src/util/rng.hpp"

namespace tsc::baselines {

struct Ma2cConfig {
  double gamma = 0.99;
  double alpha = 0.75;        ///< spatial discount for neighbor obs/rewards
  double lr = 3e-4;
  double entropy_coef = 0.01;
  double value_coef = 0.5;
  double max_grad_norm = 0.5;
  std::size_t hidden = 64;
  std::size_t minibatch = 128;
  /// Sample from the stochastic policies at evaluation time (deterministic
  /// per-episode stream); argmax when true.
  bool greedy_eval = false;
  /// Math-kernel tier of the rollout/evaluation forwards, which run the
  /// networks' workspace forwards (nn/inference.hpp): kReference (default)
  /// is bit-identical to the tape forward; kFast is tolerance-bounded
  /// SIMD/FMA. The A2C update trains on the tape, always at reference.
  nn::KernelTier kernel_tier = nn::KernelTier::kReference;
  std::uint64_t seed = 3;
};

class Ma2cTrainer {
 public:
  Ma2cTrainer(env::TscEnv* env, Ma2cConfig config);

  env::EpisodeStats train_episode();
  env::EpisodeStats eval_episode(std::uint64_t seed);
  /// Fleet-batched evaluation: one episode per seed, replicas stepped in
  /// lockstep with each agent's actor forward batched across the live
  /// replicas into one GEMM per layer. stats[w] is bit-identical to
  /// eval_episode(seeds[w]): each replica keeps its own fingerprint table
  /// and (unless greedy_eval) its own Rng(seed ^ kEvalSampleSalt) sample
  /// stream, consumed agent-ascending per step exactly like the serial
  /// loop; the phase-mask add, softmax, and categorical weights replay the
  /// serial arithmetic row-by-row. Runs on per-call environment clones; the
  /// trainer's environment, fingerprints, and RNG streams are untouched.
  std::vector<env::EpisodeStats> eval_episodes_fleet(
      const std::vector<std::uint64_t>& seeds);
  std::unique_ptr<env::Controller> make_controller();
  std::size_t episodes_trained() const { return episode_; }
  /// Agent i's policy and value networks (for tests and inspection).
  nn::Mlp& actor(std::size_t i) { return *actors_.at(i); }
  nn::Mlp& critic(std::size_t i) { return *critics_.at(i); }

  /// Bits received from other intersections per step: each of the (up to 4)
  /// neighbors sends its observation + fingerprint as 32-bit floats
  /// (Table IV row "MA2C").
  std::size_t comm_bits_per_step() const;

 private:
  friend class Ma2cController;

  std::vector<double> agent_input(std::size_t i) const;
  std::vector<std::size_t> act_all(bool explore, rl::RolloutBuffer* buffer,
                                   Rng* sample_rng = nullptr);
  env::EpisodeStats run(bool train_mode, std::uint64_t seed);
  void update(rl::RolloutBuffer& buffer);

  env::TscEnv* env_;
  Ma2cConfig config_;
  Rng rng_;
  std::size_t hop1_slots_ = 0;
  std::size_t input_dim_ = 0;
  std::vector<std::unique_ptr<nn::Mlp>> actors_;   // one per agent
  std::vector<std::unique_ptr<nn::Mlp>> critics_;
  std::vector<std::unique_ptr<nn::Adam>> optims_;
  /// Policy fingerprints: last action distribution per agent.
  std::vector<std::vector<double>> fingerprints_;
  nn::Workspace workspace_;
  std::size_t episode_ = 0;
  std::uint64_t episode_seed_ = 0;
};

}  // namespace tsc::baselines
