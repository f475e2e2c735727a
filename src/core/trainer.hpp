// PairUpLight training loop (paper Algorithm 1).
//
// Centralized Training, Decentralized Execution: a (by default shared)
// coordinated actor and centralized critic are trained with PPO + GAE over
// multi-agent rollouts. At every step each agent pairs up with its most
// congested upstream neighbor (falling back to itself) and receives that
// partner's previous outgoing message, regularized as
//     m_hat = Logistic(N(m, sigma))        (Algorithm 1 line 16)
// During evaluation the noise is dropped (m_hat = logistic(m)) and actions
// are greedy.
//
// Recurrent PPO uses stored hidden states: the h/c recorded during the
// rollout are replayed as fixed inputs in the update, so minibatch samples
// stay independent (see rl/rollout.hpp).
//
// Every decision - rollout collection, evaluation, the controller - runs
// through core/fleet_engine.hpp. With config.num_envs == 1 the trainer runs
// a one-slot fleet on its own environment and exploration stream
// (bit-identical to the historical single-env trainer); with num_envs = K
// > 1 it owns K environment replicas and steps their K episodes in
// lockstep against the live networks before every PPO update.
//
// The PPO update is delegated to core/update_engine.hpp:
// num_update_shards == 1 runs the historical batched minibatch update;
// K > 1 shards each minibatch across K worker threads, one batched pass
// per shard, and tracks the serial weights within a pinned tolerance
// (tests/test_sharded_update.cpp). On the default serial fused path the
// trainer runs each minibatch on a thread team (core::UpdateTeam) of
// std::thread::hardware_concurrency() threads, the calling thread
// included: an actor crew and a critic crew side by side, each splitting
// its network's layer kernels, then Adam over the whole team. The team is
// created on the trainer's first update, so a trainer that only acts
// (deployment, evaluation) starts no thread, and it is parked whenever
// update_model returns, so no thread spins during collection, evaluation
// or control. Every team size is bit-identical to one thread
// (tests/test_update_team.cpp).
#pragma once

#include <memory>
#include <vector>

#include "src/core/actor.hpp"
#include "src/core/critic.hpp"
#include "src/core/fleet_engine.hpp"
#include "src/core/rollout_engine.hpp"
#include "src/core/update_engine.hpp"
#include "src/env/controller.hpp"
#include "src/env/env.hpp"
#include "src/nn/optim.hpp"
#include "src/nn/tape.hpp"
#include "src/rl/ppo.hpp"
#include "src/rl/rollout.hpp"

namespace tsc::core {

class PairUpLightTrainer {
 public:
  /// `env` must outlive the trainer.
  PairUpLightTrainer(env::TscEnv* env, PairUpConfig config);

  /// The rollout phase of one training step: config.num_envs full episodes
  /// (stepped in lockstep by the fleet engine) collected with the CURRENT
  /// policy weights and this step's exploration epsilon, merged into one
  /// PPO batch. `stats` averages the per-episode quality metrics and sums
  /// the vehicle counts; `env_steps` is the total environment steps taken
  /// (throughput accounting for the benchmarks). Does NOT update weights
  /// or advance the episode counter.
  struct CollectResult {
    rl::RolloutBuffer buffer{0};
    env::EpisodeStats stats;
    std::size_t env_steps = 0;
  };
  CollectResult collect_rollouts(std::uint64_t base_seed);

  /// The update phase of one training step: PPO epochs/minibatches over a
  /// collected (GAE-finished) buffer. Exposed separately so benchmarks and
  /// tests can time or drive it without re-collecting rollouts; normalizes
  /// advantages in place when configured. Does not advance the episode
  /// counter.
  void update(rl::RolloutBuffer& buffer);

  /// One training episode: rollout (with exploration + message noise),
  /// then a PPO update. Episode seeds advance deterministically. With
  /// num_envs = K this consumes K episodes' worth of experience per call.
  env::EpisodeStats train_episode();

  /// One evaluation episode without learning or exploration noise (always
  /// on the trainer's own environment, regardless of num_envs): actions are
  /// sampled from the policy, or its argmax under config.greedy_eval.
  env::EpisodeStats eval_episode(std::uint64_t seed);

  /// Stateful greedy controller over the trained policy (for the shared
  /// evaluation harness). The controller references this trainer's
  /// networks; the trainer must outlive it.
  std::unique_ptr<env::Controller> make_controller();

  std::size_t episodes_trained() const { return episode_; }
  const PairUpConfig& config() const { return config_; }
  std::size_t critic_input_dim() const { return critic_input_dim_; }
  std::size_t num_models() const { return actors_.size(); }
  CoordinatedActor& actor(std::size_t model = 0) { return *actors_.at(model); }
  CentralizedCritic& critic(std::size_t model = 0) { return *critics_.at(model); }
  /// Environment replicas collecting per training step (config.num_envs).
  std::size_t num_envs() const { return config_.num_envs; }
  /// Env seeds of the most recent collect_rollouts round, in episode order
  /// (one entry per environment replica). Under
  /// config.invariant_seeding these depend only on the global episode
  /// index, never on num_envs.
  const std::vector<std::uint64_t>& last_episode_seeds() const {
    return last_episode_seeds_;
  }

  /// Bits each agent receives from other intersections per decision step
  /// (Table IV): msg_dim 32-bit values from exactly one neighbor.
  std::size_t comm_bits_per_step() const { return config_.msg_dim * 32; }

  /// Workspace of the training fleet engine (rollouts and evaluation).
  /// Exposed so tests can assert the zero steady-state-allocation property
  /// via alloc_events().
  const nn::Workspace& inference_workspace() const {
    return fleet_->workspace();
  }

  /// Allocation events across every backward workspace of the fused update
  /// path (the serial workspace, the update team's critic workspace, and
  /// all shard workspaces). Like inference_workspace().alloc_events(), flat
  /// once minibatch shapes stabilize; exactly 0 grows when
  /// update_path == kTape.
  std::size_t update_alloc_events() const {
    return update_workspace_.alloc_events() +
           (update_team_ ? update_team_->critic_workspace().alloc_events() : 0) +
           (updater_ ? updater_->backward_alloc_events() : 0);
  }

  /// The serial fused update's thread team, or null before the first
  /// update and on the sharded and tape paths. Parked between updates.
  const UpdateTeam* update_team() const { return update_team_.get(); }

  /// Shard count of the PPO update (config.num_update_shards; 1 on the
  /// serial path).
  std::size_t update_shards() const {
    return updater_ ? updater_->num_shards() : 1;
  }

  /// Engine behind collect_rollouts and eval_episode. Exposed so tests can
  /// assert the fleet extension of the allocation contract via
  /// FleetRolloutEngine::alloc_events().
  const FleetRolloutEngine* fleet_engine() const { return fleet_.get(); }

  /// Critic neighbor-ring padding widths (the fleet engine and tests need
  /// the same layout parameters the trainer derived from the env graph).
  std::size_t hop1_slots() const { return hop1_slots_; }
  std::size_t hop2_slots() const { return hop2_slots_; }

  /// Regularized outgoing messages (one per agent) recorded at the last
  /// decision of train_episode()/eval_episode() - for protocol inspection.
  /// With num_envs > 1 these come from replica 0's episode.
  const std::vector<std::vector<double>>& last_messages() const {
    return last_messages_;
  }
  /// Pairing partner chosen for each agent at the last decision.
  const std::vector<std::size_t>& last_partners() const { return last_partners_; }

  /// Checkpoints the full training state: every model's weights
  /// (`<prefix>_actor<k>.bin` / `<prefix>_critic<k>.bin`), every
  /// optimizer's Adam moments and step count (`<prefix>_optim<k>.bin`),
  /// and the trainer's episode counter + RNG stream (`<prefix>_trainer.bin`).
  /// load_checkpoint restores all of it (the trainer must have been
  /// constructed with an identical config/environment), so a resumed run
  /// continues the uninterrupted run step-for-step — weights alone are not
  /// enough, since Adam's moments/bias correction, the epsilon schedule,
  /// and the shuffle stream all carry state. It parses every file before
  /// changing anything, so a throw leaves the trainer as it was.
  void save_checkpoint(const std::string& prefix);
  void load_checkpoint(const std::string& prefix);

 private:
  friend class PairUpController;

  /// A fleet engine over the live models (training/eval, or a controller).
  std::unique_ptr<FleetRolloutEngine> make_engine();

  void update_model(std::size_t model, const std::vector<const rl::Sample*>& samples);
  double current_epsilon() const;

  env::TscEnv* env_;
  PairUpConfig config_;
  Rng rng_;
  std::vector<std::unique_ptr<CoordinatedActor>> actors_;
  std::vector<std::unique_ptr<CentralizedCritic>> critics_;
  std::vector<std::unique_ptr<nn::Adam>> optims_;
  std::size_t hop1_slots_ = 0, hop2_slots_ = 0;
  std::size_t critic_input_dim_ = 0;
  std::size_t episode_ = 0;
  std::uint64_t episode_seed_ = 0;
  std::vector<std::vector<double>> last_messages_;
  std::vector<std::size_t> last_partners_;
  std::vector<std::uint64_t> last_episode_seeds_;
  /// Reusable autodiff tape for the tape-path PPO minibatches (reset before
  /// every forward; reuse keeps node storage warm, see nn/tape.hpp).
  nn::Tape scratch_tape_;
  /// Per-update packed sample rows (built once per update_model call and
  /// shared by every epoch's minibatches; capacity pinned across updates).
  PackedSampleBlock sample_block_;
  /// Activation/gradient buffers for the serial fused update path
  /// (update_path == kFused, num_update_shards == 1). Shard workspaces live
  /// inside updater_.
  nn::Workspace update_workspace_;
  /// Collection engine over the LIVE models (single-threaded, so no frozen
  /// copies or weight sync). With num_envs = K > 1 the K replicas it steps
  /// live in fleet_envs_; with K = 1 it runs the trainer's own env_/rng_.
  std::vector<std::unique_ptr<env::TscEnv>> fleet_envs_;
  std::unique_ptr<FleetRolloutEngine> fleet_;
  /// Built only when config.num_update_shards > 1.
  std::unique_ptr<ParallelUpdateEngine> updater_;
  /// Thread team + critic workspace of the serial fused update; built on
  /// the first update (see update_model).
  std::unique_ptr<UpdateTeam> update_team_;
};

}  // namespace tsc::core
