// PairUpLight configuration and the pairing rule of the decentralized
// execution (Algorithm 1): which upstream neighbor each agent listens to.
//
// Every PairUpLight decision - training rollouts, evaluation, deployment
// control - runs through one engine, core/fleet_engine.hpp. This header
// holds what that engine, the trainer (core/trainer.hpp) and the PPO
// update (core/update_engine.hpp) share: PairUpConfig and pick_partner.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/env/env.hpp"
#include "src/nn/kernels.hpp"
#include "src/rl/ppo.hpp"
#include "src/util/rng.hpp"

namespace tsc::core {

/// Who an agent listens to (ablation of the paper's section V-B design;
/// the paper's choice is kMostCongestedUpstream).
enum class PairingStrategy {
  kMostCongestedUpstream,  ///< paper: congestion-first upstream neighbor
  kSelf,                   ///< listen to own previous message only
  kRandomNeighbor,         ///< uniformly random upstream neighbor per step
  kFixedUpstream,          ///< first upstream neighbor, never re-paired
};

/// Which backward implementation the PPO update runs. The serial and the
/// sharded update support both, and the two produce BIT-IDENTICAL losses,
/// gradients, and weight trajectories (the fused kernels replay the tape's
/// FP accumulation orders — nn/backward.hpp has the contract,
/// tests/test_backward_path.cpp the pins).
enum class UpdatePath {
  /// Autodiff tape (nn/tape.hpp): per-minibatch graph construction, node
  /// allocation, and closure dispatch. The oracle the fused path is pinned
  /// against.
  kTape,
  /// Tape-free fused forward/backward (nn/backward.hpp): preallocated
  /// workspace slots, hand-written analytic kernels, gradients accumulated
  /// straight into the per-slot sinks. Same numbers, ~2x+ update
  /// throughput.
  kFused,
};

struct PairUpConfig {
  rl::PpoConfig ppo;
  std::size_t hidden = 64;
  std::size_t msg_dim = 1;      ///< communication bandwidth (Fig. 11: 1 vs 2)
  double msg_sigma = 0.1;       ///< regularizer noise std during training
  bool comm_enabled = true;     ///< false = no-communication ablation (Fig. 8)
  PairingStrategy pairing = PairingStrategy::kMostCongestedUpstream;
  /// Evaluation action rule. PPO learns a stochastic policy, so by default
  /// evaluation SAMPLES from it (with a deterministic per-episode stream);
  /// a barely-trained policy's argmax can freeze a phase and gridlock.
  /// Set true to evaluate the argmax policy instead.
  bool greedy_eval = false;
  /// Neighbor rings fed to the centralized critic: 0 = local only,
  /// 1 = +one-hop, 2 = +two-hop (the paper's design).
  std::size_t critic_hops = 2;
  /// One shared actor/critic for all agents (homogeneous grids) or one per
  /// agent (heterogeneous networks, paper section VI-D).
  bool parameter_sharing = true;
  /// Rollout collection width: number of environment replicas whose
  /// episodes are collected per training step. 1 = the trainer's own
  /// environment and exploration stream (the historical serial trajectory);
  /// K > 1 steps K replicas in lockstep through the fleet engine and merges
  /// their K episodes into one PPO batch. Results are deterministic for a
  /// fixed K but differ across K (different episode seeds and batch
  /// composition).
  std::size_t num_envs = 1;
  /// Worker-count-invariant seeding: derive each collected episode's env
  /// seed from the GLOBAL episode index (seed + round * num_envs + slot)
  /// instead of the round's seeder stream, so the sequence of env seeds —
  /// and hence the traffic each policy update sees — is identical for every
  /// num_envs (training curves stay comparable when scaling workers).
  /// Exploration streams of the replicas derive from the env seed.
  /// false = the historical slot-dependent seeder (bit-identical legacy).
  /// With num_envs = 1 both modes use seed + round, so the serial golden
  /// path is unchanged either way.
  bool invariant_seeding = false;
  /// Parallel PPO update: number of shards each minibatch's
  /// forward/backward is split across. 1 = the exact historical serial
  /// update (single batched pass, no threads); K > 1 runs one batched pass
  /// per shard on K worker threads against the frozen weights and folds the
  /// per-shard gradients in shard order before the single clip + Adam step.
  /// The fold re-associates each weight gradient's row sum at shard
  /// boundaries, so sharded weights track the serial run within a pinned
  /// tolerance rather than bit for bit, and results depend on K
  /// (core/update_engine.hpp, tests/test_sharded_update.cpp).
  std::size_t num_update_shards = 1;
  /// Backward implementation of the PPO update (env: PAIRUP_UPDATE_PATH =
  /// tape|fused). kFused (default) runs the tape-free analytic backward —
  /// bit-identical to the tape for every shard count, so all goldens
  /// exercise it; kTape keeps the autodiff tape (the oracle,
  /// for A-B comparison and the bitwise pins).
  UpdatePath update_path = UpdatePath::kFused;
  /// Math-kernel tier of the rollout/evaluation forwards (nn/kernels.hpp).
  /// kReference (default) keeps the bit-exact legacy kernels everywhere.
  /// kFast runs rollout collection and evaluation forwards through the
  /// SIMD/FMA kernels — tolerance-bounded against reference (documented
  /// error budgets in nn/kernels.hpp; divergence contract in the README
  /// determinism matrix), NOT bit-identical, so training trajectories
  /// diverge the way sharded updates do. The PPO update itself always runs
  /// reference-tier kernels regardless of this knob.
  nn::KernelTier kernel_tier = nn::KernelTier::kReference;
  std::uint64_t seed = 1;
};

/// Communication partner of `agent` under config.pairing. Consumes `rng`
/// (one uniform_int draw) exactly when the strategy is kRandomNeighbor and
/// the agent has upstream neighbors; `rng` may be null otherwise.
std::size_t pick_partner(const env::TscEnv& env, const PairUpConfig& config,
                         Rng* rng, std::size_t agent);

}  // namespace tsc::core
