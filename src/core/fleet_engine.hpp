// The one PairUpLight decision engine: training rollouts, evaluation and
// deployment control all run through it. It steps a fleet of environment
// replicas ("slots") in lockstep on ONE thread, with every layer forward
// running as a single (num_slots * num_agents)-row GEMM per model bucket.
//
// Observation rows from every slot are packed into shared batch matrices
// (reused nn::Workspace slots, one persistent row-block layout per
// fleet), the actor/critic forwards run once per model bucket through the
// multi-row blocked GEMM kernel (nn::matmul_into_batched), and LSTM h/c plus
// outgoing messages stay resident in fleet-ordered slab tensors
// (row = slot * num_agents + agent). A one-slot fleet is the serial case:
// the trainer's own environment and exploration stream (num_envs = 1,
// eval_episode, the controller).
//
// Buckets group agents by model: under parameter sharing one bucket holds
// all agents (homogeneous obs/phase shape by construction); without sharing
// (Monaco) each agent's model is its own bucket and the fleet batches that
// agent's rows across slots. Per-agent phase masks are applied at the
// logits inside the bucket's batched forward, so phase-count heterogeneity
// never splits a bucket.
//
// DETERMINISM CONTRACT. Trajectories are bit-identical to the historical
// per-agent decision loop (one forward per model per env step, pinned by the
// serial and num_envs = 2 goldens) and every recorded sample's log-prob and
// value equal a tape forward from its stored inputs (the tape-oracle tests
// in tests/test_inference.cpp). Three properties carry this:
//  1. Every kernel is row-independent and the batched GEMM is bit-identical
//     to the reference kernel (nn/tensor.hpp), so packing more rows into a
//     batch never changes any row's result.
//  2. Gather order: ALL buckets' input rows are packed (and partners
//     picked, slot-ascending then agent-ascending) before any bucket's
//     forward/scatter runs, so every agent sees the PREVIOUS step's
//     messages - Algorithm 1's synchronous sweep.
//  3. Scatter order: buckets are processed in model order and each bucket's
//     rows slot-major (members ascending within a slot), so each slot's RNG
//     stream is consumed in agent order. Streams are per slot, so
//     interleaving across slots is unobservable.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/core/actor.hpp"
#include "src/core/critic.hpp"
#include "src/core/rollout_engine.hpp"
#include "src/env/controller.hpp"
#include "src/env/env.hpp"
#include "src/nn/inference.hpp"
#include "src/rl/rollout.hpp"
#include "src/util/rng.hpp"

namespace tsc::core {

/// One replica's bindings for a lockstep fleet run. All pointers are
/// non-owning and must outlive the run; `rng` is the slot's exploration
/// stream (required in train mode, and whenever the pairing strategy
/// draws); `buffer` is required in train mode.
struct FleetSlot {
  env::TscEnv* env = nullptr;
  std::uint64_t seed = 0;
  Rng* rng = nullptr;
  rl::RolloutBuffer* buffer = nullptr;
};

class FleetRolloutEngine {
 public:
  /// Captures the live models (read-only during runs; single-threaded, so
  /// no copies or weight sync needed) and the critic's neighbor-ring layout.
  FleetRolloutEngine(const PairUpConfig* config,
                     std::vector<CoordinatedActor*> actors,
                     std::vector<CentralizedCritic*> critics,
                     std::size_t hop1_slots, std::size_t hop2_slots,
                     std::size_t critic_input_dim);

  /// Runs one full episode on every slot in lockstep (each env reset with
  /// its slot seed): begin(), then decide() and env steps until every slot
  /// is done. Train mode records into each slot's buffer, bootstraps the
  /// terminal value, and runs GAE per agent. Eval mode follows
  /// config.greedy_eval; stochastic eval streams derive from each slot's
  /// seed. Returns per-slot stats in slot order. The slot count may differ
  /// between calls; buffers reaching their peak fleet shape stop allocating
  /// (alloc_events()).
  std::vector<env::EpisodeStats> run_episodes(std::vector<FleetSlot>& slots,
                                              bool train_mode, double epsilon);

  /// Starts an episode on `slots` without touching the envs: lays out the
  /// model buckets and zeroes the recurrent/message slabs. `epsilon` is the
  /// epsilon-greedy value exploring decisions use.
  void begin(const std::vector<FleetSlot>& slots, double epsilon);

  /// One lockstep decision for the slots listed in `active` (indices into
  /// `slots`, whose envs sit at their current state). Fills actions(w) and
  /// advances the recurrent state and messages. `explore` samples actions
  /// per the exploration rule and adds message noise; otherwise actions are
  /// the argmax, or draws from `(*sample_rngs)[w]` when that is non-null.
  /// `record` adds a sample per agent to each slot's buffer.
  void decide(std::vector<FleetSlot>& slots,
              const std::vector<std::size_t>& active, bool explore,
              bool record, std::vector<Rng>* sample_rngs);

  /// Actions chosen for slot `w` at its last decide().
  const std::vector<std::size_t>& actions(std::size_t w) const {
    return actions_.at(w);
  }

  /// Workspace + state-slab allocation events: warmup (first episodes at a
  /// new peak fleet size) allocates, steady state is exactly zero — the
  /// fleet extension of the nn::Workspace::alloc_events() contract.
  std::size_t alloc_events() const { return ws_.alloc_events() + slab_events_; }
  const nn::Workspace& workspace() const { return ws_; }

  /// Protocol-inspection views of a slot's run_episodes episode, recorded at
  /// its final decision: each agent's regularized outgoing message and
  /// pairing partner.
  const std::vector<std::vector<double>>& last_messages(std::size_t slot) const {
    return last_messages_.at(slot);
  }
  const std::vector<std::size_t>& last_partners(std::size_t slot) const {
    return last_partners_.at(slot);
  }

 private:
  /// Slab reshape that counts backing-storage growth like
  /// nn::Workspace::acquire (slabs never shrink capacity).
  void reshape_slab(nn::Tensor& slab, std::size_t rows, std::size_t cols);

  const PairUpConfig* config_;
  std::vector<CoordinatedActor*> actors_;
  std::vector<CentralizedCritic*> critics_;
  std::size_t hop1_slots_ = 0, hop2_slots_ = 0;
  std::size_t critic_input_dim_ = 0;

  nn::Workspace ws_;
  std::size_t slab_events_ = 0;
  /// Fleet-ordered recurrent/message state; row = slot * num_agents + agent.
  nn::Tensor h_a_, c_a_, h_v_, c_v_, msg_;

  double epsilon_ = 0.0;  ///< exploration epsilon of the current run

  // Per-run scratch (capacities persist across runs).
  std::vector<std::vector<std::size_t>> groups_;   ///< model -> member agents
  std::vector<std::size_t> pos_in_bucket_;         ///< agent -> index in its bucket
  /// Per-bucket batch tensors of the current decision pass, in acquisition
  /// order: actor input, h_a, c_a, critic input, h_v, c_v.
  std::vector<std::array<nn::Tensor*, 6>> bucket_slots_;
  std::vector<std::size_t> active_;                ///< live slot indices
  std::vector<std::size_t> newly_done_;
  std::vector<double> reward_sum_;                 ///< [slot]
  std::vector<std::size_t> reward_count_;          ///< [slot]
  std::vector<std::vector<std::size_t>> actions_;  ///< [slot][agent]
  std::vector<std::vector<double>> values_;        ///< [slot][agent]
  std::vector<std::vector<std::size_t>> partners_; ///< [slot][agent]
  std::vector<std::size_t> phase_counts_;          ///< per-bucket batch scratch
  std::vector<double> cat_weights_;                ///< categorical scratch
  std::vector<std::vector<std::vector<double>>> last_messages_;
  std::vector<std::vector<std::size_t>> last_partners_;
};

}  // namespace tsc::core
