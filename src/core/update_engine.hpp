// PPO minibatch-update engine: the serial batched update and the sharded
// parallel update.
//
// Everything one minibatch update touches is passed through UpdateContext,
// so the identical code drives both (a) the trainer's own networks (the
// num_update_shards = 1 serial path, bit-identical to the historical
// trainer) and (b) the ParallelUpdateEngine, which splits the minibatch
// across thread-pool workers.
//
// The update team. The actor and the critic share nothing in a minibatch
// until clip_grad_norm: each has its own inputs, forward, half of the loss
// (rl::fused_policy_loss_grad / rl::fused_value_loss_grad), backward and
// gradient sinks. When UpdateContext::team is set, the serial fused update
// splits the team (util/thread_team.hpp) into an actor crew and a critic
// crew (2 + 2 threads on a 4-thread host, 1 + 1 on 2): the calling thread
// leads the actor's half, a helper leads the critic's half on the team's
// critic workspace, and each leader forks its network's layer kernels
// across its crew (the partitions in nn/tensor.hpp and nn/backward.hpp:
// outputs only, never a reduction). After one join the calling thread
// combines the loss scalar in the single-thread expression order and clips
// (one ordered sum over actor then critic parameters), then Adam runs as
// balanced element ranges over the whole team. The team parks when the
// trainer's update_model returns. With a null team the same calls run one
// after the other on the calling thread. Every output element keeps its
// kernel, operand order, chain and sink either way, so every team size is
// bit-identical to the team-free schedule (tests/test_update_team.cpp).
//
// Non-finite guard. Every minibatch update checks the loss and the
// pre-clip gradient norm before Adam runs and throws TrainingDiverged when
// either is not finite, so a NaN never reaches the weights or the Adam
// moments.
//
// The sharded update runs ONE batched forward/backward per worker over its
// contiguous minibatch slice, scaled as its rows/batch share of the
// minibatch via rl::ppo_shard_loss (every batch mean is sum()/B with the
// GLOBAL divisor B, the division applied in the backward pass by
// Tape::div_scalar), and the calling thread folds the per-shard gradient
// slots in shard order before the single clip_grad_norm + Adam step.
// Workers share the live (frozen-by-barrier) weights read-only, and each
// shard's gradients land in dedicated slot tensors, never in
// Parameter::grad. Shards run their actor and critic halves one after the
// other (no team).
//
// Determinism. Every cross-row reduction in this stack folds sequentially
// over batch rows in increasing row order (the weight-gradient matmul_tn per
// output element, the broadcast-bias backward, the batch means), so within a
// shard the fold is exactly the serial sequence restricted to the slice.
// The fold ACROSS shards re-associates that row sum at shard boundaries:
// (g0+g1)+(g2+g3) instead of ((g0+g1)+g2)+g3. The result is deterministic
// for a fixed shard count (shards are folded in index order on one thread)
// but only tolerance-bounded against the serial fold, which is why the
// sharded update has a pinned numerical-equivalence test
// (tests/test_sharded_update.cpp) rather than a bitwise golden.
//
// The backward implementation is orthogonal to sharding (UpdatePath,
// default kFused): the fused path computes the same gradients with
// hand-written analytic kernels into preallocated nn::Workspace slots
// instead of building a tape graph, replaying the tape's floating-point
// accumulation orders exactly, so every statement above carries over
// bit-for-bit (nn/backward.hpp states the per-kernel replay contracts;
// tests/test_backward_path.cpp pins tape-vs-fused equality serially, per
// shard count, and over whole training runs). Fused workers write into the
// same per-shard slot tensors the tape path grad-redirects into, so the
// ordered fold on the calling thread is shared code.
#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/core/actor.hpp"
#include "src/core/critic.hpp"
#include "src/core/rollout_engine.hpp"
#include "src/nn/backward.hpp"
#include "src/nn/optim.hpp"
#include "src/nn/tape.hpp"
#include "src/rl/rollout.hpp"
#include "src/util/thread_pool.hpp"
#include "src/util/thread_team.hpp"

namespace tsc::core {

/// Network inputs and PPO scalars of an update's samples packed into
/// contiguous row blocks ONCE per update_model call, so every epoch's
/// minibatch packing gathers rows from one pinned block instead of
/// re-walking the scattered per-sample vectors. Buffers keep their capacity
/// across build() calls (pinned after the first update). Row r holds the
/// same values as samples[r], so packing from the block is value-identical
/// to packing from the samples.
class PackedSampleBlock {
 public:
  /// Throws std::invalid_argument, naming the field, when any sample's
  /// obs / critic_obs / h / c row does not have the given width; it checks
  /// before changing anything, so the previous block stays intact.
  void build(const std::vector<const rl::Sample*>& samples,
             std::size_t obs_dim, std::size_t critic_dim, std::size_t hidden);

  std::size_t rows() const { return rows_; }
  std::size_t obs_dim() const { return obs_dim_; }
  std::size_t critic_dim() const { return critic_dim_; }
  std::size_t hidden() const { return hidden_; }

  const double* obs_row(std::size_t r) const { return obs_.data() + r * obs_dim_; }
  const double* h_actor_row(std::size_t r) const { return h_a_.data() + r * hidden_; }
  const double* c_actor_row(std::size_t r) const { return c_a_.data() + r * hidden_; }
  const double* critic_obs_row(std::size_t r) const {
    return critic_obs_.data() + r * critic_dim_;
  }
  const double* h_critic_row(std::size_t r) const { return h_v_.data() + r * hidden_; }
  const double* c_critic_row(std::size_t r) const { return c_v_.data() + r * hidden_; }

  std::size_t action(std::size_t r) const { return actions_[r]; }
  std::size_t phase_count(std::size_t r) const { return phase_counts_[r]; }
  double log_prob(std::size_t r) const { return log_probs_[r]; }
  double advantage(std::size_t r) const { return advantages_[r]; }
  double ret(std::size_t r) const { return returns_[r]; }

 private:
  std::size_t rows_ = 0, obs_dim_ = 0, critic_dim_ = 0, hidden_ = 0;
  std::vector<double> obs_, h_a_, c_a_, critic_obs_, h_v_, c_v_;
  std::vector<std::size_t> actions_, phase_counts_;
  std::vector<double> log_probs_, advantages_, returns_;
};

/// Thrown by the minibatch updates when a minibatch's loss or pre-clip
/// gradient norm is not finite. It is thrown before Adam runs, so the
/// weights and the Adam moments and step count are those from before the
/// minibatch. begin()/end() are the minibatch's range of positions in the
/// shuffled sample order.
class TrainingDiverged : public std::runtime_error {
 public:
  TrainingDiverged(std::size_t begin, std::size_t end, double loss,
                   double grad_norm);
  std::size_t begin() const { return begin_; }
  std::size_t end() const { return end_; }

 private:
  std::size_t begin_, end_;
};

/// The serial fused update's thread team and the workspace the critic
/// crew's activations live in. Built on a trainer's first update with
/// std::thread::hardware_concurrency() threads, the calling thread included.
/// Not thread-safe itself: one update drives it at a time.
class UpdateTeam {
 public:
  explicit UpdateTeam(std::size_t threads) : team_(threads) {}

  std::size_t size() const { return team_.size(); }
  util::ThreadTeam& threads() { return team_; }
  const util::ThreadTeam& threads() const { return team_; }
  nn::Workspace& critic_workspace() { return critic_ws_; }
  const nn::Workspace& critic_workspace() const { return critic_ws_; }

 private:
  nn::Workspace critic_ws_;
  util::ThreadTeam team_;  ///< declared last: joined before the workspace dies
};

/// The mutable collaborators of one model's PPO update. All pointers are
/// non-owning and must outlive the call.
struct UpdateContext {
  const PairUpConfig* config = nullptr;
  CoordinatedActor* actor = nullptr;
  CentralizedCritic* critic = nullptr;
  /// actor->parameters() followed by critic->parameters(): the historical
  /// clip_grad_norm / Adam order, which the sharded reduce reproduces.
  std::vector<nn::Parameter*> params;
  nn::Tape* tape = nullptr;  ///< scratch tape for the serial path
  nn::Adam* optim = nullptr;
  /// Optional pre-packed inputs (built once per update). When set, minibatch
  /// packing reads rows from here instead of the samples.
  const PackedSampleBlock* block = nullptr;
  /// Workspace for the serial fused (tape-free) path; required when
  /// config->update_path == UpdatePath::kFused and num_update_shards == 1.
  /// Holds the actor's activations, and the critic's too when `team` is
  /// null.
  nn::Workspace* backward = nullptr;
  /// Optional thread team for serial_minibatch_update's fused path: actor
  /// and critic crews side by side, Adam over all threads (see the file
  /// comment). Null runs everything on the calling thread; the result is
  /// bit-identical either way. The tape path and the sharded engine ignore
  /// it.
  UpdateTeam* team = nullptr;
};

/// One minibatch of the historical batched PPO update: a single batched
/// forward/backward over samples[order[begin..end)], clip_grad_norm over
/// ctx.params, one Adam step; the num_update_shards = 1 golden regression
/// pins it. On the fused path the actor and critic halves run on the two
/// crews of ctx.team when it is set. Returns the minibatch loss. Throws
/// TrainingDiverged (before Adam) on a non-finite loss or gradient norm,
/// and, on the fused path, std::invalid_argument when a row's width does
/// not match its network; either way the weights and Adam state are left
/// untouched.
double serial_minibatch_update(UpdateContext& ctx,
                               const std::vector<const rl::Sample*>& samples,
                               const std::vector<std::size_t>& order,
                               std::size_t begin, std::size_t end);

/// One batched forward/backward over the contiguous minibatch slice
/// samples[order[begin..end)], scaled as its (end-begin)/`batch` share of
/// the minibatch (rl::ppo_shard_loss with the GLOBAL batch divisor).
/// Parameter gradients accumulate into the tape's installed grad-redirect
/// targets (the caller's per-shard slot tensors). Returns the scaled shard
/// loss, so the sum over a minibatch's shards equals that minibatch's loss
/// up to summation order.
/// `block`, when non-null, supplies the minibatch rows (value-identical to
/// gathering from `samples`).
double shard_loss_and_grads(nn::Tape& tape, CoordinatedActor& actor,
                            CentralizedCritic& critic,
                            const std::vector<const rl::Sample*>& samples,
                            const std::vector<std::size_t>& order,
                            std::size_t begin, std::size_t end,
                            std::size_t batch, const PairUpConfig& config,
                            const PackedSampleBlock* block = nullptr);

/// Tape-free equivalent of shard_loss_and_grads: one fused forward + analytic backward over
/// samples[order[begin..end)] as its (end-begin)/`batch` minibatch share,
/// with NO tape — activations live in `ws` slots (zero steady-state
/// allocations) and parameter gradients accumulate directly into
/// `actor_sinks` / `critic_sinks` (one tensor per parameter in each
/// module's parameters() order; matmul weight sinks must be zeroed by the
/// caller). Loss and gradients are bit-identical to the tape functions
/// above — every kernel replays the tape's FP accumulation order (see
/// nn/backward.hpp; pinned by tests/test_backward_path.cpp). With a team,
/// the actor's half runs on its first crew and the critic's half on its
/// second crew and critic workspace (bit-identical to a null team).
double fused_shard_loss_and_grads(nn::Workspace& ws,
                                  CoordinatedActor& actor,
                                  CentralizedCritic& critic,
                                  const std::vector<const rl::Sample*>& samples,
                                  const std::vector<std::size_t>& order,
                                  std::size_t begin, std::size_t end,
                                  std::size_t batch, const PairUpConfig& config,
                                  const PackedSampleBlock* block,
                                  nn::Tensor* const* actor_sinks,
                                  nn::Tensor* const* critic_sinks,
                                  UpdateTeam* team = nullptr);

/// Shards each minibatch's forward/backward work across a reusable thread
/// pool (contiguous sample ranges, one batched pass and one scratch tape per
/// shard), then folds the per-shard gradient slots in shard order on the
/// calling thread before the single clip_grad_norm + Adam step. See the file
/// comment for the determinism contract.
class ParallelUpdateEngine {
 public:
  /// `num_shards` >= 2 (use serial_minibatch_update directly for 1).
  explicit ParallelUpdateEngine(std::size_t num_shards);

  std::size_t num_shards() const { return num_shards_; }

  /// Sharded equivalent of serial_minibatch_update (ctx.tape and ctx.team
  /// are unused). Returns the sum of the per-shard scaled losses — the same
  /// quantity as the serial minibatch loss up to FP summation order. Throws
  /// TrainingDiverged like serial_minibatch_update.
  double run_minibatch(UpdateContext& ctx,
                       const std::vector<const rl::Sample*>& samples,
                       const std::vector<std::size_t>& order,
                       std::size_t begin, std::size_t end);

  /// Total allocation events across the per-shard backward workspaces
  /// (fused path only; 0 when running the tape path). Stops increasing
  /// once minibatch shapes stabilize — the zero-steady-state-allocation
  /// contract asserted by tests and bench_ppo_update --smoke.
  std::size_t backward_alloc_events() const;

 private:
  void ensure_buffers(const std::vector<nn::Parameter*>& params);

  std::size_t num_shards_;
  util::ThreadPool pool_;
  std::vector<std::unique_ptr<nn::Tape>> shard_tapes_;
  /// One backward workspace per shard (fused path), created in the ctor like
  /// the shard tapes.
  std::vector<std::unique_ptr<nn::Workspace>> shard_ws_;
  /// slot_grads_[s][k]: shard s's gradient tensor for params[k].
  std::vector<std::vector<nn::Tensor>> slot_grads_;
  std::vector<double> slot_losses_;
  /// Per-parameter reduction target for the ordered fold.
  std::vector<nn::Tensor> reduced_grads_;
};

}  // namespace tsc::core
