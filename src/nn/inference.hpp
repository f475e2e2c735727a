// The tape-free workspace every hand-written layer forward and backward
// runs on, plus the element-wise kernels those forwards share.
//
// Rollout collection, evaluation, the baseline controllers and the PPO
// update never need the autodiff tape's graph: one node per op, each owning
// a freshly allocated value tensor, plus a copy of every weight matrix
// (Tape::param copies the Parameter value into its node). A Workspace
// replaces all of that with a flat list of reusable buffers handed out in
// acquisition order: begin_pass() rewinds the cursor, acquire() returns the
// next slot reshaped to the requested size. Because a pass always acquires
// the same shapes in the same order, every buffer reaches its peak capacity
// after the first pass and the workspace performs ZERO steady-state
// allocations, observable via alloc_events(), which counts slot creations
// and backing-storage growth.
//
// One forward per network. Each layer (Linear, Mlp, LstmCell, GatLayer) and
// each network built from them (the actor, the critic, CoLight's Q-network)
// has exactly one workspace forward. Acting calls it without a trace; the
// PPO update calls the same function with a trace, which keeps the
// activations its analytic backward (nn/backward.hpp) reads. The
// workspace's kernel tier selects the math kernels: kReference (the
// default, and always the update's tier) runs the bit-exact kernels, kFast
// the tolerance-bounded SIMD/FMA ones (nn/kernels.hpp).
//
// Bit-identity contract: at the reference tier every kernel mirrors the
// corresponding Tape op's loop structure exactly (same operation order,
// same rounding), so logits / messages / values / actions produced through
// a workspace forward are bit-identical to the tape path.
// tests/test_inference.cpp pins this against the tape for the actor,
// critic, and all NN baselines.
//
// Threading: a workspace is mutable scratch; give each thread its own
// (every core::FleetRolloutEngine and every update shard owns one). Buffers
// returned by acquire() are only valid until the next begin_pass(), so
// persistent state (LSTM h/c) must be copied out before the next pass.
//
// Crews. Every forward and backward_train takes an optional trailing
// util::Crew (util/thread_team.hpp). Without one it runs on the calling
// thread; with one, the calling thread must be the crew's leader: it
// acquires every slot, then forks each kernel's outputs across the crew
// (run_parts; the partitions are in nn/tensor.hpp and nn/backward.hpp).
// Only the partition of the outputs changes, never a chain, so the result
// is bit-identical at every crew size.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "src/nn/kernels.hpp"
#include "src/nn/tensor.hpp"
#include "src/util/thread_team.hpp"

namespace tsc::nn {

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Rewinds the buffer cursor; the next acquire() reuses the first slot.
  void begin_pass() { cursor_ = 0; }

  /// Next buffer, reshaped to [rows, cols]. Contents are unspecified
  /// (kernels overwrite every element). The reference stays valid until
  /// the slot is handed out again after a begin_pass(): slots live behind
  /// stable unique_ptrs, so earlier acquisitions of the same pass are never
  /// invalidated by later ones.
  Tensor& acquire(std::size_t rows, std::size_t cols);

  /// acquire() + fill(0.0), for gradient accumulators.
  Tensor& acquire_zeroed(std::size_t rows, std::size_t cols);

  /// Total allocation events so far: slot creations plus backing-storage
  /// growth inside acquire(). Stops increasing once the acquisition
  /// sequence has stabilized, the zero-steady-state-allocation guarantee
  /// tests assert on.
  std::size_t alloc_events() const { return alloc_events_; }
  std::size_t num_buffers() const { return slots_.size(); }

  /// Selects the math-kernel tier (nn/kernels.hpp) for every layer forward
  /// run through this workspace: kReference (default) keeps the bit-exact
  /// kernels; kFast swaps in the tolerance-bounded SIMD/FMA ones. The
  /// update's workspaces never change it, so training stays bit-exact.
  void set_kernel_tier(KernelTier tier) { kernel_tier_ = tier; }
  KernelTier kernel_tier() const { return kernel_tier_; }

 private:
  std::vector<std::unique_ptr<Tensor>> slots_;
  std::size_t cursor_ = 0;
  std::size_t alloc_events_ = 0;
  KernelTier kernel_tier_ = KernelTier::kReference;
};

/// Runs fn(part, parts) once per member of `crew`, each on its own thread,
/// and returns when all are done; without a crew (or with a one-thread
/// crew), fn(0, 1) on the calling thread.
template <typename F>
void run_parts(util::Crew* crew, F&& fn) {
  if (crew == nullptr || crew->size() <= 1) {
    fn(std::size_t{0}, std::size_t{1});
    return;
  }
  const std::size_t parts = crew->size();
  crew->run([&fn, parts](std::size_t part) { fn(part, parts); });
}

// ---- tape-free kernels (loops mirror the Tape ops bit-for-bit) ----

/// out = row-wise softmax of `in` (same loops as Tape::softmax_rows).
/// `out` must not alias `in`.
void softmax_rows_into(Tensor& out, const Tensor& in);

/// out = row-wise log-softmax of `in` (same loops as
/// Tape::log_softmax_rows). `out` must not alias `in`.
void log_softmax_rows_into(Tensor& out, const Tensor& in);

/// Tier-dispatched variants: kReference runs the exact loops above; kFast
/// replaces the per-element libm exp with the vectorized fast-tier exp
/// (max-subtraction and normalization unchanged, so rows still sum to 1 up
/// to rounding and the -1e9 action mask still lands exactly on probability
/// zero — the fast exp clamps into the underflow-to-+0 range).
void softmax_rows_into(Tensor& out, const Tensor& in, KernelTier tier);
void log_softmax_rows_into(Tensor& out, const Tensor& in, KernelTier tier);

/// In-place ReLU / tanh (same element order as Tape::relu / Tape::tanh).
void relu_inplace(Tensor& t);
void tanh_inplace(Tensor& t);
/// Tier-dispatched tanh (kReference == tanh_inplace above, bit for bit); a
/// crew splits it by row blocks.
void tanh_inplace(Tensor& t, KernelTier tier, util::Crew* crew = nullptr);

/// argmax over columns [0, limit) of row `r` (first max wins, matching the
/// strict `>` comparison the rollout/baseline action loops use).
std::size_t argmax_row(const Tensor& t, std::size_t r, std::size_t limit);

}  // namespace tsc::nn
