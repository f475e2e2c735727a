// PairUpLight coordinated Actor network (paper Fig. 5, Eq. 8).
//
// Input:  local observation concatenated with the incoming regularized
//         message m_hat from the paired (most congested upstream) agent.
// Body:   FC -> tanh -> LSTM.
// Heads:  action logits over phases (masked per agent) and the raw outgoing
//         message m (regularized to m_hat = Logistic(N(m, sigma)) outside
//         the network, Algorithm 1 line 16).
#pragma once

#include <memory>
#include <vector>

#include "src/nn/layers.hpp"
#include "src/nn/module.hpp"
#include "src/util/thread_team.hpp"

namespace tsc::core {

class CoordinatedActor : public tsc::nn::Module {
 public:
  /// `obs_dim` excludes the message; the network input is obs_dim+msg_dim.
  CoordinatedActor(std::size_t obs_dim, std::size_t msg_dim, std::size_t hidden,
                   std::size_t max_phases, tsc::Rng& rng);

  struct Output {
    tsc::nn::Var logits;   ///< [B, max_phases] (masked: invalid = -1e9)
    tsc::nn::Var message;  ///< [B, msg_dim], raw (pre-regularizer)
    tsc::nn::LstmCell::State state;
  };

  /// `input` is [B, obs_dim+msg_dim]; `phase_counts[b]` masks logits beyond
  /// each row's phase count.
  Output forward(tsc::nn::Tape& tape, tsc::nn::Var input, tsc::nn::Var h,
                 tsc::nn::Var c, const std::vector<std::size_t>& phase_counts);

  /// Workspace forward results; tensors live in the workspace and stay
  /// valid until its next begin_pass().
  struct Result {
    const tsc::nn::Tensor* logits = nullptr;   ///< [B, max_phases]
    const tsc::nn::Tensor* message = nullptr;  ///< [B, msg_dim], raw; null when traced
    const tsc::nn::Tensor* h = nullptr;        ///< [B, hidden]
    const tsc::nn::Tensor* c = nullptr;        ///< [B, hidden]
  };

  /// Activations a traced forward keeps for backward_train(). The
  /// input/h/c pointers refer to the caller's tensors; the rest live in the
  /// workspace (valid until its next begin_pass()).
  struct TrainActivations {
    const tsc::nn::Tensor* input = nullptr;
    const tsc::nn::Tensor* h_in = nullptr;
    const tsc::nn::Tensor* c_in = nullptr;
    const tsc::nn::Tensor* x = nullptr;  ///< tanh(embed) [B, hidden]
    tsc::nn::LstmCell::Result lstm;
    const tsc::nn::Tensor* logits = nullptr;  ///< masked [B, max_phases]
  };

  /// Workspace forward; at the reference tier bit-identical to the tape
  /// forward (including the masked -1e9 logits at heterogeneous phase
  /// counts). `input`/`h`/`c` must not alias buffers acquired by this call.
  /// Without a trace it acts: logits, message and the next LSTM state. With
  /// a trace it keeps the activations backward_train() reads and skips the
  /// message head: the PPO loss never consumes it, so on the tape its
  /// output gradient is exactly zero and its parameter gradients stay
  /// exactly +0.0, which skipping reproduces bit for bit. A crew (led by
  /// the calling thread) splits every layer by row blocks; the result is
  /// bit-identical at every crew size (nn/inference.hpp).
  Result forward(tsc::nn::Workspace& ws, const tsc::nn::Tensor& input,
                 const tsc::nn::Tensor& h, const tsc::nn::Tensor& c,
                 const std::vector<std::size_t>& phase_counts,
                 TrainActivations* trace = nullptr,
                 tsc::util::Crew* crew = nullptr) const;

  /// The traced forward(), returning the masked logits.
  const tsc::nn::Tensor& forward_train(tsc::nn::Workspace& ws,
                                       const tsc::nn::Tensor& input,
                                       const tsc::nn::Tensor& h,
                                       const tsc::nn::Tensor& c,
                                       const std::vector<std::size_t>& phase_counts,
                                       TrainActivations& acts,
                                       tsc::util::Crew* crew = nullptr) const {
    return *forward(ws, input, h, c, phase_counts, &acts, crew).logits;
  }

  /// Analytic backward of a traced forward(): `dlogits` is the loss gradient
  /// w.r.t. the (masked) logits; parameter gradients accumulate into
  /// `sinks`, ordered exactly like parameters(): [embed.w, embed.b,
  /// lstm.w_x, lstm.w_h, lstm.bias, policy.w, policy.b, msg.w, msg.b]
  /// (the last two are left untouched; see forward()). Bit-identical
  /// to Tape::backward over forward()'s graph, with or without a crew.
  void backward_train(tsc::nn::Workspace& ws, const TrainActivations& acts,
                      const tsc::nn::Tensor& dlogits,
                      tsc::nn::Tensor* const* sinks,
                      tsc::util::Crew* crew = nullptr) const;

  std::size_t obs_dim() const { return obs_dim_; }
  std::size_t msg_dim() const { return msg_dim_; }
  std::size_t hidden_size() const { return hidden_; }
  std::size_t max_phases() const { return max_phases_; }
  std::size_t input_dim() const { return obs_dim_ + msg_dim_; }

 private:
  std::size_t obs_dim_, msg_dim_, hidden_, max_phases_;
  std::unique_ptr<tsc::nn::Linear> embed_;
  std::unique_ptr<tsc::nn::LstmCell> lstm_;
  std::unique_ptr<tsc::nn::Linear> policy_head_;
  std::unique_ptr<tsc::nn::Linear> message_head_;
};

}  // namespace tsc::core
