// PairUpLight centralized Critic network (paper Fig. 5, Eq. 9).
//
// The critic sees a broader view than the actor: the agent's local
// observation plus compact traffic features of its one-hop and two-hop
// neighbors, zero-padded to fixed slot counts so edge intersections are
// handled uniformly (the paper's padding technique). Body mirrors the
// actor: FC -> tanh -> LSTM -> scalar value head.
#pragma once

#include <memory>

#include "src/nn/layers.hpp"
#include "src/nn/module.hpp"
#include "src/util/thread_team.hpp"

namespace tsc::core {

class CentralizedCritic : public tsc::nn::Module {
 public:
  /// `input_dim` = local obs + hop1_slots*feat + hop2_slots*feat (the
  /// trainer computes this from the environment's neighbor graph).
  CentralizedCritic(std::size_t input_dim, std::size_t hidden, tsc::Rng& rng);

  struct Output {
    tsc::nn::Var value;  ///< [B, 1]
    tsc::nn::LstmCell::State state;
  };

  Output forward(tsc::nn::Tape& tape, tsc::nn::Var input, tsc::nn::Var h,
                 tsc::nn::Var c);

  /// Workspace forward results; tensors live in the workspace and stay
  /// valid until its next begin_pass().
  struct Result {
    const tsc::nn::Tensor* value = nullptr;  ///< [B, 1]
    const tsc::nn::Tensor* h = nullptr;      ///< [B, hidden]
    const tsc::nn::Tensor* c = nullptr;      ///< [B, hidden]
  };

  /// Activations a traced forward keeps for backward_train().
  struct TrainActivations {
    const tsc::nn::Tensor* input = nullptr;
    const tsc::nn::Tensor* h_in = nullptr;
    const tsc::nn::Tensor* c_in = nullptr;
    const tsc::nn::Tensor* x = nullptr;  ///< tanh(embed) [B, hidden]
    tsc::nn::LstmCell::Result lstm;
    const tsc::nn::Tensor* value = nullptr;  ///< [B, 1]
  };

  /// Workspace forward; at the reference tier bit-identical to the tape
  /// forward. A non-null `trace` keeps the activations backward_train()
  /// reads. A crew (led by the calling thread) splits every layer by row
  /// blocks, bit-identically (nn/inference.hpp).
  Result forward(tsc::nn::Workspace& ws, const tsc::nn::Tensor& input,
                 const tsc::nn::Tensor& h, const tsc::nn::Tensor& c,
                 TrainActivations* trace = nullptr,
                 tsc::util::Crew* crew = nullptr) const;

  /// The traced forward(), returning the value.
  const tsc::nn::Tensor& forward_train(tsc::nn::Workspace& ws,
                                       const tsc::nn::Tensor& input,
                                       const tsc::nn::Tensor& h,
                                       const tsc::nn::Tensor& c,
                                       TrainActivations& acts,
                                       tsc::util::Crew* crew = nullptr) const {
    return *forward(ws, input, h, c, &acts, crew).value;
  }

  /// Analytic backward of a traced forward(): `dvalues` [B, 1] is the loss
  /// gradient w.r.t. the value; parameter gradients accumulate into `sinks`
  /// in parameters() order: [embed.w, embed.b, lstm.w_x, lstm.w_h,
  /// lstm.bias, value.w, value.b]. Bit-identical to Tape::backward over
  /// forward()'s graph, with or without a crew.
  void backward_train(tsc::nn::Workspace& ws, const TrainActivations& acts,
                      const tsc::nn::Tensor& dvalues,
                      tsc::nn::Tensor* const* sinks,
                      tsc::util::Crew* crew = nullptr) const;

  std::size_t input_dim() const { return input_dim_; }
  std::size_t hidden_size() const { return hidden_; }

 private:
  std::size_t input_dim_, hidden_;
  std::unique_ptr<tsc::nn::Linear> embed_;
  std::unique_ptr<tsc::nn::LstmCell> lstm_;
  std::unique_ptr<tsc::nn::Linear> value_head_;
};

}  // namespace tsc::core
