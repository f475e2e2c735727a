#include "src/core/critic.hpp"

#include <cassert>

#include "src/nn/backward.hpp"
#include "src/nn/inference.hpp"

namespace tsc::core {

using tsc::nn::Linear;
using tsc::nn::LstmCell;
using tsc::nn::Tape;
using tsc::nn::Var;

CentralizedCritic::CentralizedCritic(std::size_t input_dim, std::size_t hidden,
                                     tsc::Rng& rng)
    : input_dim_(input_dim), hidden_(hidden) {
  embed_ = std::make_unique<Linear>(input_dim, hidden, rng);
  lstm_ = std::make_unique<LstmCell>(hidden, hidden, rng);
  value_head_ = std::make_unique<Linear>(hidden, 1, rng, 1.0);
  register_module(embed_.get());
  register_module(lstm_.get());
  register_module(value_head_.get());
}

CentralizedCritic::Output CentralizedCritic::forward(Tape& tape, Var input, Var h,
                                                     Var c) {
  assert(tape.value(input).cols() == input_dim_);
  Var x = tape.tanh(embed_->forward(tape, input));
  LstmCell::State state = lstm_->forward(tape, x, h, c);
  Var value = value_head_->forward(tape, state.h);
  return {value, state};
}

CentralizedCritic::Result CentralizedCritic::forward(
    nn::Workspace& ws, const nn::Tensor& input, const nn::Tensor& h,
    const nn::Tensor& c, TrainActivations* trace, util::Crew* crew) const {
  assert(input.cols() == input_dim_);
  nn::Tensor& x = const_cast<nn::Tensor&>(embed_->forward(ws, input, crew));
  nn::tanh_inplace(x, ws.kernel_tier(), crew);
  const LstmCell::Result state = lstm_->forward(ws, x, h, c, crew);
  const nn::Tensor& value = value_head_->forward(ws, *state.h, crew);
  if (trace != nullptr) *trace = {&input, &h, &c, &x, state, &value};
  return {&value, state.h, state.c};
}

void CentralizedCritic::backward_train(nn::Workspace& ws,
                                       const TrainActivations& acts,
                                       const nn::Tensor& dvalues,
                                       nn::Tensor* const* sinks,
                                       util::Crew* crew) const {
  const std::size_t rows = dvalues.rows();
  nn::Tensor& dh = ws.acquire_zeroed(rows, hidden_);
  value_head_->backward_train(ws, *acts.lstm.h, dvalues, *sinks[5], *sinks[6],
                              &dh, crew);
  nn::Tensor& dx = ws.acquire_zeroed(rows, hidden_);
  lstm_->backward_train(ws, *acts.x, *acts.h_in, *acts.c_in, acts.lstm, dh,
                        *sinks[2], *sinks[3], *sinks[4], &dx, crew);
  nn::Tensor& dembed = ws.acquire_zeroed(rows, hidden_);
  nn::tanh_backward_acc(dembed, dx, *acts.x, crew);
  embed_->backward_train(ws, *acts.input, dembed, *sinks[0], *sinks[1], nullptr,
                         crew);
}

}  // namespace tsc::core
