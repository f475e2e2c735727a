#include "src/core/actor.hpp"

#include <cassert>

#include "src/nn/backward.hpp"
#include "src/nn/inference.hpp"

namespace tsc::core {

using tsc::nn::Linear;
using tsc::nn::LstmCell;
using tsc::nn::Tape;
using tsc::nn::Tensor;
using tsc::nn::Var;

CoordinatedActor::CoordinatedActor(std::size_t obs_dim, std::size_t msg_dim,
                                   std::size_t hidden, std::size_t max_phases,
                                   tsc::Rng& rng)
    : obs_dim_(obs_dim), msg_dim_(msg_dim), hidden_(hidden), max_phases_(max_phases) {
  embed_ = std::make_unique<Linear>(obs_dim + msg_dim, hidden, rng);
  lstm_ = std::make_unique<LstmCell>(hidden, hidden, rng);
  policy_head_ = std::make_unique<Linear>(hidden, max_phases, rng, 0.01);
  message_head_ = std::make_unique<Linear>(hidden, msg_dim, rng, 0.01);
  register_module(embed_.get());
  register_module(lstm_.get());
  register_module(policy_head_.get());
  register_module(message_head_.get());
}

CoordinatedActor::Output CoordinatedActor::forward(
    Tape& tape, Var input, Var h, Var c, const std::vector<std::size_t>& phase_counts) {
  const std::size_t batch = tape.value(input).rows();
  assert(tape.value(input).cols() == input_dim());
  assert(phase_counts.size() == batch);

  Var x = tape.tanh(embed_->forward(tape, input));
  LstmCell::State state = lstm_->forward(tape, x, h, c);
  Var logits = policy_head_->forward(tape, state.h);

  // Mask invalid phases (heterogeneous intersections have fewer phases).
  bool needs_mask = false;
  for (std::size_t pc : phase_counts)
    if (pc < max_phases_) needs_mask = true;
  if (needs_mask) {
    Tensor mask = Tensor::zeros(batch, max_phases_);
    for (std::size_t b = 0; b < batch; ++b)
      for (std::size_t p = phase_counts[b]; p < max_phases_; ++p)
        mask.at(b, p) = -1e9;
    logits = tape.add(logits, tape.constant(std::move(mask)));
  }

  Var message = message_head_->forward(tape, state.h);
  return {logits, message, state};
}

CoordinatedActor::Result CoordinatedActor::forward(
    nn::Workspace& ws, const Tensor& input, const Tensor& h, const Tensor& c,
    const std::vector<std::size_t>& phase_counts, TrainActivations* trace,
    util::Crew* crew) const {
  const std::size_t batch = input.rows();
  assert(input.cols() == input_dim());
  assert(phase_counts.size() == batch);

  Tensor& x = const_cast<Tensor&>(embed_->forward(ws, input, crew));
  nn::tanh_inplace(x, ws.kernel_tier(), crew);
  const LstmCell::Result state = lstm_->forward(ws, x, h, c, crew);
  Tensor& logits =
      const_cast<Tensor&>(policy_head_->forward(ws, *state.h, crew));

  // Mask invalid phases exactly like the tape path: an element-wise add of
  // 0.0 (valid) or -1e9 (invalid), applied only when some row needs it.
  bool needs_mask = false;
  for (std::size_t pc : phase_counts)
    if (pc < max_phases_) needs_mask = true;
  if (needs_mask) {
    for (std::size_t b = 0; b < batch; ++b)
      for (std::size_t p = 0; p < max_phases_; ++p)
        logits.at(b, p) += p < phase_counts[b] ? 0.0 : -1e9;
  }

  if (trace != nullptr) {
    *trace = {&input, &h, &c, &x, state, &logits};
    return {&logits, nullptr, state.h, state.c};
  }
  const Tensor& message = message_head_->forward(ws, *state.h, crew);
  return {&logits, &message, state.h, state.c};
}

void CoordinatedActor::backward_train(nn::Workspace& ws,
                                      const TrainActivations& acts,
                                      const Tensor& dlogits,
                                      Tensor* const* sinks,
                                      util::Crew* crew) const {
  const std::size_t rows = dlogits.rows();
  // The mask add is a constant node: dlogits passes through unchanged. The
  // message head contributes exact zeros everywhere (see forward()), so
  // the LSTM state gradient is the policy head's alone.
  Tensor& dh = ws.acquire_zeroed(rows, hidden_);
  policy_head_->backward_train(ws, *acts.lstm.h, dlogits, *sinks[5], *sinks[6],
                               &dh, crew);
  Tensor& dx = ws.acquire_zeroed(rows, hidden_);
  lstm_->backward_train(ws, *acts.x, *acts.h_in, *acts.c_in, acts.lstm, dh,
                        *sinks[2], *sinks[3], *sinks[4], &dx, crew);
  Tensor& dembed = ws.acquire_zeroed(rows, hidden_);
  nn::tanh_backward_acc(dembed, dx, *acts.x, crew);
  embed_->backward_train(ws, *acts.input, dembed, *sinks[0], *sinks[1], nullptr,
                         crew);
}

}  // namespace tsc::core
