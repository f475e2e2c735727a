// Standard layers: Linear, multi-layer perceptron, LSTM cell.
#pragma once

#include <cstddef>
#include <memory>
#include <numbers>
#include <vector>

#include "src/nn/module.hpp"
#include "src/nn/tape.hpp"

namespace tsc::util {
class Crew;
}

namespace tsc::nn {

class Workspace;

/// y = x @ W + b, with W [in, out], b [out].
class Linear : public Module {
 public:
  Linear(std::size_t in, std::size_t out, Rng& rng, double gain = std::numbers::sqrt2,
         bool orthogonal = true);

  /// x: [batch, in] -> [batch, out].
  Var forward(Tape& tape, Var x);

  /// Workspace forward into a fresh slot; at the reference tier
  /// bit-identical to the tape forward (same GEMM chains, same broadcast
  /// bias-add loop). The returned reference is valid until the workspace's
  /// next begin_pass(). A crew splits the GEMM and the bias add by row
  /// blocks (one phase; see nn/inference.hpp).
  const Tensor& forward(Workspace& ws, const Tensor& x,
                        util::Crew* crew = nullptr) const;

  /// Analytic backward of forward(): given the forward input `x` and the
  /// output gradient `dy`, accumulates db += column sums of dy and
  /// dW += x^T @ dy into the sinks, and, when dx != nullptr,
  /// dx += dy @ W^T (W^T is staged in a slot of `ws`). Bit-identical to the
  /// tape's add/matmul backward closures (see backward.hpp). A crew splits
  /// db by columns, W^T and dW by their rows, then dx by row blocks (two
  /// phases; one without dx).
  void backward_train(Workspace& ws, const Tensor& x, const Tensor& dy,
                      Tensor& dw_sink, Tensor& db_sink, Tensor* dx,
                      util::Crew* crew = nullptr) const;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

  Parameter weight;
  Parameter bias;

 private:
  std::size_t in_, out_;
};

enum class Activation { kNone, kRelu, kTanh };

/// Stack of Linear layers with a fixed hidden activation; the output layer
/// has no activation (callers apply softmax / identity as needed).
class Mlp : public Module {
 public:
  /// dims = {in, h1, ..., out}; requires dims.size() >= 2.
  Mlp(const std::vector<std::size_t>& dims, Rng& rng,
      Activation hidden_act = Activation::kTanh, double out_gain = 0.01);

  Var forward(Tape& tape, Var x);

  /// Workspace forward; bit-identical to the tape forward. The layers'
  /// GEMMs follow the workspace tier, the hidden activations always run the
  /// reference kernels. Has no backward: the baselines train on the tape.
  const Tensor& forward(Workspace& ws, const Tensor& x) const;

  std::size_t num_layers() const { return layers_.size(); }

 private:
  std::vector<std::unique_ptr<Linear>> layers_;
  Activation act_;
};

/// Layer normalization over the last dimension: per row,
/// y = gain * (x - mean) / sqrt(var + eps) + bias.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(std::size_t dim, double eps = 1e-5);

  /// x: [batch, dim] -> [batch, dim].
  tsc::nn::Var forward(Tape& tape, Var x);

  Parameter gain;  ///< [dim], initialized to 1
  Parameter bias;  ///< [dim], initialized to 0

 private:
  std::size_t dim_;
  double eps_;
};

/// Inverted dropout: active only between train()/eval() switches; scales
/// kept activations by 1/(1-p) so evaluation needs no correction.
class Dropout {
 public:
  Dropout(double p, Rng& rng);

  Var forward(Tape& tape, Var x);

  void train() { training_ = true; }
  void eval() { training_ = false; }
  bool training() const { return training_; }
  double rate() const { return p_; }

 private:
  double p_;
  Rng* rng_;
  bool training_ = true;
};

/// Single LSTM cell. Gate order in the packed weight matrices: i, f, g, o.
class LstmCell : public Module {
 public:
  LstmCell(std::size_t in, std::size_t hidden, Rng& rng);

  struct State {
    Var h;
    Var c;
  };

  /// x: [batch, in], h/c: [batch, hidden] -> new (h, c).
  State forward(Tape& tape, Var x, Var h, Var c);

  /// Workspace forward results. The tensors live in the workspace and stay
  /// valid until its next begin_pass().
  struct Result {
    const Tensor* h = nullptr;       ///< [B, hidden] h_new
    const Tensor* c = nullptr;       ///< [B, hidden] c_new
    const Tensor* gates = nullptr;   ///< [B, 4*hidden] post-activation i|f|g|o
    const Tensor* tanh_c = nullptr;  ///< [B, hidden] tanh(c_new)
  };

  /// Workspace forward. At the reference tier h/c are bit-identical to the
  /// tape forward: the gate pre-activation replays the tape's
  /// add(add(x@w_x, h@w_h), bias) rounding chain, the gate nonlinearities
  /// are the tape's sigmoid/tanh expressions, and the c/h updates use the
  /// same mul-mul-add order. The gates and tanh(c_new) are what
  /// backward_train() reads. `x`, `h`, `c` must not alias buffers acquired
  /// by this call (pass prior-pass state copies). A crew splits both phases
  /// (GEMMs + gate sum, then the gate nonlinearities and the c/h update) by
  /// row blocks: the cell is one step over given h/c, so rows are
  /// independent.
  Result forward(Workspace& ws, const Tensor& x, const Tensor& h,
                 const Tensor& c, util::Crew* crew = nullptr) const;

  /// Analytic backward for graphs where downstream consumes only h_new
  /// (the external c_new gradient is exactly zero). `dh` is the incoming
  /// h_new gradient; parameter gradients accumulate into the sinks; when
  /// dx != nullptr, dx += gradient w.r.t. x.
  /// Gradients w.r.t. h/c (constant inputs in the training graphs) are not
  /// produced. Bit-identical to the tape's backward. A crew splits the gate
  /// backward (and the W_x^T staging), then the bias columns, the rows of
  /// dW_h and dW_x, and the row blocks of dx.
  void backward_train(Workspace& ws, const Tensor& x, const Tensor& h,
                      const Tensor& c, const Result& st, const Tensor& dh,
                      Tensor& dwx_sink, Tensor& dwh_sink, Tensor& dbias_sink,
                      Tensor* dx, util::Crew* crew = nullptr) const;

  /// Convenience: zero initial state as tape constants.
  State zero_state(Tape& tape, std::size_t batch) const;

  std::size_t hidden_size() const { return hidden_; }

  Parameter w_x;  // [in, 4*hidden]
  Parameter w_h;  // [hidden, 4*hidden]
  Parameter bias; // [4*hidden] (forget-gate slice initialized to 1)

 private:
  std::size_t in_, hidden_;
};

}  // namespace tsc::nn
