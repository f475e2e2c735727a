#include "src/nn/layers.hpp"

#include <cassert>
#include <cmath>

#include "src/nn/backward.hpp"
#include "src/nn/inference.hpp"

namespace tsc::nn {

Linear::Linear(std::size_t in, std::size_t out, Rng& rng, double gain, bool orthogonal)
    : weight(Tensor::zeros(in, out), "linear.weight"),
      bias(Tensor::zeros(out), "linear.bias"),
      in_(in),
      out_(out) {
  if (orthogonal) {
    orthogonal_init(weight.value, rng, gain);
  } else {
    xavier_init(weight.value, rng);
  }
  register_parameter(&weight);
  register_parameter(&bias);
}

Var Linear::forward(Tape& tape, Var x) {
  assert(tape.value(x).cols() == in_);
  Var w = tape.param(weight);
  Var b = tape.param(bias);
  return tape.add(tape.matmul(x, w), b);
}

const Tensor& Linear::forward(Workspace& ws, const Tensor& x,
                              util::Crew* crew) const {
  assert(x.cols() == in_);
  Tensor& out = ws.acquire(x.rows(), out_);
  const bool fast = ws.kernel_tier() == KernelTier::kFast;
  const double* pb = bias.value.data();
  run_parts(crew, [&](std::size_t part, std::size_t parts) {
    const IndexRange rows = tile_rows(x.rows(), part, parts);
    // Reference tier: the row-blocked kernel, bit-identical to the tape's
    // matmul (nn/tensor.hpp; below 8 rows it is the same loop). Fast tier:
    // the FMA kernel.
    if (fast) {
      matmul_into_fast(out, x, weight.value, rows.begin, rows.end);
    } else {
      matmul_into_batched(out, x, weight.value, rows);
    }
    // Broadcast bias add: same adds in the same order as Tape::add's
    // rank-1 branch, on raw rows (this loop runs once per fleet GEMM over
    // every batch element and must not pay per-element accessor calls).
    double* po = out.data() + rows.begin * out_;
    for (std::size_t r = rows.begin; r < rows.end; ++r, po += out_)
      for (std::size_t c = 0; c < out_; ++c) po[c] += pb[c];
  });
  return out;
}

void Linear::backward_train(Workspace& ws, const Tensor& x,
                            const Tensor& dy, Tensor& dw_sink, Tensor& db_sink,
                            Tensor* dx, util::Crew* crew) const {
  assert(x.cols() == in_ && dy.cols() == out_ && x.rows() == dy.rows());
  // The tape runs the add node's backward (bias row sums) before the matmul
  // node's; the sinks are disjoint and each element is one chain, so the
  // phases below may interleave them freely.
  Tensor* wt = dx != nullptr ? &ws.acquire(out_, in_) : nullptr;
  run_parts(crew, [&](std::size_t part, std::size_t parts) {
    backward_bias_acc(db_sink, dy, even_range(out_, part, parts));
    if (wt != nullptr) transpose_rows(*wt, weight.value, even_range(out_, part, parts));
    backward_matmul_tn_acc(dw_sink, x, dy, tile_rows(in_, part, parts));
  });
  if (dx == nullptr) return;
  run_parts(crew, [&](std::size_t part, std::size_t parts) {
    matmul_nt_acc_rows(*dx, dy, *wt, tile_rows(dy.rows(), part, parts));
  });
}

Mlp::Mlp(const std::vector<std::size_t>& dims, Rng& rng, Activation hidden_act,
         double out_gain)
    : act_(hidden_act) {
  assert(dims.size() >= 2);
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    const bool is_output = (i + 2 == dims.size());
    const double gain = is_output ? out_gain : std::numbers::sqrt2;
    layers_.push_back(std::make_unique<Linear>(dims[i], dims[i + 1], rng, gain));
    register_module(layers_.back().get());
  }
}

Var Mlp::forward(Tape& tape, Var x) {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    x = layers_[i]->forward(tape, x);
    const bool is_output = (i + 1 == layers_.size());
    if (!is_output) {
      switch (act_) {
        case Activation::kRelu: x = tape.relu(x); break;
        case Activation::kTanh: x = tape.tanh(x); break;
        case Activation::kNone: break;
      }
    }
  }
  return x;
}

const Tensor& Mlp::forward(Workspace& ws, const Tensor& x) const {
  const Tensor* cur = &x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    Tensor& out = const_cast<Tensor&>(layers_[i]->forward(ws, *cur));
    const bool is_output = (i + 1 == layers_.size());
    if (!is_output) {
      // In-place activation on the layer output: element-wise, so identical
      // to the tape's copy-then-transform nodes.
      switch (act_) {
        case Activation::kRelu: relu_inplace(out); break;
        case Activation::kTanh: tanh_inplace(out); break;
        case Activation::kNone: break;
      }
    }
    cur = &out;
  }
  return *cur;
}

LayerNorm::LayerNorm(std::size_t dim, double eps)
    : gain(Tensor::full(1, dim, 1.0), "layernorm.gain"),
      bias(Tensor::zeros(dim), "layernorm.bias"),
      dim_(dim),
      eps_(eps) {
  register_parameter(&gain);
  register_parameter(&bias);
}

Var LayerNorm::forward(Tape& tape, Var x) {
  const std::size_t batch = tape.value(x).rows();
  assert(tape.value(x).cols() == dim_);
  const double inv_d = 1.0 / static_cast<double>(dim_);
  // Row statistics via matmul with ones (keeps everything on the tape).
  Var ones_col = tape.constant(Tensor::full(dim_, 1, 1.0));   // [d,1]
  Var ones_row = tape.constant(Tensor::full(1, dim_, 1.0));   // [1,d]
  Var mean = tape.scale(tape.matmul(x, ones_col), inv_d);     // [B,1]
  Var centered = tape.sub(x, tape.matmul(mean, ones_row));    // [B,d]
  Var var = tape.scale(tape.matmul(tape.square(centered), ones_col), inv_d);
  // 1/sqrt(var + eps) == exp(-0.5 * log(var + eps)).
  Var inv_std = tape.exp(tape.scale(tape.log(tape.add_scalar(var, eps_)), -0.5));
  Var normalized = tape.mul(centered, tape.matmul(inv_std, ones_row));
  Var ones_batch = tape.constant(Tensor::full(batch, 1, 1.0));  // [B,1]
  Var gain_bcast = tape.matmul(ones_batch, tape.param(gain));   // [B,d]
  return tape.add(tape.mul(normalized, gain_bcast), tape.param(bias));
}

Dropout::Dropout(double p, Rng& rng) : p_(p), rng_(&rng) {
  assert(p >= 0.0 && p < 1.0);
}

Var Dropout::forward(Tape& tape, Var x) {
  if (!training_ || p_ == 0.0) return x;
  const Tensor& v = tape.value(x);
  Tensor mask = Tensor::zeros_like(v);
  const double keep_scale = 1.0 / (1.0 - p_);
  for (std::size_t i = 0; i < mask.size(); ++i)
    mask[i] = rng_->bernoulli(p_) ? 0.0 : keep_scale;
  return tape.mul(x, tape.constant(std::move(mask)));
}

LstmCell::LstmCell(std::size_t in, std::size_t hidden, Rng& rng)
    : w_x(Tensor::zeros(in, 4 * hidden), "lstm.w_x"),
      w_h(Tensor::zeros(hidden, 4 * hidden), "lstm.w_h"),
      bias(Tensor::zeros(4 * hidden), "lstm.bias"),
      in_(in),
      hidden_(hidden) {
  orthogonal_init(w_x.value, rng, 1.0);
  orthogonal_init(w_h.value, rng, 1.0);
  // Forget-gate bias of 1 keeps early memories alive (standard practice).
  for (std::size_t i = hidden; i < 2 * hidden; ++i) bias.value[i] = 1.0;
  register_parameter(&w_x);
  register_parameter(&w_h);
  register_parameter(&bias);
}

LstmCell::State LstmCell::forward(Tape& tape, Var x, Var h, Var c) {
  assert(tape.value(x).cols() == in_);
  assert(tape.value(h).cols() == hidden_);
  Var gates = tape.add(
      tape.add(tape.matmul(x, tape.param(w_x)), tape.matmul(h, tape.param(w_h))),
      tape.param(bias));
  Var i_gate = tape.sigmoid(tape.slice_cols(gates, 0, hidden_));
  Var f_gate = tape.sigmoid(tape.slice_cols(gates, hidden_, hidden_));
  Var g_gate = tape.tanh(tape.slice_cols(gates, 2 * hidden_, hidden_));
  Var o_gate = tape.sigmoid(tape.slice_cols(gates, 3 * hidden_, hidden_));
  Var c_new = tape.add(tape.mul(f_gate, c), tape.mul(i_gate, g_gate));
  Var h_new = tape.mul(o_gate, tape.tanh(c_new));
  return {h_new, c_new};
}

LstmCell::Result LstmCell::forward(Workspace& ws, const Tensor& x,
                                   const Tensor& h, const Tensor& c,
                                   util::Crew* crew) const {
  assert(x.cols() == in_);
  assert(h.cols() == hidden_ && c.cols() == hidden_);
  const std::size_t batch = x.rows();
  const std::size_t gate_cols = 4 * hidden_;
  const KernelTier tier = ws.kernel_tier();
  Tensor& m1 = ws.acquire(batch, gate_cols);
  Tensor& m2 = ws.acquire(batch, gate_cols);
  // gates = (x@w_x + h@w_h) + bias as two separately rounded adds, exactly
  // the tape's add(add(matmul, matmul), bias) chain.
  Tensor& gates = m1;
  const double* pb = bias.value.data();
  run_parts(crew, [&](std::size_t part, std::size_t parts) {
    const IndexRange rows = tile_rows(batch, part, parts);
    if (tier == KernelTier::kFast) {
      matmul_into_fast(m1, x, w_x.value, rows.begin, rows.end);
      matmul_into_fast(m2, h, w_h.value, rows.begin, rows.end);
    } else {
      matmul_into_batched(m1, x, w_x.value, rows);
      matmul_into_batched(m2, h, w_h.value, rows);
    }
    for (std::size_t r = rows.begin; r < rows.end; ++r) {
      double* grow = gates.data() + r * gate_cols;
      const double* m2row = m2.data() + r * gate_cols;
      for (std::size_t j = 0; j < gate_cols; ++j) {
        const double s = grow[j] + m2row[j];
        grow[j] = s + pb[j];
      }
    }
  });
  // m2 is dead after the gate sum (every row of it, hence the phase
  // boundary above); its storage becomes tanh(c_new). The shrink keeps the
  // capacity, so the next pass regrows it for free.
  Tensor& tanh_c = m2;
  tanh_c.reshape(batch, hidden_);
  Tensor& h_new = ws.acquire(batch, hidden_);
  Tensor& c_new = ws.acquire(batch, hidden_);
  assert(&c != &c_new && &h != &h_new && &c != &h_new && &h != &c_new);
  // The gate nonlinearities run in place over the contiguous spans the
  // i|f|g|o layout provides: sigmoid across [0, 2H) (i and f back to back),
  // tanh across [2H, 3H), sigmoid across [3H, 4H). Then the c/h update,
  // with one more tanh over the fresh cell row. At the reference tier the
  // span kernels are the tape's `1/(1+exp(-x))` and std::tanh loops; at the
  // fast tier they vectorize. The c_new arithmetic (f*c + i*g, separately
  // rounded) is the same on both tiers.
  run_parts(crew, [&](std::size_t part, std::size_t parts) {
    const IndexRange rows = tile_rows(batch, part, parts);
    for (std::size_t r = rows.begin; r < rows.end; ++r) {
      double* grow = gates.data() + r * gate_cols;
      const double* crow = c.data() + r * hidden_;
      double* hrow = h_new.data() + r * hidden_;
      double* crow_new = c_new.data() + r * hidden_;
      double* tcrow = tanh_c.data() + r * hidden_;
      sigmoid_inplace_tier(grow, 2 * hidden_, tier);
      tanh_inplace_tier(grow + 2 * hidden_, hidden_, tier);
      sigmoid_inplace_tier(grow + 3 * hidden_, hidden_, tier);
      for (std::size_t j = 0; j < hidden_; ++j) {
        const double fc = grow[hidden_ + j] * crow[j];
        const double ig = grow[j] * grow[2 * hidden_ + j];
        const double cn = fc + ig;
        crow_new[j] = cn;
        tcrow[j] = cn;
      }
      tanh_inplace_tier(tcrow, hidden_, tier);
      const double* orow = grow + 3 * hidden_;
      for (std::size_t j = 0; j < hidden_; ++j) hrow[j] = orow[j] * tcrow[j];
    }
  });
  return {&h_new, &c_new, &gates, &tanh_c};
}

void LstmCell::backward_train(Workspace& ws, const Tensor& x,
                              const Tensor& h, const Tensor& c,
                              const Result& st, const Tensor& dh,
                              Tensor& dwx_sink, Tensor& dwh_sink,
                              Tensor& dbias_sink, Tensor* dx,
                              util::Crew* crew) const {
  const std::size_t batch = dh.rows();
  const std::size_t gate_cols = 4 * hidden_;
  assert(dh.cols() == hidden_);
  Tensor& dgates = ws.acquire(batch, gate_cols);  // every element assigned
  Tensor* wt = dx != nullptr ? &ws.acquire(gate_cols, in_) : nullptr;
  run_parts(crew, [&](std::size_t part, std::size_t parts) {
    lstm_backward_gates(dgates, dh, *st.gates, *st.tanh_c, c, hidden_,
                        tile_rows(batch, part, parts));
    if (wt != nullptr)
      transpose_rows(*wt, w_x.value, even_range(gate_cols, part, parts));
  });
  // Tape descent through gates = add(add(x@w_x, h@w_h), bias): bias row
  // sums, then the h-side matmul (created later, so its backward runs
  // first), then the x-side. The sinks are disjoint, so one phase computes
  // them all. The h/c input gradients the tape computes into discarded
  // constants are skipped.
  run_parts(crew, [&](std::size_t part, std::size_t parts) {
    backward_bias_acc(dbias_sink, dgates, even_range(gate_cols, part, parts));
    backward_matmul_tn_acc(dwh_sink, h, dgates, tile_rows(hidden_, part, parts));
    if (dx != nullptr)
      matmul_nt_acc_rows(*dx, dgates, *wt, tile_rows(batch, part, parts));
    backward_matmul_tn_acc(dwx_sink, x, dgates, tile_rows(in_, part, parts));
  });
}

LstmCell::State LstmCell::zero_state(Tape& tape, std::size_t batch) const {
  return {tape.constant(Tensor::zeros(batch, hidden_)),
          tape.constant(Tensor::zeros(batch, hidden_))};
}

}  // namespace tsc::nn
