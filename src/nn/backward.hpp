// Tape-free fused backward path for training: hand-written analytic
// backward kernels that replay the tape's exact floating-point accumulation
// orders, on the same nn::Workspace the forwards run on (nn/inference.hpp).
//
// The autodiff tape (nn/tape.hpp) pays, per minibatch, for graph
// construction (one node per op), per-node value/grad tensor allocation, a
// copy of every weight matrix (Tape::param copies the Parameter value into
// its node), and a std::function dispatch per backward closure. None of
// that is needed for the fixed actor/critic/PPO graph the update runs. A
// training pass calls each network's one workspace forward with a trace
// (the activations the backward reads stay in workspace slots), then the
// network's backward_train, which computes the same gradients the tape
// would, directly into the caller's gradient sinks. Forward and backward
// share one workspace, one slot sequence and one alloc_events() counter;
// the update's workspaces stay at the reference tier.
//
// Bit-identity contract. Every kernel replays the corresponding Tape
// backward closure's floating-point operations exactly:
//   * Both GEMM backwards run one accumulate kernel, nn::matmul_acc_strided
//     (the forward's 8x16 register tile with an add epilogue): each output
//     element is an ascending-k chain of separately rounded multiplies and
//     adds, started from +0.0, and added to the sink once. That is the
//     value, in the order, of the tape's `grad += matmul_nt(g, B)`
//     (backward_matmul_nt_acc, on a W^T staged in a workspace slot) and
//     `grad += matmul_tn(A, g)` (backward_matmul_tn_acc, reading the
//     activation column-wise without a transpose). Sinks may hold prior
//     contributions: the chain is finished before it touches the sink.
//   * matmul_tn skips zero activations; the tiles do not. For finite
//     operands the two agree bit for bit: a +0.0-seeded chain never becomes
//     -0.0 (under round-to-nearest only (-0)+(-0) yields -0.0), and adding
//     a +-0.0 product to a sum that is not -0.0 leaves it unchanged. The
//     same argument covers the ragged-tail loop, which keeps the skip, and
//     matmul_nt, which never skips (nn/tensor.cpp).
//   * The element-wise kernels use the tape closures' exact expressions and
//     association (e.g. sigmoid: `(g*y)*(1-y)`; square: `(2*g)*va`).
// Intermediate node gradients in the tape are materialized as
// `0.0 + term` (the += onto a zero-initialized grad); where a kernel folds
// a chain of such nodes, it keeps those flushes explicit (`0.0 + x`
// normalizes -0.0 to +0.0, which matters when the value is later
// multiplied). tests/test_backward_path.cpp pins all of this bitwise
// against the tape and against central differences.
//
// Splitting across a crew (util/thread_team.hpp). The PPO update's thread
// team partitions OUTPUTS only, so each output element keeps its chain and
// its sink and the split is bit-identical by construction:
//   * dX = dY·W^T by row blocks of dX (tile_rows over the batch), after
//     W^T is staged by rows of W^T;
//   * dW = X^T·dY by rows of dW (tile_rows over W's input dimension), never
//     by batch rows, which would split each dW element's ascending chain;
//   * bias gradients by columns (each column's row sum stays one chain);
//   * the element-wise and LSTM-gate kernels by rows or element ranges.
// The range overloads below are those pieces; the whole-tensor forms are
// the same code over the full range.
//
// This translation unit builds with the same flags as nn/tensor.cpp
// (-O3 -march=native -ffp-contract=off): vectorization without FMA
// contraction or reassociation, so the strict IEEE per-op rounding the
// contract depends on is preserved.
#pragma once

#include <cstddef>

#include "src/nn/inference.hpp"
#include "src/nn/tensor.hpp"

namespace tsc::nn {

/// The update's workspace is the one nn::Workspace type. This alias exists
/// only because perfbench/cpp/workload.cpp names it.
using BackwardWorkspace = Workspace;

// ---- backward kernels (loops mirror the Tape backward closures) ----

/// dx [m,k] += dy [m,n] @ w [k,n]^T — the input-gradient half of
/// Tape::matmul's backward (`grad += matmul_nt(g, B)`). Stages w^T in the
/// next slot of `ws` (workspace state, never static: every shard worker owns
/// its workspace), then runs the tiled accumulate kernel.
void backward_matmul_nt_acc(Workspace& ws, Tensor& dx, const Tensor& dy,
                            const Tensor& w);

/// The two halves of backward_matmul_nt_acc, for a split run: rows
/// `rows` of wt = w^T (wt already shaped [n, k]), then rows `rows` of
/// dx += dy @ wt.
void transpose_rows(Tensor& wt, const Tensor& w, IndexRange rows);
void matmul_nt_acc_rows(Tensor& dx, const Tensor& dy, const Tensor& wt,
                        IndexRange rows);

/// dw [j,n] += x [m,j]^T @ dy [m,n] — the weight-gradient half of
/// Tape::matmul's backward (`grad += matmul_tn(A, g)`), on the tiled
/// accumulate kernel reading x column-wise.
void backward_matmul_tn_acc(Tensor& dw, const Tensor& x, const Tensor& dy);
/// Rows `rows` of dw only (a range of x's columns).
void backward_matmul_tn_acc(Tensor& dw, const Tensor& x, const Tensor& dy,
                            IndexRange rows);

/// db [n] += column sums of dy [m,n], rows ascending — Tape::add's rank-1
/// broadcast backward (the bias gradient).
void backward_bias_acc(Tensor& db, const Tensor& dy);
/// Columns `cols` of db only.
void backward_bias_acc(Tensor& db, const Tensor& dy, IndexRange cols);

/// dx[i] += g[i] where y[i] > 0 (Tape::relu backward; for relu outputs,
/// y > 0 exactly where the pre-activation input is > 0).
void relu_backward_acc(Tensor& dx, const Tensor& g, const Tensor& y);

/// dx[i] += g[i] * (1 - y[i]^2), y = tanh output (Tape::tanh backward);
/// a crew splits it by row blocks.
void tanh_backward_acc(Tensor& dx, const Tensor& g, const Tensor& y,
                       util::Crew* crew = nullptr);

/// dx[i] += (g[i] * y[i]) * (1 - y[i]), y = sigmoid output (Tape::sigmoid
/// backward). Also the analytic backward of the message-squash logistic
/// (nn::logistic in nn/kernels.hpp is the same function).
void sigmoid_backward_acc(Tensor& dx, const Tensor& g, const Tensor& y);

/// Row-wise softmax backward: per row, dot = sum_c g*y (ascending), then
/// dx[r,c] += y*(g - dot) (Tape::softmax_rows backward).
void softmax_backward_acc(Tensor& dx, const Tensor& g, const Tensor& y);

/// Row-wise log-softmax backward: per row, gsum = sum_c g (ascending),
/// then dx[r,c] += g - exp(y)*gsum, y = log-probs (Tape::log_softmax_rows
/// backward).
void log_softmax_backward_acc(Tensor& dx, const Tensor& g, const Tensor& y);

/// Full LSTM-cell gate backward for the training graphs, where downstream
/// consumes only h_new (c_new's external gradient is exactly zero; the
/// actor/critic losses never touch it). Inputs are the forward's retained
/// post-activation gates [B,4H] (i|f|g|o), tanh(c_new) [B,H], and the cell
/// input state c_in [B,H]; dh is the incoming h_new gradient. Writes the
/// PRE-activation gate gradient into dgates [B,4H] (every element
/// assigned, flushed through the tape's `0.0 +` node-grad seeds). The
/// caller runs the matmul/bias backwards on dgates.
void lstm_backward_gates(Tensor& dgates, const Tensor& dh, const Tensor& gates,
                         const Tensor& tanh_c, const Tensor& c_in,
                         std::size_t hidden);
/// Rows `rows` only (dgates already shaped [B, 4H]).
void lstm_backward_gates(Tensor& dgates, const Tensor& dh, const Tensor& gates,
                         const Tensor& tanh_c, const Tensor& c_in,
                         std::size_t hidden, IndexRange rows);

}  // namespace tsc::nn
