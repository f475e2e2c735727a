#include "src/nn/inference.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace tsc::nn {

Tensor& Workspace::acquire(std::size_t rows, std::size_t cols) {
  if (cursor_ == slots_.size()) {
    slots_.push_back(std::make_unique<Tensor>());
    ++alloc_events_;
  }
  Tensor& t = *slots_[cursor_++];
  const std::size_t cap_before = t.values().capacity();
  t.reshape(rows, cols);
  if (t.values().capacity() != cap_before) ++alloc_events_;
  return t;
}

Tensor& Workspace::acquire_zeroed(std::size_t rows, std::size_t cols) {
  Tensor& t = acquire(rows, cols);
  t.fill(0.0);
  return t;
}

// The softmax kernels below copy the input and then run the EXACT loop
// bodies of Tape::softmax_rows / Tape::log_softmax_rows (tape.cpp): the
// same max scan, the same exp/accumulate order, the same divide/subtract.
// Any deviation breaks the workspace forwards' bit-identity guarantee.

void softmax_rows_into(Tensor& out, const Tensor& in) {
  assert(&out != &in);
  const std::size_t rows = in.rows(), cols = in.cols();
  out.reshape(rows, cols);
  std::copy(in.data(), in.data() + in.size(), out.data());
  for (std::size_t r = 0; r < rows; ++r) {
    double mx = out[r * cols];
    for (std::size_t c = 1; c < cols; ++c) mx = std::max(mx, out[r * cols + c]);
    double denom = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      out[r * cols + c] = std::exp(out[r * cols + c] - mx);
      denom += out[r * cols + c];
    }
    for (std::size_t c = 0; c < cols; ++c) out[r * cols + c] /= denom;
  }
}

void log_softmax_rows_into(Tensor& out, const Tensor& in) {
  assert(&out != &in);
  const std::size_t rows = in.rows(), cols = in.cols();
  out.reshape(rows, cols);
  std::copy(in.data(), in.data() + in.size(), out.data());
  for (std::size_t r = 0; r < rows; ++r) {
    double mx = out[r * cols];
    for (std::size_t c = 1; c < cols; ++c) mx = std::max(mx, out[r * cols + c]);
    double denom = 0.0;
    for (std::size_t c = 0; c < cols; ++c) denom += std::exp(out[r * cols + c] - mx);
    const double lse = mx + std::log(denom);
    for (std::size_t c = 0; c < cols; ++c) out[r * cols + c] -= lse;
  }
}

// Fast-tier softmax: subtract the row max in one pass, batch the exps
// through the vectorized kernel, then normalize. Subtract-then-exp computes
// the same values as the reference's fused exp(x - mx); the separation is
// what lets the exp vectorize across the whole row.

void softmax_rows_into(Tensor& out, const Tensor& in, KernelTier tier) {
  if (tier == KernelTier::kReference) {
    softmax_rows_into(out, in);
    return;
  }
  assert(&out != &in);
  const std::size_t rows = in.rows(), cols = in.cols();
  out.reshape(rows, cols);
  std::copy(in.data(), in.data() + in.size(), out.data());
  double* p = out.data();
  for (std::size_t r = 0; r < rows; ++r) {
    double* row = p + r * cols;
    double mx = row[0];
    for (std::size_t c = 1; c < cols; ++c) mx = std::max(mx, row[c]);
    for (std::size_t c = 0; c < cols; ++c) row[c] -= mx;
  }
  exp_inplace_tier(p, rows * cols, tier);
  for (std::size_t r = 0; r < rows; ++r) {
    double* row = p + r * cols;
    double denom = 0.0;
    for (std::size_t c = 0; c < cols; ++c) denom += row[c];
    for (std::size_t c = 0; c < cols; ++c) row[c] /= denom;
  }
}

void log_softmax_rows_into(Tensor& out, const Tensor& in, KernelTier tier) {
  if (tier == KernelTier::kReference) {
    log_softmax_rows_into(out, in);
    return;
  }
  assert(&out != &in);
  const std::size_t rows = in.rows(), cols = in.cols();
  out.reshape(rows, cols);
  std::copy(in.data(), in.data() + in.size(), out.data());
  double* p = out.data();
  // Shift every row by its max in place, batch one exp over the whole
  // buffer into a stack scratch (rows here are action logits, a handful of
  // columns — chunking keeps the scratch fixed-size for any shape), then
  // subtract each row's log-sum-exp.
  for (std::size_t r = 0; r < rows; ++r) {
    double* row = p + r * cols;
    double mx = row[0];
    for (std::size_t c = 1; c < cols; ++c) mx = std::max(mx, row[c]);
    for (std::size_t c = 0; c < cols; ++c) row[c] -= mx;
    double denom = 0.0;
    double scratch[64];
    for (std::size_t c0 = 0; c0 < cols; c0 += 64) {
      const std::size_t len = std::min<std::size_t>(64, cols - c0);
      std::copy(row + c0, row + c0 + len, scratch);
      exp_inplace_tier(scratch, len, tier);
      for (std::size_t i = 0; i < len; ++i) denom += scratch[i];
    }
    const double lse = std::log(denom);
    for (std::size_t c = 0; c < cols; ++c) row[c] -= lse;
  }
}

void relu_inplace(Tensor& t) {
  double* p = t.data();
  const std::size_t n = t.size();
  for (std::size_t i = 0; i < n; ++i) p[i] = p[i] > 0.0 ? p[i] : 0.0;
}

void tanh_inplace(Tensor& t) {
  double* p = t.data();
  const std::size_t n = t.size();
  for (std::size_t i = 0; i < n; ++i) p[i] = std::tanh(p[i]);
}

void tanh_inplace(Tensor& t, KernelTier tier, util::Crew* crew) {
  const std::size_t cols = t.cols();
  run_parts(crew, [&](std::size_t part, std::size_t parts) {
    const IndexRange rows = tile_rows(t.rows(), part, parts);
    tanh_inplace_tier(t.data() + rows.begin * cols,
                      (rows.end - rows.begin) * cols, tier);
  });
}

std::size_t argmax_row(const Tensor& t, std::size_t r, std::size_t limit) {
  assert(limit > 0 && limit <= t.cols());
  std::size_t best = 0;
  for (std::size_t c = 1; c < limit; ++c)
    if (t.at(r, c) > t.at(r, best)) best = c;
  return best;
}

}  // namespace tsc::nn
