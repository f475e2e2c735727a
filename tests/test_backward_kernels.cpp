// The fused update's two backward GEMMs (nn/backward.hpp) run on the tiled
// accumulate kernel nn::matmul_acc_strided. Each is pinned bit for bit
// against the tape's own accumulation, `grad += matmul_nt(g, B)` and
// `grad += matmul_tn(A, g)` (nn/tape.cpp), on shapes that hit every tile and
// tail boundary, with the operand values the update actually produces:
// exact zeros in the activations (observation rows are mostly zero), -0.0
// in the incoming gradient, and sinks that already hold contributions.
// Comparisons are on bit patterns, so a +0.0 / -0.0 mismatch fails.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/nn/backward.hpp"
#include "src/nn/tensor.hpp"
#include "src/util/rng.hpp"

namespace tsc {
namespace {

// Every m, k, n from this list: below, at and past the 8-row / 4-row tile
// heights and the 8- / 16-column tile widths, and several tiles plus a tail.
const std::vector<std::size_t> kDims = {1, 7, 8, 9, 15, 16, 17, 41};

// Random values with exact zeros at rate `zero_rate`; of those zeros, half
// are -0.0 when `negative_zeros` is set.
nn::Tensor random_tensor(std::size_t rows, std::size_t cols, Rng& rng,
                         double zero_rate, bool negative_zeros) {
  nn::Tensor t = nn::Tensor::zeros(rows, cols);
  for (double& x : t.values()) {
    if (rng.bernoulli(zero_rate)) {
      x = negative_zeros && rng.bernoulli(0.5) ? -0.0 : 0.0;
    } else {
      x = rng.uniform(-2.0, 2.0);
    }
  }
  return t;
}

// A sink as the update leaves it mid-accumulation: mostly prior non-zero
// contributions, some +0.0 and some -0.0.
nn::Tensor prior_sink(std::size_t rows, std::size_t cols, Rng& rng) {
  return random_tensor(rows, cols, rng, 0.2, true);
}

std::string shape_name(std::size_t m, std::size_t k, std::size_t n) {
  return "[m=" + std::to_string(m) + " k=" + std::to_string(k) +
         " n=" + std::to_string(n) + "]";
}

void expect_bit_identical(const nn::Tensor& expected, const nn::Tensor& actual,
                          const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(expected[i]),
              std::bit_cast<std::uint64_t>(actual[i]))
        << what << " element " << i << ": " << expected[i] << " vs "
        << actual[i];
  }
}

// dx [m,k] += dy [m,n] @ w [k,n]^T against the tape's grad += matmul_nt.
void check_nt(std::size_t m, std::size_t k, std::size_t n, Rng& rng,
              nn::Workspace& ws) {
  const nn::Tensor dy = random_tensor(m, n, rng, 0.3, true);
  const nn::Tensor w = random_tensor(k, n, rng, 0.05, false);
  nn::Tensor expected = prior_sink(m, k, rng);
  nn::Tensor actual = expected;
  expected += nn::matmul_nt(dy, w);
  ws.begin_pass();
  nn::backward_matmul_nt_acc(ws, actual, dy, w);
  expect_bit_identical(expected, actual, "nt " + shape_name(m, k, n));
}

// dw [k,n] += x [m,k]^T @ dy [m,n] against the tape's grad += matmul_tn.
void check_tn(std::size_t m, std::size_t k, std::size_t n, Rng& rng) {
  const nn::Tensor x = random_tensor(m, k, rng, 0.65, true);
  const nn::Tensor dy = random_tensor(m, n, rng, 0.3, true);
  nn::Tensor expected = prior_sink(k, n, rng);
  nn::Tensor actual = expected;
  expected += nn::matmul_tn(x, dy);
  nn::backward_matmul_tn_acc(actual, x, dy);
  expect_bit_identical(expected, actual, "tn " + shape_name(m, k, n));
}

TEST(BackwardKernels, NtMatchesTapeOnEveryTileBoundary) {
  Rng rng(101);
  nn::Workspace ws;
  for (std::size_t m : kDims)
    for (std::size_t k : kDims)
      for (std::size_t n : kDims) check_nt(m, k, n, rng, ws);
}

TEST(BackwardKernels, TnMatchesTapeOnEveryTileBoundary) {
  Rng rng(202);
  for (std::size_t m : kDims)
    for (std::size_t k : kDims)
      for (std::size_t n : kDims) check_tn(m, k, n, rng);
}

TEST(BackwardKernels, MatchTapeAtTheUpdateShapes) {
  // One 128-row minibatch on the 6x6 grid: LSTM gates (hidden 64, 256 gate
  // columns), policy head (8 logits), value head (1), actor embed (18 in).
  Rng rng(303);
  nn::Workspace ws;
  check_nt(128, 64, 256, rng, ws);
  check_nt(128, 64, 8, rng, ws);
  check_nt(128, 64, 1, rng, ws);
  check_tn(128, 64, 256, rng);
  check_tn(128, 18, 64, rng);
  check_tn(128, 64, 1, rng);
}

TEST(BackwardKernels, SignedZeroOperandsKeepTheTapesZeroSign) {
  // All-zero activations against an all -0.0 gradient: every product is
  // -0.0. The tape's chains start at +0.0 and matmul_tn skips the zero
  // activations, so every contribution is exactly +0.0 and a -0.0 sink
  // turns into +0.0; the tiles must land on the same bits.
  for (std::size_t m : {8u, 17u, 41u}) {
    const nn::Tensor x = nn::Tensor::zeros(m, 16);
    const nn::Tensor dy = nn::Tensor::full(m, 24, -0.0);
    const nn::Tensor w = nn::Tensor::full(16, 24, 1.5);
    nn::Tensor dw_expected = nn::Tensor::full(16, 24, -0.0);
    nn::Tensor dw = dw_expected;
    dw_expected += nn::matmul_tn(x, dy);
    nn::backward_matmul_tn_acc(dw, x, dy);
    expect_bit_identical(dw_expected, dw, "tn zeros m=" + std::to_string(m));
    EXPECT_FALSE(std::signbit(dw[0]));

    nn::Workspace ws;
    nn::Tensor dx_expected = nn::Tensor::full(m, 16, -0.0);
    nn::Tensor dx = dx_expected;
    dx_expected += nn::matmul_nt(dy, w);
    nn::backward_matmul_nt_acc(ws, dx, dy, w);
    expect_bit_identical(dx_expected, dx, "nt zeros m=" + std::to_string(m));
    EXPECT_FALSE(std::signbit(dx[0]));
  }
}

TEST(BackwardKernels, TransposeSlotIsReusedWithoutAllocating) {
  // nt stages W^T in one workspace slot per call; after the first pass the
  // same slots are handed out again and nothing allocates.
  Rng rng(505);
  const nn::Tensor dy = random_tensor(128, 256, rng, 0.0, false);
  const nn::Tensor w = random_tensor(64, 256, rng, 0.0, false);
  const nn::Tensor head_dy = random_tensor(128, 8, rng, 0.0, false);
  const nn::Tensor head_w = random_tensor(64, 8, rng, 0.0, false);
  nn::Tensor dx = nn::Tensor::zeros(128, 64);
  nn::Workspace ws;
  auto pass = [&]() {
    ws.begin_pass();
    nn::backward_matmul_nt_acc(ws, dx, head_dy, head_w);
    nn::backward_matmul_nt_acc(ws, dx, dy, w);
  };
  pass();
  EXPECT_EQ(ws.num_buffers(), 2u);
  const std::size_t warm = ws.alloc_events();
  for (int i = 0; i < 5; ++i) pass();
  EXPECT_EQ(ws.alloc_events(), warm);
  EXPECT_EQ(ws.num_buffers(), 2u);
}

}  // namespace
}  // namespace tsc
