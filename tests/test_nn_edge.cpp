// Edge-case tests for the NN stack: tiny shapes, shared subgraphs
// (gradient accumulation through diamonds), optimizer options, and
// serialization of multi-module trees.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "grad_check.hpp"
#include "src/nn/layers.hpp"
#include "src/nn/optim.hpp"
#include "src/nn/serialize.hpp"
#include "src/nn/tape.hpp"
#include "src/util/rng.hpp"

namespace tsc::nn {
namespace {

TEST(TapeEdge, SingleElementTensors) {
  Tape tape;
  Var x = tape.constant(Tensor::vector({3.0}));
  Var y = tape.mul(x, x);
  EXPECT_DOUBLE_EQ(tape.value(y)[0], 9.0);
  Var z = tape.matmul(tape.constant(Tensor::matrix(1, 1, {2.0})),
                      tape.constant(Tensor::matrix(1, 1, {5.0})));
  EXPECT_DOUBLE_EQ(tape.value(z)[0], 10.0);
}

TEST(TapeEdge, DiamondGraphAccumulatesGradients) {
  // loss = sum(x*x) + sum(3x): d/dx = 2x + 3, with x reused twice.
  Tape tape;
  Var x = tape.leaf(Tensor::vector({2.0, -1.0}));
  Var loss = tape.add(tape.sum(tape.mul(x, x)), tape.sum(tape.scale(x, 3.0)));
  tape.backward(loss);
  EXPECT_DOUBLE_EQ(tape.grad(x)[0], 7.0);   // 2*2 + 3
  EXPECT_DOUBLE_EQ(tape.grad(x)[1], 1.0);   // -2 + 3
}

TEST(TapeEdge, DeepChainGradient) {
  // 20 tanh layers deep: gradients stay finite and correct numerically.
  Rng rng(51);
  Tensor x = Tensor::zeros(1, 3);
  for (std::size_t i = 0; i < 3; ++i) x[i] = rng.normal();
  const double err = test::max_grad_error(
      {x}, [](Tape& t, const std::vector<Var>& in) {
        Var h = in[0];
        for (int layer = 0; layer < 20; ++layer) h = t.tanh(t.scale(h, 1.1));
        return t.sum(h);
      });
  EXPECT_LT(err, 1e-6);
}

TEST(TapeEdge, ParamUsedTwiceInOneForward) {
  // Weight sharing: same parameter node reused; gradient doubles up.
  Parameter w(Tensor::vector({1.5}), "w");
  Tape tape;
  Var wv = tape.param(w);
  // loss = (w * w) using the SAME node twice.
  tape.backward(tape.sum(tape.mul(wv, wv)));
  EXPECT_DOUBLE_EQ(w.grad[0], 3.0);  // 2w
}

TEST(TapeEdge, TwoSeparateParamNodesOfSameParameter) {
  // Registering the parameter twice on one tape also accumulates correctly.
  Parameter w(Tensor::vector({2.0}), "w");
  Tape tape;
  Var w1 = tape.param(w);
  Var w2 = tape.param(w);
  tape.backward(tape.sum(tape.mul(w1, w2)));
  EXPECT_DOUBLE_EQ(w.grad[0], 4.0);  // d(w^2)/dw
}

TEST(AdamEdge, WeightDecayShrinksWeights) {
  Parameter w(Tensor::vector({1.0}), "w");
  Adam::Config config;
  config.lr = 0.01;
  config.weight_decay = 0.1;
  Adam opt({&w}, config);
  // Zero gradient: only decay acts.
  w.zero_grad();
  opt.step();
  EXPECT_LT(w.value[0], 1.0);
  EXPECT_GT(w.value[0], 0.99);
}

TEST(AdamEdge, LrSetterTakesEffect) {
  Parameter w(Tensor::vector({1.0}), "w");
  Adam opt({&w});
  opt.set_lr(0.0);
  w.grad[0] = 100.0;
  opt.step();
  EXPECT_DOUBLE_EQ(w.value[0], 1.0);  // zero lr: no movement
  EXPECT_DOUBLE_EQ(opt.lr(), 0.0);
}

TEST(MlpEdge, SingleHiddenReluPath) {
  Rng rng(53);
  Mlp mlp({2, 4, 1}, rng, Activation::kRelu);
  Tape tape;
  Var y = mlp.forward(tape, tape.constant(Tensor::matrix(1, 2, {1.0, -1.0})));
  EXPECT_EQ(tape.value(y).cols(), 1u);
  // Gradcheck through the relu MLP at a generic point.
  Tensor x = Tensor::matrix(2, 2, {0.3, -0.7, 1.2, 0.4});
  const double err = test::max_grad_error(
      {x}, [&](Tape& t, const std::vector<Var>& in) {
        return t.sum(t.square(mlp.forward(t, in[0])));
      });
  EXPECT_LT(err, 1e-5);
}

TEST(SerializeEdge, LstmAndLinearTreeRoundTrip) {
  Rng rng(54);
  struct Net : Module {
    Net(Rng& rng) : linear(3, 4, rng), lstm(4, 4, rng) {
      register_module(&linear);
      register_module(&lstm);
    }
    Linear linear;
    LstmCell lstm;
  };
  Net a(rng), b(rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "tsc_tree_roundtrip.bin").string();
  save_weights(a, path);
  load_weights(b, path);
  auto pa = a.parameters();
  auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  ASSERT_EQ(pa.size(), 5u);  // linear W+b, lstm Wx+Wh+b
  for (std::size_t i = 0; i < pa.size(); ++i)
    for (std::size_t j = 0; j < pa[i]->value.size(); ++j)
      EXPECT_DOUBLE_EQ(pa[i]->value[j], pb[i]->value[j]);
  std::remove(path.c_str());
}

TEST(SerializeEdge, CorruptMagicRejected) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "tsc_corrupt.bin").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "JUNKDATA";
  }
  Rng rng(55);
  Mlp mlp({2, 2}, rng);
  EXPECT_THROW(load_weights(mlp, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(SerializeEdge, TruncatedFileLeavesWeightsUnchanged) {
  // A file cut inside its last tensor must throw before any parameter is
  // overwritten: load_weights stages the whole file, then commits.
  Rng rng(56);
  Mlp saved({3, 5, 2}, rng), target({3, 5, 2}, rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "tsc_truncated.bin").string();
  save_weights(saved, path);
  std::filesystem::resize_file(
      path, std::filesystem::file_size(path) - 3 * sizeof(double));

  std::vector<Tensor> before;
  for (Parameter* p : target.parameters()) before.push_back(p->value);
  EXPECT_THROW(load_weights(target, path), std::runtime_error);
  auto params = target.parameters();
  ASSERT_EQ(params.size(), before.size());
  for (std::size_t i = 0; i < params.size(); ++i)
    for (std::size_t j = 0; j < before[i].size(); ++j)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(params[i]->value[j]),
                std::bit_cast<std::uint64_t>(before[i][j]))
          << "parameter " << i << " element " << j << " was overwritten";
  std::remove(path.c_str());
}

TEST(LstmEdge, CellStateSaturationBounded) {
  // Feeding large constant inputs for many steps must not blow up h.
  Rng rng(56);
  LstmCell cell(2, 3, rng);
  Tape tape;
  auto state = cell.zero_state(tape, 1);
  Var x = tape.constant(Tensor::full(1, 2, 10.0));
  for (int step = 0; step < 50; ++step) {
    state = cell.forward(tape, x, state.h, state.c);
  }
  for (std::size_t i = 0; i < tape.value(state.h).size(); ++i) {
    EXPECT_TRUE(std::isfinite(tape.value(state.h)[i]));
    EXPECT_LE(std::abs(tape.value(state.h)[i]), 1.0);
  }
}

}  // namespace
}  // namespace tsc::nn
