#include "src/nn/tape.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <ostream>

#include "grad_check.hpp"
#include "src/util/rng.hpp"

namespace tsc::nn {
namespace {

using tsc::test::max_grad_error;

Tensor random_tensor(std::size_t rows, std::size_t cols, Rng& rng, double scale = 1.0) {
  Tensor t = Tensor::zeros(rows, cols);
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = scale * rng.normal();
  return t;
}

TEST(Tape, ForwardValuesAddSubMul) {
  Tape tape;
  Var a = tape.constant(Tensor::vector({1, 2, 3}));
  Var b = tape.constant(Tensor::vector({10, 20, 30}));
  EXPECT_DOUBLE_EQ(tape.value(tape.add(a, b))[1], 22.0);
  EXPECT_DOUBLE_EQ(tape.value(tape.sub(b, a))[2], 27.0);
  EXPECT_DOUBLE_EQ(tape.value(tape.mul(a, b))[0], 10.0);
  EXPECT_DOUBLE_EQ(tape.value(tape.scale(a, -2.0))[2], -6.0);
  EXPECT_DOUBLE_EQ(tape.value(tape.add_scalar(a, 0.5))[0], 1.5);
}

TEST(Tape, BiasBroadcastAdd) {
  Tape tape;
  Var m = tape.constant(Tensor::matrix(2, 3, {1, 2, 3, 4, 5, 6}));
  Var bias = tape.constant(Tensor::vector({10, 20, 30}));
  const Tensor& out = tape.value(tape.add(m, bias));
  EXPECT_DOUBLE_EQ(out.at(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(out.at(1, 2), 36.0);
}

TEST(Tape, SoftmaxRowsSumToOne) {
  Tape tape;
  Var x = tape.constant(Tensor::matrix(2, 3, {1, 2, 3, -5, 0, 5}));
  const Tensor& p = tape.value(tape.softmax_rows(x));
  for (std::size_t r = 0; r < 2; ++r) {
    double row_sum = 0.0;
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_GT(p.at(r, c), 0.0);
      row_sum += p.at(r, c);
    }
    EXPECT_NEAR(row_sum, 1.0, 1e-12);
  }
}

TEST(Tape, SoftmaxNumericallyStableForLargeLogits) {
  Tape tape;
  Var x = tape.constant(Tensor::matrix(1, 3, {1000.0, 1001.0, 999.0}));
  const Tensor& p = tape.value(tape.softmax_rows(x));
  EXPECT_FALSE(std::isnan(p[0]));
  EXPECT_GT(p.at(0, 1), p.at(0, 0));
  const Tensor& lp = tape.value(tape.log_softmax_rows(x));
  EXPECT_FALSE(std::isnan(lp[0]));
  EXPECT_LT(lp.at(0, 0), 0.0);
}

TEST(Tape, LogSoftmaxMatchesLogOfSoftmax) {
  Tape tape;
  Var x = tape.constant(Tensor::matrix(2, 4, {0.3, -1, 2, 0.5, 1, 1, 1, 1}));
  const Tensor& p = tape.value(tape.softmax_rows(x));
  const Tensor& lp = tape.value(tape.log_softmax_rows(x));
  for (std::size_t i = 0; i < p.size(); ++i)
    EXPECT_NEAR(std::log(p[i]), lp[i], 1e-10);
}

TEST(Tape, GatherColsPicksPerRow) {
  Tape tape;
  Var x = tape.constant(Tensor::matrix(3, 3, {1, 2, 3, 4, 5, 6, 7, 8, 9}));
  const Tensor& g = tape.value(tape.gather_cols(x, {2, 0, 1}));
  EXPECT_DOUBLE_EQ(g.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(g.at(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(g.at(2, 0), 8.0);
}

TEST(Tape, ConcatAndSlice) {
  Tape tape;
  Var a = tape.constant(Tensor::matrix(2, 2, {1, 2, 3, 4}));
  Var b = tape.constant(Tensor::matrix(2, 1, {9, 10}));
  Var cat = tape.concat_cols({a, b});
  EXPECT_EQ(tape.value(cat).cols(), 3u);
  EXPECT_DOUBLE_EQ(tape.value(cat).at(1, 2), 10.0);
  Var sl = tape.slice_cols(cat, 1, 2);
  EXPECT_DOUBLE_EQ(tape.value(sl).at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(tape.value(sl).at(0, 1), 9.0);

  Var rows = tape.concat_rows({a, a});
  EXPECT_EQ(tape.value(rows).rows(), 4u);
  Var row = tape.select_row(rows, 3);
  EXPECT_DOUBLE_EQ(tape.value(row).at(0, 1), 4.0);
}

TEST(Tape, ClampMinMaxValues) {
  Tape tape;
  Var x = tape.constant(Tensor::vector({-2, 0.5, 3}));
  const Tensor& c = tape.value(tape.clamp(x, -1, 1));
  EXPECT_DOUBLE_EQ(c[0], -1.0);
  EXPECT_DOUBLE_EQ(c[1], 0.5);
  EXPECT_DOUBLE_EQ(c[2], 1.0);

  Var y = tape.constant(Tensor::vector({0, 1, 0}));
  Var x2 = tape.constant(Tensor::vector({-2, 0.5, 3}));
  EXPECT_DOUBLE_EQ(tape.value(tape.min_elem(x2, y))[2], 0.0);
  EXPECT_DOUBLE_EQ(tape.value(tape.max_elem(x2, y))[0], 0.0);
}

TEST(Tape, ParamGradientAccumulatesIntoParameter) {
  Parameter w(Tensor::vector({2.0, 3.0}), "w");
  Tape tape;
  Var wv = tape.param(w);
  Var loss = tape.sum(tape.square(wv));  // d/dw = 2w
  tape.backward(loss);
  EXPECT_DOUBLE_EQ(w.grad[0], 4.0);
  EXPECT_DOUBLE_EQ(w.grad[1], 6.0);
  // Second pass accumulates.
  Tape tape2;
  Var wv2 = tape2.param(w);
  tape2.backward(tape2.sum(wv2));
  EXPECT_DOUBLE_EQ(w.grad[0], 5.0);
}

TEST(Tape, ResetClearsNodes) {
  Tape tape;
  tape.constant(Tensor::vector({1}));
  EXPECT_EQ(tape.num_nodes(), 1u);
  tape.reset();
  EXPECT_EQ(tape.num_nodes(), 0u);
}

// ---------------------------------------------------------------------------
// Numerical gradient checks for every differentiable op.

struct OpCase {
  const char* name;
  std::size_t num_inputs;
  double scale;  // input magnitude (keep away from kinks for relu/clamp)
  std::function<Var(Tape&, const std::vector<Var>&)> build;
};

// Without this, gtest prints the parameter as a raw byte dump that embeds
// pointers, so the listed test names changed with every build under ASLR.
void PrintTo(const OpCase& op, std::ostream* os) { *os << op.name; }

class TapeGradient : public ::testing::TestWithParam<OpCase> {};

TEST_P(TapeGradient, MatchesFiniteDifferences) {
  const OpCase& op = GetParam();
  Rng rng(1234 + op.num_inputs);
  std::vector<Tensor> inputs;
  for (std::size_t i = 0; i < op.num_inputs; ++i)
    inputs.push_back(random_tensor(3, 4, rng, op.scale));
  const double err = max_grad_error(inputs, op.build);
  EXPECT_LT(err, 2e-6) << "op: " << op.name;
}

// Each case reduces to a scalar via weighted sum so gradients vary per
// element (plain sum would hide transposition bugs in some ops).
Var weighted(Tape& t, Var x) {
  const Tensor& v = t.value(x);
  Tensor w = Tensor::zeros(v.rows(), v.cols());
  for (std::size_t i = 0; i < w.size(); ++i)
    w[i] = 0.1 * static_cast<double>(i + 1);
  return t.sum(t.mul(x, t.constant(std::move(w))));
}

const OpCase kOpCases[] = {
    {"add", 2, 1.0, [](Tape& t, const std::vector<Var>& in) {
       return weighted(t, t.add(in[0], in[1]));
     }},
    {"sub", 2, 1.0, [](Tape& t, const std::vector<Var>& in) {
       return weighted(t, t.sub(in[0], in[1]));
     }},
    {"mul", 2, 1.0, [](Tape& t, const std::vector<Var>& in) {
       return weighted(t, t.mul(in[0], in[1]));
     }},
    {"scale", 1, 1.0, [](Tape& t, const std::vector<Var>& in) {
       return weighted(t, t.scale(in[0], -2.5));
     }},
    {"add_scalar", 1, 1.0, [](Tape& t, const std::vector<Var>& in) {
       return weighted(t, t.add_scalar(in[0], 3.0));
     }},
    {"matmul", 2, 0.7, [](Tape& t, const std::vector<Var>& in) {
       // in[0]: [3,4]; build [4,3] from in[1] by slicing+concat is overkill;
       // multiply in[0] by in[1]^T via matmul(in0, transpose-free trick):
       // use matmul(in0_slice..) - simpler: matmul([3,4],[4,?]) needs a
       // second input of shape [4,x]; reuse rows of in[1] by concatenating
       // its first column repeatedly is messy. Instead multiply in[0]^T
       // implicitly: loss = sum(matmul(in0, W)) with W from in[1] columns.
       // We just take in[1] as [3,4] and use its transpose through two
       // slices: matmul(in0 [3x4], concat_rows(select..)) -> keep simple:
       Var b = t.concat_rows({t.select_row(in[1], 0), t.select_row(in[1], 1),
                              t.select_row(in[1], 2),
                              t.select_row(in[1], 0)});  // [4,4]
       return weighted(t, t.matmul(in[0], b));
     }},
    {"relu", 1, 1.0, [](Tape& t, const std::vector<Var>& in) {
       return weighted(t, t.relu(in[0]));
     }},
    {"leaky_relu", 1, 1.0, [](Tape& t, const std::vector<Var>& in) {
       return weighted(t, t.leaky_relu(in[0], 0.1));
     }},
    {"tanh", 1, 1.0, [](Tape& t, const std::vector<Var>& in) {
       return weighted(t, t.tanh(in[0]));
     }},
    {"sigmoid", 1, 1.0, [](Tape& t, const std::vector<Var>& in) {
       return weighted(t, t.sigmoid(in[0]));
     }},
    {"exp", 1, 0.5, [](Tape& t, const std::vector<Var>& in) {
       return weighted(t, t.exp(in[0]));
     }},
    {"log_of_positive", 1, 0.3, [](Tape& t, const std::vector<Var>& in) {
       return weighted(t, t.log(t.add_scalar(t.square(in[0]), 1.0)));
     }},
    {"square", 1, 1.0, [](Tape& t, const std::vector<Var>& in) {
       return weighted(t, t.square(in[0]));
     }},
    {"softmax", 1, 1.0, [](Tape& t, const std::vector<Var>& in) {
       return weighted(t, t.softmax_rows(in[0]));
     }},
    {"log_softmax", 1, 1.0, [](Tape& t, const std::vector<Var>& in) {
       return weighted(t, t.log_softmax_rows(in[0]));
     }},
    {"mean", 1, 1.0, [](Tape& t, const std::vector<Var>& in) {
       return t.mean(t.square(in[0]));
     }},
    {"concat_cols", 2, 1.0, [](Tape& t, const std::vector<Var>& in) {
       return weighted(t, t.concat_cols({in[0], in[1]}));
     }},
    {"concat_rows", 2, 1.0, [](Tape& t, const std::vector<Var>& in) {
       return weighted(t, t.concat_rows({in[0], in[1]}));
     }},
    {"slice_cols", 1, 1.0, [](Tape& t, const std::vector<Var>& in) {
       return weighted(t, t.slice_cols(in[0], 1, 2));
     }},
    {"select_row", 1, 1.0, [](Tape& t, const std::vector<Var>& in) {
       return weighted(t, t.select_row(in[0], 2));
     }},
    {"gather_cols", 1, 1.0, [](Tape& t, const std::vector<Var>& in) {
       return weighted(t, t.gather_cols(in[0], {3, 0, 2}));
     }},
    {"clamp", 1, 0.4, [](Tape& t, const std::vector<Var>& in) {
       return weighted(t, t.clamp(in[0], -1.0, 1.0));
     }},
    {"min_elem", 2, 1.0, [](Tape& t, const std::vector<Var>& in) {
       return weighted(t, t.min_elem(in[0], in[1]));
     }},
    {"max_elem", 2, 1.0, [](Tape& t, const std::vector<Var>& in) {
       return weighted(t, t.max_elem(in[0], in[1]));
     }},
    {"composite_mlp_like", 2, 0.7, [](Tape& t, const std::vector<Var>& in) {
       Var h = t.tanh(t.mul(in[0], in[1]));
       Var p = t.softmax_rows(h);
       return t.mean(t.mul(p, t.log(t.add_scalar(t.square(in[0]), 0.5))));
     }},
};

INSTANTIATE_TEST_SUITE_P(AllOps, TapeGradient, ::testing::ValuesIn(kOpCases),
                         [](const ::testing::TestParamInfo<OpCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace tsc::nn
