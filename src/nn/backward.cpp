// Backward kernels for the tape-free training path. Every loop replays the
// corresponding Tape backward closure (nn/tape.cpp) expression for
// expression, and the two GEMM backwards run nn::matmul_acc_strided, whose
// chains equal matmul_nt's / matmul_tn's (nn/tensor.cpp) — see the contract
// in backward.hpp. Built with the tensor.cpp flag set
// (-O3 -march=native -ffp-contract=off) so vectorization never introduces
// FMA contraction or reassociation.
#include "src/nn/backward.hpp"

#include <cmath>
#include <cstddef>

namespace tsc::nn {

void backward_matmul_nt_acc(Workspace& ws, Tensor& dx, const Tensor& dy,
                            const Tensor& w) {
  // dy @ w^T is the row-major product dy @ wt with wt = w^T [n, k]; the
  // chain for dx[i][j] runs over p = 0..n-1 exactly like matmul_nt's dot.
  Tensor& wt = ws.acquire(w.cols(), w.rows());
  transpose_rows(wt, w, {0, w.cols()});
  matmul_nt_acc_rows(dx, dy, wt, {0, dy.rows()});
}

void transpose_rows(Tensor& wt, const Tensor& w, IndexRange rows) {
  const std::size_t k = w.rows();  // w is [k, n], wt is [n, k]
  const std::size_t n = w.cols();
  const double* pw = w.data();
  double* pt = wt.data();
  for (std::size_t p = rows.begin; p < rows.end; ++p) {
    for (std::size_t j = 0; j < k; ++j) {
      pt[p * k + j] = pw[j * n + p];
    }
  }
}

void matmul_nt_acc_rows(Tensor& dx, const Tensor& dy, const Tensor& wt,
                        IndexRange rows) {
  const std::size_t n = dy.cols();
  const std::size_t k = wt.cols();  // dx is [m, k], wt is [n, k]
  matmul_acc_strided(dx.data() + rows.begin * k, dy.data() + rows.begin * n, n,
                     1, wt.data(), rows.end - rows.begin, n, k);
}

void backward_matmul_tn_acc(Tensor& dw, const Tensor& x, const Tensor& dy) {
  backward_matmul_tn_acc(dw, x, dy, {0, x.cols()});
}

void backward_matmul_tn_acc(Tensor& dw, const Tensor& x, const Tensor& dy,
                            IndexRange rows) {
  const std::size_t m = x.rows();
  const std::size_t k = x.cols();  // dw is [k, n]
  const std::size_t n = dy.cols();
  // A = x^T: A(i,p) = x[p][i], so row stride 1 and column stride k; for
  // each batch row p a tile's rows are contiguous in x. Rows [lo, hi) of
  // dw read columns [lo, hi) of x.
  matmul_acc_strided(dw.data() + rows.begin * n, x.data() + rows.begin, 1, k,
                     dy.data(), rows.end - rows.begin, m, n);
}

void backward_bias_acc(Tensor& db, const Tensor& dy) {
  backward_bias_acc(db, dy, {0, dy.cols()});
}

void backward_bias_acc(Tensor& db, const Tensor& dy, IndexRange cols) {
  const std::size_t rows = dy.rows();
  const std::size_t width = dy.cols();
  const double* pg = dy.data();
  double* pb = db.data();
  for (std::size_t r = 0; r < rows; ++r) {
    const double* grow = pg + r * width;
    for (std::size_t c = cols.begin; c < cols.end; ++c) {
      pb[c] += grow[c];
    }
  }
}

void relu_backward_acc(Tensor& dx, const Tensor& g, const Tensor& y) {
  const std::size_t n = y.size();
  const double* pg = g.data();
  const double* py = y.data();
  double* po = dx.data();
  for (std::size_t i = 0; i < n; ++i) {
    if (py[i] > 0.0) {
      po[i] += pg[i];
    }
  }
}

void tanh_backward_acc(Tensor& dx, const Tensor& g, const Tensor& y,
                       util::Crew* crew) {
  const std::size_t cols = y.cols();
  const double* pg = g.data();
  const double* py = y.data();
  double* po = dx.data();
  run_parts(crew, [&](std::size_t part, std::size_t parts) {
    const IndexRange rows = tile_rows(y.rows(), part, parts);
    for (std::size_t i = rows.begin * cols; i < rows.end * cols; ++i) {
      po[i] += pg[i] * (1.0 - py[i] * py[i]);
    }
  });
}

void sigmoid_backward_acc(Tensor& dx, const Tensor& g, const Tensor& y) {
  const std::size_t n = y.size();
  const double* pg = g.data();
  const double* py = y.data();
  double* po = dx.data();
  for (std::size_t i = 0; i < n; ++i) {
    po[i] += pg[i] * py[i] * (1.0 - py[i]);
  }
}

void softmax_backward_acc(Tensor& dx, const Tensor& g, const Tensor& y) {
  const std::size_t rows = y.rows();
  const std::size_t cols = y.cols();
  const double* pg = g.data();
  const double* py = y.data();
  double* po = dx.data();
  for (std::size_t r = 0; r < rows; ++r) {
    const double* grow = pg + r * cols;
    const double* yrow = py + r * cols;
    double* orow = po + r * cols;
    double dot = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      dot += grow[c] * yrow[c];
    }
    for (std::size_t c = 0; c < cols; ++c) {
      orow[c] += yrow[c] * (grow[c] - dot);
    }
  }
}

void log_softmax_backward_acc(Tensor& dx, const Tensor& g, const Tensor& y) {
  const std::size_t rows = y.rows();
  const std::size_t cols = y.cols();
  const double* pg = g.data();
  const double* py = y.data();
  double* po = dx.data();
  for (std::size_t r = 0; r < rows; ++r) {
    const double* grow = pg + r * cols;
    const double* yrow = py + r * cols;
    double* orow = po + r * cols;
    double gsum = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      gsum += grow[c];
    }
    for (std::size_t c = 0; c < cols; ++c) {
      orow[c] += grow[c] - std::exp(yrow[c]) * gsum;
    }
  }
}

void lstm_backward_gates(Tensor& dgates, const Tensor& dh, const Tensor& gates,
                         const Tensor& tanh_c, const Tensor& c_in,
                         std::size_t hidden) {
  lstm_backward_gates(dgates, dh, gates, tanh_c, c_in, hidden, {0, dh.rows()});
}

void lstm_backward_gates(Tensor& dgates, const Tensor& dh, const Tensor& gates,
                         const Tensor& tanh_c, const Tensor& c_in,
                         std::size_t hidden, IndexRange rows) {
  const double* pdh = dh.data();
  const double* pgt = gates.data();
  const double* ptc = tanh_c.data();
  const double* pc = c_in.data();
  double* po = dgates.data();
  for (std::size_t r = rows.begin; r < rows.end; ++r) {
    const double* dhrow = pdh + r * hidden;
    const double* grow = pgt + r * 4 * hidden;
    const double* tcrow = ptc + r * hidden;
    const double* crow = pc + r * hidden;
    double* orow = po + r * 4 * hidden;
    for (std::size_t j = 0; j < hidden; ++j) {
      const double iv = grow[j];
      const double fv = grow[hidden + j];
      const double gv = grow[2 * hidden + j];
      const double ov = grow[3 * hidden + j];
      const double tc = tcrow[j];
      const double dhv = dhrow[j];
      // The `0.0 +` adds are the tape's node-grad seeds (`grad += term`
      // onto a zero tensor): they flush -0.0 to +0.0 before the value is
      // multiplied downstream, which bit-identity requires.
      const double go = 0.0 + dhv * tc;            // h = mul(o, tanh_c)
      const double gtc = 0.0 + dhv * ov;
      const double gcn = 0.0 + gtc * (1.0 - tc * tc);  // tanh backward
      const double gi = 0.0 + gcn * gv;            // ig = mul(i, g)
      const double gg = 0.0 + gcn * iv;
      const double gf = 0.0 + gcn * crow[j];       // fc = mul(f, c_in)
      orow[j] = 0.0 + gi * iv * (1.0 - iv);        // sigmoid backwards
      orow[hidden + j] = 0.0 + gf * fv * (1.0 - fv);
      orow[2 * hidden + j] = 0.0 + gg * (1.0 - gv * gv);  // tanh backward
      orow[3 * hidden + j] = 0.0 + go * ov * (1.0 - ov);
    }
  }
}

}  // namespace tsc::nn
