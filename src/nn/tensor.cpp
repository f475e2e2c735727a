#include "src/nn/tensor.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace tsc::nn {

Tensor Tensor::zeros(std::size_t n) {
  Tensor t;
  t.shape_ = {n};
  t.data_.assign(n, 0.0);
  return t;
}

Tensor Tensor::zeros(std::size_t rows, std::size_t cols) {
  Tensor t;
  t.shape_ = {rows, cols};
  t.data_.assign(rows * cols, 0.0);
  return t;
}

Tensor Tensor::full(std::size_t rows, std::size_t cols, double value) {
  Tensor t = zeros(rows, cols);
  t.fill(value);
  return t;
}

Tensor Tensor::vector(std::vector<double> values) {
  Tensor t;
  t.shape_ = {values.size()};
  t.data_ = std::move(values);
  return t;
}

Tensor Tensor::matrix(std::size_t rows, std::size_t cols, std::vector<double> values) {
  assert(values.size() == rows * cols);
  Tensor t;
  t.shape_ = {rows, cols};
  t.data_ = std::move(values);
  return t;
}

Tensor Tensor::zeros_like(const Tensor& other) {
  Tensor t;
  t.shape_ = other.shape_;
  t.data_.assign(other.data_.size(), 0.0);
  return t;
}

void Tensor::fill(double value) {
  for (double& x : data_) x = value;
}

void Tensor::reshape(std::size_t rows, std::size_t cols) {
  shape_.assign({rows, cols});
  data_.resize(rows * cols);
}

Tensor& Tensor::operator+=(const Tensor& other) {
  assert(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& other) {
  assert(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(double scalar) {
  for (double& x : data_) x *= scalar;
  return *this;
}

double Tensor::sum() const {
  double s = 0.0;
  for (double x : data_) s += x;
  return s;
}

double Tensor::norm() const {
  double s = 0.0;
  for (double x : data_) s += x * x;
  return std::sqrt(s);
}

std::string Tensor::to_string() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << 'x';
    os << shape_[i];
  }
  os << "]{";
  const std::size_t show = data_.size() > 16 ? 16 : data_.size();
  for (std::size_t i = 0; i < show; ++i) {
    if (i) os << ", ";
    os << data_[i];
  }
  if (show < data_.size()) os << ", ...";
  os << '}';
  return os.str();
}

// The matmul kernels below are the RL stack's hottest code: every Linear/LSTM
// forward and both backward GEMMs of the fused PPO update land here, at
// sizes like [36,18]x[18,64] (rollout) and [128,256]x[256,64] (update).
// They share one contract: every output element is an ascending-p chain of
// separately rounded multiplies and adds, started from +0.0, and then
// either stored (the forward) or added to the output once (the backward,
// replaying the tape's `grad += matmul_nt(g, B)` / `grad += matmul_tn(A, g)`).
// Any tiling that keeps those per-element chains is bit-identical, so the
// forward, nt and tn all run the same tile body; they differ only in how A
// is addressed (see Operands) and in the epilogue. This translation unit
// builds with -ffp-contract=off, so no FMA contraction on any kernel.
//
// Zero-skip equivalence (for FINITE operands): the reference loop skips
// contributions where A(i,p) == 0.0, the vector tiles add them. Under
// round-to-nearest the only additive producer of -0.0 is (-0)+(-0), so a
// running sum seeded with +0.0 never becomes -0.0 — and adding a +-0.0
// product (A(i,p) == 0, B(p,j) finite) to a sum that is not -0.0 returns
// the sum unchanged. The same argument makes the skip invisible against
// matmul_nt (which never skips) and lets matmul_tn's skip be dropped. With
// a non-finite B (0 * inf = NaN) the paths could diverge, but network
// parameters and their gradients are finite in every run that trains.
// tests/test_inference.cpp (forward) and tests/test_backward_kernels.cpp
// (backward) pin all of it.

namespace {

// Operands of one product out [m,n] (+)= A [m,k] · B [k,n]. A is read
// through two strides, A(i,p) = a[i * a_row + p * a_col], so the same tile
// serves a row-major A (a_row = k, a_col = 1) and the transpose of a
// row-major X [k,m] (a_row = 1, a_col = m: for each p the tile's rows are
// contiguous). B and out are row-major.
struct Operands {
  double* out;
  const double* a;
  std::size_t a_row, a_col;
  const double* b;
  std::size_t k, n;
};

// kStore: out = chain (the forward). kAdd: out += chain (the backward).
enum class Epilogue { kStore, kAdd };

template <Epilogue E>
inline void finish(double& o, double chain) {
  if constexpr (E == Epilogue::kStore) {
    o = chain;
  } else {
    o += chain;
  }
}

// The reference loop over rows [i_begin, i_end) and columns [j_begin, n):
// register-blocked i-(j-block)-p with each output block accumulating in a
// fixed-size local array (mapped to vector registers), so the inner loop
// does one load per contribution instead of load+load+store, plus the
// zero-skip on A. matmul_into runs it over the whole product; the tiled
// kernel runs it over its ragged row and column tails.
template <Epilogue E>
void reference_block(const Operands& g, std::size_t i_begin, std::size_t i_end,
                     std::size_t j_begin) {
  const std::size_t n = g.n;
  constexpr std::size_t kBlock = 8;
  for (std::size_t i = i_begin; i < i_end; ++i) {
    const double* __restrict__ arow = g.a + i * g.a_row;
    double* __restrict__ orow = g.out + i * n;
    std::size_t j0 = j_begin;
    for (; j0 + kBlock <= n; j0 += kBlock) {
      double acc[kBlock] = {0.0};
      for (std::size_t p = 0; p < g.k; ++p) {
        const double aip = arow[p * g.a_col];
        // Skip zero multipliers: observations are padded/one-hot, so whole
        // rows of the input batch are sparse in practice.
        if (aip == 0.0) continue;
        const double* __restrict__ brow = g.b + p * n + j0;
        for (std::size_t jj = 0; jj < kBlock; ++jj) acc[jj] += aip * brow[jj];
      }
      for (std::size_t jj = 0; jj < kBlock; ++jj) finish<E>(orow[j0 + jj], acc[jj]);
    }
    for (; j0 < n; ++j0) {  // ragged tail (fewer than kBlock columns)
      double acc = 0.0;
      for (std::size_t p = 0; p < g.k; ++p) {
        const double aip = arow[p * g.a_col];
        if (aip == 0.0) continue;
        acc += aip * g.b[p * n + j0];
      }
      finish<E>(orow[j0], acc);
    }
  }
}

#if defined(__AVX512F__)

// Why tiles: the reference loop's single-row j-block gives each output row
// only ~2 vector accumulator chains, so on one hardware thread the add
// ports sit mostly idle. Blocking over ROWS as well (8 rows x 16 columns)
// creates 16 independent accumulator chains — measured ~3.4-3.9x on the
// rollout's [B,64]x[64,256] LSTM GEMMs at fleet batch sizes.
constexpr std::size_t kTileRows = 8;

// One 8-row x (8 * kVecs)-column tile: zmm accumulators, explicit mul then
// add (NO fused multiply-add — rounding must match the reference loop).
template <Epilogue E, std::size_t kVecs>
inline void tile(const Operands& g, std::size_t i0, std::size_t j0) {
  __m512d acc[kTileRows][kVecs];
  for (std::size_t r = 0; r < kTileRows; ++r)
    for (std::size_t v = 0; v < kVecs; ++v) acc[r][v] = _mm512_setzero_pd();
  const double* __restrict__ a0 = g.a + i0 * g.a_row;
  for (std::size_t p = 0; p < g.k; ++p) {
    const double* __restrict__ brow = g.b + p * g.n + j0;
    __m512d bv[kVecs];
    for (std::size_t v = 0; v < kVecs; ++v) bv[v] = _mm512_loadu_pd(brow + 8 * v);
    const double* __restrict__ ap = a0 + p * g.a_col;
    for (std::size_t r = 0; r < kTileRows; ++r) {
      const __m512d av = _mm512_set1_pd(ap[r * g.a_row]);
      for (std::size_t v = 0; v < kVecs; ++v)
        acc[r][v] = _mm512_add_pd(acc[r][v], _mm512_mul_pd(av, bv[v]));
    }
  }
  for (std::size_t r = 0; r < kTileRows; ++r) {
    double* __restrict__ orow = g.out + (i0 + r) * g.n + j0;
    for (std::size_t v = 0; v < kVecs; ++v) {
      if constexpr (E == Epilogue::kStore) {
        _mm512_storeu_pd(orow + 8 * v, acc[r][v]);
      } else {
        _mm512_storeu_pd(orow + 8 * v,
                         _mm512_add_pd(_mm512_loadu_pd(orow + 8 * v), acc[r][v]));
      }
    }
  }
}

// 8x16 tiles (two column vectors per row — better load/ALU overlap than
// 8x8 when n allows it), then 8x8, then the reference loop on the tails.
template <Epilogue E>
void tiled(const Operands& g, std::size_t m) {
  std::size_t i0 = 0;
  for (; i0 + kTileRows <= m; i0 += kTileRows) {
    std::size_t j0 = 0;
    for (; j0 + 16 <= g.n; j0 += 16) tile<E, 2>(g, i0, j0);
    for (; j0 + 8 <= g.n; j0 += 8) tile<E, 1>(g, i0, j0);
    if (j0 < g.n) reference_block<E>(g, i0, i0 + kTileRows, j0);
  }
  if (i0 < m) reference_block<E>(g, i0, m, 0);
}

#else  // !__AVX512F__

// Portable fallback: 4-row x 8-column blocking with the reference loop's
// zero-skip kept per row. Same ascending-p per-element chains, so
// bit-identical to the reference loop without needing the +-0.0 argument.
constexpr std::size_t kTileRows = 4;

template <Epilogue E>
void tiled(const Operands& g, std::size_t m) {
  constexpr std::size_t kBlock = 8;
  const std::size_t n = g.n;
  std::size_t i0 = 0;
  for (; i0 + kTileRows <= m; i0 += kTileRows) {
    const double* __restrict__ a0 = g.a + i0 * g.a_row;
    std::size_t j0 = 0;
    for (; j0 + kBlock <= n; j0 += kBlock) {
      double c[kTileRows][kBlock] = {};
      for (std::size_t p = 0; p < g.k; ++p) {
        const double* __restrict__ brow = g.b + p * n + j0;
        const double* __restrict__ ap = a0 + p * g.a_col;
        for (std::size_t r = 0; r < kTileRows; ++r) {
          const double v = ap[r * g.a_row];
          if (v == 0.0) continue;
          for (std::size_t jj = 0; jj < kBlock; ++jj) c[r][jj] += v * brow[jj];
        }
      }
      for (std::size_t r = 0; r < kTileRows; ++r) {
        double* __restrict__ orow = g.out + (i0 + r) * n + j0;
        for (std::size_t jj = 0; jj < kBlock; ++jj) finish<E>(orow[jj], c[r][jj]);
      }
    }
    if (j0 < n) reference_block<E>(g, i0, i0 + kTileRows, j0);
  }
  if (i0 < m) reference_block<E>(g, i0, m, 0);
}

#endif  // __AVX512F__

}  // namespace

void matmul_into(Tensor& out, const Tensor& a, const Tensor& b) {
  assert(a.rank() == 2 && b.rank() == 2);
  assert(&out != &a && &out != &b);
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  assert(b.rows() == k);
  out.reshape(m, n);
  reference_block<Epilogue::kStore>({out.data(), a.data(), k, 1, b.data(), k, n},
                                    0, m, 0);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor out;
  matmul_into(out, a, b);
  return out;
}

void matmul_rows_into(double* out, const double* a, const double* b,
                      std::size_t m, std::size_t k, std::size_t n) {
  reference_block<Epilogue::kStore>({out, a, k, 1, b, k, n}, 0, m, 0);
}

void matmul_into_batched(Tensor& out, const Tensor& a, const Tensor& b) {
  out.reshape(a.rows(), b.cols());
  matmul_into_batched(out, a, b, {0, a.rows()});
}

void matmul_into_batched(Tensor& out, const Tensor& a, const Tensor& b,
                         IndexRange rows) {
  assert(a.rank() == 2 && b.rank() == 2);
  assert(&out != &a && &out != &b);
  const std::size_t k = a.cols(), n = b.cols();
  assert(b.rows() == k && out.rows() == a.rows() && out.cols() == n);
  assert(rows.begin <= rows.end && rows.end <= a.rows());
  tiled<Epilogue::kStore>({out.data() + rows.begin * n,
                           a.data() + rows.begin * k, k, 1, b.data(), k, n},
                          rows.end - rows.begin);
}

void matmul_acc_strided(double* out, const double* a, std::size_t a_row,
                        std::size_t a_col, const double* b, std::size_t m,
                        std::size_t k, std::size_t n) {
  tiled<Epilogue::kAdd>({out, a, a_row, a_col, b, k, n}, m);
}

IndexRange tile_rows(std::size_t m, std::size_t part, std::size_t parts) {
  constexpr std::size_t kSplitRows = 8;
  static_assert(kSplitRows % kTileRows == 0);
  const std::size_t blocks = (m + kSplitRows - 1) / kSplitRows;
  const std::size_t lo = blocks * part / parts;
  const std::size_t hi = blocks * (part + 1) / parts;
  return {std::min(m, lo * kSplitRows), std::min(m, hi * kSplitRows)};
}

IndexRange even_range(std::size_t n, std::size_t part, std::size_t parts) {
  return {n * part / parts, n * (part + 1) / parts};
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  assert(a.rank() == 2 && b.rank() == 2);
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  assert(b.cols() == k);
  Tensor out = Tensor::zeros(m, n);
  const double* pa = a.data();
  const double* pb = b.data();
  double* po = out.data();
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = pa + i * k;
    double* orow = po + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const double* brow = pb + j * k;
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) s += arow[p] * brow[p];
      orow[j] = s;
    }
  }
  return out;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  assert(a.rank() == 2 && b.rank() == 2);
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  assert(b.rows() == k);
  Tensor out = Tensor::zeros(m, n);
  const double* pa = a.data();
  const double* pb = b.data();
  double* po = out.data();
  for (std::size_t p = 0; p < k; ++p) {
    const double* arow = pa + p * m;
    const double* brow = pb + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const double api = arow[i];
      if (api == 0.0) continue;
      double* orow = po + i * n;
      for (std::size_t j = 0; j < n; ++j) orow[j] += api * brow[j];
    }
  }
  return out;
}

}  // namespace tsc::nn
