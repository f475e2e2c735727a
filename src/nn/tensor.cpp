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

// The three matmul variants below are the RL stack's hottest kernels
// (every Linear/LSTM forward and backward lands here at sizes like
// [36,18]x[18,64]). They all run loop order i-k-j (unit-stride inner loop,
// accumulation into one hoisted output row) with row pointers hoisted out
// of the inner loops so the optimizer sees plain pointer arithmetic instead
// of repeated at() index math.

namespace {

// The reference row loop shared by matmul_into (all rows) and
// matmul_into_batched (row/column tails), on raw row-major pointers:
// register-blocked i-(j-block)-p with each output block accumulating in a
// fixed-size local array (mapped to vector registers), so the inner loop
// does one load per contribution instead of load+load+store. Every
// out[i][j] receives its contributions in ascending-p order with separate
// mul/add rounding and the zero-skip, bit-identical to the straight i-k-j
// loop this replaced (the golden tests pin that).
void reference_rows(double* __restrict__ po, const double* __restrict__ pa,
                    const double* __restrict__ pb, std::size_t m,
                    std::size_t k, std::size_t n) {
  constexpr std::size_t kBlock = 8;
  for (std::size_t i = 0; i < m; ++i) {
    const double* __restrict__ arow = pa + i * k;
    double* __restrict__ orow = po + i * n;
    std::size_t j0 = 0;
    for (; j0 + kBlock <= n; j0 += kBlock) {
      double acc[kBlock] = {0.0};
      for (std::size_t p = 0; p < k; ++p) {
        const double aip = arow[p];
        // Skip zero multipliers: observations are padded/one-hot, so whole
        // rows of the input batch are sparse in practice.
        if (aip == 0.0) continue;
        const double* __restrict__ brow = pb + p * n + j0;
        for (std::size_t jj = 0; jj < kBlock; ++jj) acc[jj] += aip * brow[jj];
      }
      for (std::size_t jj = 0; jj < kBlock; ++jj) orow[j0 + jj] = acc[jj];
    }
    for (; j0 < n; ++j0) {  // ragged tail (n not a multiple of kBlock)
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const double aip = arow[p];
        if (aip == 0.0) continue;
        acc += aip * pb[p * n + j0];
      }
      orow[j0] = acc;
    }
  }
}

}  // namespace

void matmul_into(Tensor& out, const Tensor& a, const Tensor& b) {
  assert(a.rank() == 2 && b.rank() == 2);
  assert(&out != &a && &out != &b);
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  assert(b.rows() == k);
  out.reshape(m, n);
  reference_rows(out.data(), a.data(), b.data(), m, k, n);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor out;
  matmul_into(out, a, b);
  return out;
}

void matmul_rows_into(double* out, const double* a, const double* b,
                      std::size_t m, std::size_t k, std::size_t n) {
  reference_rows(out, a, b, m, k, n);
}

// matmul_into_batched: the fleet-batched GEMM.
//
// Why a second kernel: matmul_into's single-row j-block gives each output
// row only ~2 vector accumulator chains, so on one hardware thread the FMA
// ports sit mostly idle. Blocking over ROWS as well (8 rows x 16 cols below)
// creates enough independent accumulator chains to approach port saturation
// — measured ~3.4-3.9x on the rollout path's dominant [B,64]x[64,256] LSTM
// GEMMs once B reaches fleet sizes (num_envs * num_agents rows).
//
// Bit-identity argument (vs matmul_into, for FINITE a and b):
//  * Every out[i][j] accumulates its k contributions in ascending-p order
//    with separate mul/add rounding, exactly like matmul_into (both kernels
//    build with -ffp-contract=off, so the compiler cannot fuse them).
//  * matmul_into additionally SKIPS contributions where a[i][p] == 0.0;
//    this kernel adds them. The two are bitwise equivalent: under
//    round-to-nearest the only additive producer of -0.0 is (-0)+(-0), so a
//    running sum seeded with +0.0 can never become -0.0 — and adding a
//    +-0.0 product (a[i][p] == 0, b finite) to a sum that is not -0.0
//    returns the sum unchanged. With a non-finite b (0 * inf = NaN) the
//    paths could diverge, but network parameters are finite by
//    construction. tests/test_inference.cpp pins the equivalence.
//  * Row blocks below 8 and ragged columns delegate to matmul_into's exact
//    loops (skip included), which are bit-identical per the above.

#if defined(__AVX512F__)

namespace {

// One 8-row x 8-column tile: zmm accumulators, explicit mul then add (NO
// fused multiply-add — rounding must match the scalar kernel).
inline void fleet_tile_8x8(double* __restrict__ po, const double* __restrict__ pa,
                           const double* __restrict__ pb, std::size_t i0,
                           std::size_t j0, std::size_t k, std::size_t n) {
  __m512d acc[8];
  for (std::size_t r = 0; r < 8; ++r) acc[r] = _mm512_setzero_pd();
  for (std::size_t p = 0; p < k; ++p) {
    const __m512d brow = _mm512_loadu_pd(pb + p * n + j0);
    for (std::size_t r = 0; r < 8; ++r) {
      const __m512d av = _mm512_set1_pd(pa[(i0 + r) * k + p]);
      acc[r] = _mm512_add_pd(acc[r], _mm512_mul_pd(av, brow));
    }
  }
  for (std::size_t r = 0; r < 8; ++r)
    _mm512_storeu_pd(po + (i0 + r) * n + j0, acc[r]);
}

// One 8-row x 16-column tile (two column vectors per row — better load/ALU
// overlap than 8x8 when n allows it).
inline void fleet_tile_8x16(double* __restrict__ po, const double* __restrict__ pa,
                            const double* __restrict__ pb, std::size_t i0,
                            std::size_t j0, std::size_t k, std::size_t n) {
  __m512d acc[8][2];
  for (std::size_t r = 0; r < 8; ++r) {
    acc[r][0] = _mm512_setzero_pd();
    acc[r][1] = _mm512_setzero_pd();
  }
  for (std::size_t p = 0; p < k; ++p) {
    const __m512d b0 = _mm512_loadu_pd(pb + p * n + j0);
    const __m512d b1 = _mm512_loadu_pd(pb + p * n + j0 + 8);
    for (std::size_t r = 0; r < 8; ++r) {
      const __m512d av = _mm512_set1_pd(pa[(i0 + r) * k + p]);
      acc[r][0] = _mm512_add_pd(acc[r][0], _mm512_mul_pd(av, b0));
      acc[r][1] = _mm512_add_pd(acc[r][1], _mm512_mul_pd(av, b1));
    }
  }
  for (std::size_t r = 0; r < 8; ++r) {
    _mm512_storeu_pd(po + (i0 + r) * n + j0, acc[r][0]);
    _mm512_storeu_pd(po + (i0 + r) * n + j0 + 8, acc[r][1]);
  }
}

}  // namespace

void matmul_into_batched(Tensor& out, const Tensor& a, const Tensor& b) {
  assert(a.rank() == 2 && b.rank() == 2);
  assert(&out != &a && &out != &b);
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  assert(b.rows() == k);
  out.reshape(m, n);
  const double* __restrict__ pa = a.data();
  const double* __restrict__ pb = b.data();
  double* __restrict__ po = out.data();
  std::size_t i0 = 0;
  for (; i0 + 8 <= m; i0 += 8) {
    std::size_t j0 = 0;
    for (; j0 + 16 <= n; j0 += 16) fleet_tile_8x16(po, pa, pb, i0, j0, k, n);
    for (; j0 + 8 <= n; j0 += 8) fleet_tile_8x8(po, pa, pb, i0, j0, k, n);
    for (; j0 < n; ++j0) {  // ragged column tail: matmul_into's exact loop
      for (std::size_t r = 0; r < 8; ++r) {
        const double* __restrict__ arow = pa + (i0 + r) * k;
        double acc = 0.0;
        for (std::size_t p = 0; p < k; ++p) {
          const double aip = arow[p];
          if (aip == 0.0) continue;
          acc += aip * pb[p * n + j0];
        }
        po[(i0 + r) * n + j0] = acc;
      }
    }
  }
  if (i0 < m)  // row tail (< 8 rows): the reference kernel, no allocation
    reference_rows(po + i0 * n, pa + i0 * k, pb, m - i0, k, n);
}

#else  // !__AVX512F__

void matmul_into_batched(Tensor& out, const Tensor& a, const Tensor& b) {
  // Portable fallback: 4-row x 8-column blocking with the reference
  // kernel's zero-skip kept per row. Same ascending-p per-element order, so
  // bit-identical to matmul_into without needing the +-0.0 argument above.
  assert(a.rank() == 2 && b.rank() == 2);
  assert(&out != &a && &out != &b);
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  assert(b.rows() == k);
  out.reshape(m, n);
  const double* __restrict__ pa = a.data();
  const double* __restrict__ pb = b.data();
  double* __restrict__ po = out.data();
  constexpr std::size_t kBlock = 8;
  std::size_t i0 = 0;
  for (; i0 + 4 <= m; i0 += 4) {
    const double* __restrict__ a0 = pa + (i0 + 0) * k;
    const double* __restrict__ a1 = pa + (i0 + 1) * k;
    const double* __restrict__ a2 = pa + (i0 + 2) * k;
    const double* __restrict__ a3 = pa + (i0 + 3) * k;
    std::size_t j0 = 0;
    for (; j0 + kBlock <= n; j0 += kBlock) {
      double c0[kBlock] = {0.0}, c1[kBlock] = {0.0};
      double c2[kBlock] = {0.0}, c3[kBlock] = {0.0};
      for (std::size_t p = 0; p < k; ++p) {
        const double* __restrict__ brow = pb + p * n + j0;
        const double v0 = a0[p], v1 = a1[p], v2 = a2[p], v3 = a3[p];
        if (v0 != 0.0) for (std::size_t jj = 0; jj < kBlock; ++jj) c0[jj] += v0 * brow[jj];
        if (v1 != 0.0) for (std::size_t jj = 0; jj < kBlock; ++jj) c1[jj] += v1 * brow[jj];
        if (v2 != 0.0) for (std::size_t jj = 0; jj < kBlock; ++jj) c2[jj] += v2 * brow[jj];
        if (v3 != 0.0) for (std::size_t jj = 0; jj < kBlock; ++jj) c3[jj] += v3 * brow[jj];
      }
      for (std::size_t jj = 0; jj < kBlock; ++jj) po[(i0 + 0) * n + j0 + jj] = c0[jj];
      for (std::size_t jj = 0; jj < kBlock; ++jj) po[(i0 + 1) * n + j0 + jj] = c1[jj];
      for (std::size_t jj = 0; jj < kBlock; ++jj) po[(i0 + 2) * n + j0 + jj] = c2[jj];
      for (std::size_t jj = 0; jj < kBlock; ++jj) po[(i0 + 3) * n + j0 + jj] = c3[jj];
    }
    for (; j0 < n; ++j0) {
      for (std::size_t r = 0; r < 4; ++r) {
        const double* __restrict__ arow = pa + (i0 + r) * k;
        double acc = 0.0;
        for (std::size_t p = 0; p < k; ++p) {
          const double aip = arow[p];
          if (aip == 0.0) continue;
          acc += aip * pb[p * n + j0];
        }
        po[(i0 + r) * n + j0] = acc;
      }
    }
  }
  if (i0 < m)  // row tail (< 4 rows): the reference kernel, no allocation
    reference_rows(po + i0 * n, pa + i0 * k, pb, m - i0, k, n);
}

#endif  // __AVX512F__

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
