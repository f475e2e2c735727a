// Dense row-major tensor of doubles. Supports rank 1 and rank 2 (the only
// shapes the RL stack needs); rank-2 tensors are [rows, cols].
//
// Splitting a GEMM across threads. Every product kernel below computes each
// output element as one ascending-k chain, so any partition of the OUTPUT
// is bit-identical to the whole call: the PPO update's thread team runs the
// forward GEMMs and dX = dY·W^T by row blocks of the output, and
// dW = X^T·dY by rows of dW (matmul_acc_strided on offset pointers), never
// by batch rows (that would split dW's chains). tile_rows() cuts the row
// blocks on 8-row boundaries, so every row also lands in the same register
// tile or ragged-tail block as in the unsplit call.
#pragma once

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace tsc::nn {

class Tensor {
 public:
  Tensor() = default;

  /// Rank-1 tensor of `n` zeros.
  static Tensor zeros(std::size_t n);
  /// Rank-2 tensor of zeros.
  static Tensor zeros(std::size_t rows, std::size_t cols);
  static Tensor full(std::size_t rows, std::size_t cols, double value);
  /// Rank-1 from values.
  static Tensor vector(std::vector<double> values);
  /// Rank-2 from row-major values. Requires values.size() == rows*cols.
  static Tensor matrix(std::size_t rows, std::size_t cols, std::vector<double> values);
  /// Zeros with the same shape as `other`.
  static Tensor zeros_like(const Tensor& other);

  std::size_t rank() const { return shape_.size(); }
  const std::vector<std::size_t>& shape() const { return shape_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Rows of a rank-2 tensor; a rank-1 tensor is treated as a single row.
  /// Defined inline: rows()/cols()/at() sit inside the hot element loops of
  /// the workspace forwards and must not cost an out-of-line call each.
  std::size_t rows() const {
    if (shape_.size() == 2) return shape_[0];
    return shape_.empty() ? 0 : 1;
  }
  /// Cols of a rank-2 tensor; the length of a rank-1 tensor.
  std::size_t cols() const {
    if (shape_.size() == 2) return shape_[1];
    return shape_.empty() ? 0 : shape_[0];
  }

  double& operator[](std::size_t i) { return data_[i]; }
  double operator[](std::size_t i) const { return data_[i]; }
  double& at(std::size_t r, std::size_t c) {
    assert(r < rows() && c < cols());
    return data_[r * cols() + c];
  }
  double at(std::size_t r, std::size_t c) const {
    assert(r < rows() && c < cols());
    return data_[r * cols() + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  std::vector<double>& values() { return data_; }
  const std::vector<double>& values() const { return data_; }

  void fill(double value);
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  /// Re-shapes this tensor to rank-2 [rows, cols], reusing the existing
  /// backing storage where capacity allows. Contents are unspecified after
  /// the call (callers overwrite every element). Never shrinks capacity, so
  /// a buffer cycled through its peak shapes stops allocating.
  void reshape(std::size_t rows, std::size_t cols);

  /// Element-wise in-place ops (shapes must match exactly).
  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(double scalar);

  /// Sum of all elements.
  double sum() const;
  /// L2 norm of all elements.
  double norm() const;

  /// "[2x3]{1, 2, 3, ...}" — for test failure messages.
  std::string to_string() const;

 private:
  std::vector<std::size_t> shape_;
  std::vector<double> data_;
};

/// A half-open index range [begin, end).
struct IndexRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// The rows of an m-row product that part `part` of `parts` computes:
/// contiguous runs of whole 8-row blocks (the AVX-512 tile height, a
/// multiple of the portable tile's), balanced to within one block, with the
/// ragged tail in the last part that has rows. Parts past the blocks are
/// empty.
IndexRange tile_rows(std::size_t m, std::size_t part, std::size_t parts);

/// Balanced contiguous ranges of n items (element-wise work, bias columns).
IndexRange even_range(std::size_t n, std::size_t part, std::size_t parts);

/// out = a @ b for rank-2 a [m,k] and b [k,n]. Asserts on shape mismatch.
Tensor matmul(const Tensor& a, const Tensor& b);
/// matmul into a preallocated output (reshaped to [m,n]; must not alias a
/// or b). Runs the exact same loop as matmul(), so results are bit-identical
/// to the allocating form the tape runs.
void matmul_into(Tensor& out, const Tensor& a, const Tensor& b);
/// Same contract and (for finite inputs) bit-identical results as
/// matmul_into, tuned for tall batches; every layer's workspace forward runs
/// it at the reference tier. 8-row x 16-column register tiles (4 x 8 in the
/// portable build; fewer rows than that run matmul_into's loop) turn the ~2
/// accumulator dependency chains per output row of matmul_into into many
/// independent ones, which is where the single-thread GEMM throughput
/// headroom lives. Each out[i][j] still
/// receives its contributions in ascending-p order with separate mul/add
/// rounding (this translation unit builds with -ffp-contract=off, so no FMA
/// contraction on either kernel). See the implementation for the zero-skip
/// equivalence argument.
void matmul_into_batched(Tensor& out, const Tensor& a, const Tensor& b);
/// Rows [rows.begin, rows.end) of matmul_into_batched, into an `out`
/// already shaped [m,n]; with tile_rows() ranges, bit-identical to the
/// whole call row for row.
void matmul_into_batched(Tensor& out, const Tensor& a, const Tensor& b,
                         IndexRange rows);
/// out [m,n] += A [m,k] @ b [k,n] on matmul_into_batched's tiles, with the
/// add epilogue: each out[i][j] gets one ascending-p chain started from
/// +0.0, added once — the value `out += matmul(A, b)` would add. A is read
/// through strides, A(i,p) = a[i * a_row + p * a_col]: (k, 1) for a
/// row-major A, (1, m) for the transpose of a row-major [k,m] matrix. b and
/// out are row-major; out must not overlap a or b. The backward kernels in
/// nn/backward.hpp run both of their GEMMs through it; rows [i0, i1) of the
/// product are the call at m = i1 - i0 on out + i0*n and a + i0*a_row.
void matmul_acc_strided(double* out, const double* a, std::size_t a_row,
                        std::size_t a_col, const double* b, std::size_t m,
                        std::size_t k, std::size_t n);
/// matmul_into's reference row loop on raw row-major pointers:
/// out [m,n] = a [m,k] @ b [k,n], same blocking / rounding / zero-skip.
/// Exists so block-batched layers (nn/gat.hpp) can run per-block products on
/// slices of a stacked workspace tensor — bit-identical to calling
/// matmul_into on each block copied into its own tensor, without the copies.
void matmul_rows_into(double* out, const double* a, const double* b,
                      std::size_t m, std::size_t k, std::size_t n);
/// out = a @ b^T for rank-2 a [m,k], b [n,k].
Tensor matmul_nt(const Tensor& a, const Tensor& b);
/// out = a^T @ b for rank-2 a [k,m], b [k,n].
Tensor matmul_tn(const Tensor& a, const Tensor& b);

}  // namespace tsc::nn
