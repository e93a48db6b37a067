#pragma once
// Sparse stationary-solve kernels (paper §2.2).
//
// Queueing-network generator matrices are overwhelmingly sparse — a
// birth-death chain has O(n) nonzeros in an n x n matrix, and even the
// Jackson-network product-form chains touch only a handful of neighbors per
// state.  Dtmc/Ctmc store only their nonzeros (SparseRows), and these CSR
// kernels are the iterative engine behind Dtmc::steady_state: O(nnz) per
// sweep, SIMD-vectorized through exec::simd (fixed 8-lane reduction order,
// bitwise identical across HOLMS_SIMD=off/avx2/neon — see exec/simd.hpp).
// The entry points are public for tests and benchmarks.

#include <cstdint>
#include <span>
#include <vector>

#include "exec/aligned.hpp"
#include "markov/chain.hpp"

namespace holms::markov {

/// Compressed-sparse-row matrix over double.  Entries within a row are stored
/// in increasing column order, so every per-row reduction sums in the order
/// a dense row-major scan would.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Copies a row store in O(nnz); SparseRows holds no zeros, so neither
  /// does the result.
  static CsrMatrix from_rows(const SparseRows& a);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return vals_.size(); }

  std::span<const std::uint32_t> row_cols(std::size_t r) const {
    return {cols_idx_.data() + offsets_[r], cols_idx_.data() + offsets_[r + 1]};
  }
  std::span<const double> row_vals(std::size_t r) const {
    return {vals_.data() + offsets_[r], vals_.data() + offsets_[r + 1]};
  }

  /// Transpose (i.e. the CSC view of this matrix, materialized as CSR).
  /// Entries within each transposed row again end up in increasing column
  /// order — counting placement preserves the scan order.
  CsrMatrix transposed() const;

  /// Raw views for the exec::simd kernels (spmv_cols / gs_cols).
  const std::size_t* offsets_data() const { return offsets_.data(); }
  const std::uint32_t* cols_data() const { return cols_idx_.data(); }
  const double* vals_data() const { return vals_.data(); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  // Hot arrays are 64-byte aligned so the SIMD pack loads never straddle a
  // cache line (exec/aligned.hpp).
  exec::aligned_vector<std::size_t> offsets_;     // rows_ + 1
  exec::aligned_vector<std::uint32_t> cols_idx_;  // column of each entry
  exec::aligned_vector<double> vals_;
};

/// Power iteration pi <- pi P on a row-stochastic CSR matrix, gather form:
/// next[c] = sum_r pi[r] * P[r, c] over the transpose, each column an
/// exec::simd 8-lane reduction in ascending source-row order, so the ISA
/// never changes a bit.
SolveResult sparse_power_iteration(const CsrMatrix& p,
                                   const SolveOptions& opts);

/// Gauss–Seidel on pi = pi P, sweeping columns in place (needs the transpose;
/// built internally once).  Each sweep is one full-range exec::simd gs_cols
/// call: serial Gauss–Seidel with 8-lane segment reductions.
SolveResult sparse_gauss_seidel(const CsrMatrix& p, const SolveOptions& opts);

}  // namespace holms::markov
