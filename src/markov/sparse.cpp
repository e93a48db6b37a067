#include "markov/sparse.hpp"

#include "exec/error.hpp"
#include "exec/simd.hpp"

namespace holms::markov {
namespace {

// Both helpers run on the exec::simd kernels, so every solver reduction in
// this TU follows the canonical 8-lane order (exec/simd.hpp) no matter which
// ISA executes it.
void normalize(std::vector<double>& v) {
  const auto& k = exec::simd::kernels();
  const double sum = k.sum(v.data(), v.size());
  if (sum <= 0.0) throw holms::RuntimeError("distribution has zero mass");
  k.div_all(v.data(), v.size(), sum);
}

double l1_delta(std::span<const double> a, std::span<const double> b) {
  return exec::simd::kernels().sum_abs_diff(a.data(), b.data(), a.size());
}

// The iterative solvers' shared loop from the uniform start: sweep(pi, next)
// computes the next iterate, which is kept until the L1 change per sweep
// drops below the tolerance.
template <typename Sweep>
SolveResult iterate(std::size_t n, const SolveOptions& opts, Sweep sweep) {
  SolveResult res;
  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n, 0.0);
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    sweep(pi, next);
    const double delta = l1_delta(pi, next);
    pi.swap(next);
    res.iterations = it + 1;
    if (delta < opts.tolerance) {
      res.converged = true;
      break;
    }
  }
  normalize(pi);
  res.distribution = std::move(pi);
  return res;
}

}  // namespace

CsrMatrix CsrMatrix::from_rows(const SparseRows& a) {
  CsrMatrix m;
  m.rows_ = a.size();
  m.cols_ = a.size();
  const std::size_t nnz = a.nnz();
  m.offsets_.reserve(m.rows_ + 1);
  m.offsets_.push_back(0);
  m.cols_idx_.reserve(nnz);
  m.vals_.reserve(nnz);
  for (std::size_t r = 0; r < m.rows_; ++r) {
    for (const SparseEntry& e : a.row(r)) {
      m.cols_idx_.push_back(e.col);
      m.vals_.push_back(e.value);
    }
    m.offsets_.push_back(m.vals_.size());
  }
  return m;
}

CsrMatrix CsrMatrix::transposed() const {
  CsrMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  // Counting sort by column: offsets first, then stable placement.  Scanning
  // source rows in order makes each transposed row's entries arrive in
  // increasing (source-row = transposed-column) order — the strictly
  // ascending source order the simd kernels' gather run-detection relies on.
  t.offsets_.assign(cols_ + 1, 0);
  for (const std::uint32_t c : cols_idx_) ++t.offsets_[c + 1];
  for (std::size_t i = 0; i < cols_; ++i) t.offsets_[i + 1] += t.offsets_[i];
  t.cols_idx_.resize(nnz());
  t.vals_.resize(nnz());
  std::vector<std::size_t> fill(t.offsets_.begin(), t.offsets_.end() - 1);
  for (std::size_t r = 0; r < rows_; ++r) {
    const auto cols = row_cols(r);
    const auto vals = row_vals(r);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      const std::size_t slot = fill[cols[i]]++;
      t.cols_idx_[slot] = static_cast<std::uint32_t>(r);
      t.vals_[slot] = vals[i];
    }
  }
  return t;
}

SolveResult sparse_power_iteration(const CsrMatrix& p,
                                   const SolveOptions& opts) {
  const std::size_t n = p.rows();
  if (n == 0) return {};
  // Gather form on the transpose: next[c] = sum_r pi[r] * P[r, c], one
  // exec::simd 8-lane reduction per column in ascending source-row order —
  // the iterate sequence is a function of the problem alone, bitwise
  // invariant to the ISA.
  const auto& k = exec::simd::kernels();
  const CsrMatrix pt = p.transposed();
  return iterate(n, opts, [&](auto& pi, auto& next) {
    k.spmv_cols(pt.offsets_data(), pt.cols_data(), pt.vals_data(), pi.data(),
                next.data(), 0, n);
  });
}

SolveResult sparse_gauss_seidel(const CsrMatrix& p, const SolveOptions& opts) {
  const std::size_t n = p.rows();
  if (n == 0) return {};
  // Column sweeps need column access: work on the transpose, with the
  // diagonal split out (the sweep skips r == c and divides by 1 - p_cc).
  const CsrMatrix pt = p.transposed();
  exec::aligned_vector<double> diag(n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    const auto cols = p.row_cols(r);
    const auto vals = p.row_vals(r);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] == r) diag[r] = vals[i];
    }
  }
  // Serial Gauss–Seidel: `next` starts as a copy of pi and each column,
  // updated in ascending order, reads the already-updated values below it
  // and the prior-sweep values above it.
  const auto& k = exec::simd::kernels();
  return iterate(n, opts, [&](auto& pi, auto& next) {
    next = pi;
    k.gs_cols(pt.offsets_data(), pt.cols_data(), pt.vals_data(), diag.data(),
              pi.data(), next.data(), 0, n);
    normalize(next);
  });
}

}  // namespace holms::markov
