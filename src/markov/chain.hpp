#pragma once
// Markov-chain analysis engine (paper §2.2).
//
// "The objective of any analysis technique is the computation of the
//  stationary probability distribution for a distributed system consisting of
//  several processes that operate and interact concurrently."  [7]
//
// HolMS provides discrete-time (DTMC) and continuous-time (CTMC) chains with
// a structure-aware default solver and three explicit ones, so the solver
// itself can be ablated (DESIGN.md §6):
//   - auto (default)        a birth–death chain gets its exact product form
//                           in O(n); any other chain gets power iteration
//   - power iteration       robust, O(iters * nnz)
//   - Gauss–Seidel          faster convergence on diagonally dominant systems
//   - direct LU             exact (up to fp), O(n^3), small chains
//
// Once the stationary distribution is known, "different performance measures
// such as throughput, response time, power consumption, etc. can be easily
// derived" — see `expected_reward`.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "exec/error.hpp"

namespace holms::markov {

/// Dense row-major matrix: working storage of the direct solvers (kDirectLU,
/// absorbing_analysis) and the shape of absorption-probability results.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// One stored entry of a SparseRows row.
struct SparseEntry {
  std::uint32_t col = 0;
  double value = 0.0;
};

/// Square sparse matrix kept row by row, each row sorted by ascending column:
/// the storage behind Dtmc and Ctmc.  Only nonzeros are stored — set()
/// overwrites an existing entry (last write wins) and setting 0 removes it;
/// get() reads an absent entry as 0.  Walking a row visits its nonzeros in
/// the order a dense row-major scan would, so row sums keep their bits.
class SparseRows {
 public:
  explicit SparseRows(std::size_t n) : rows_(n) {}

  std::size_t size() const { return rows_.size(); }
  void set(std::size_t r, std::size_t c, double v);
  double get(std::size_t r, std::size_t c) const;
  std::span<const SparseEntry> row(std::size_t r) const { return rows_[r]; }
  std::size_t nnz() const;

 private:
  std::vector<std::vector<SparseEntry>> rows_;
};

/// kAuto solves a chain that one O(nnz) scan finds birth–death by its product
/// form (birth_death_steady_state, iterations = 0), and any other chain by
/// kPowerIteration, bit for bit.  The explicit methods never scan.
enum class SteadyStateMethod { kPowerIteration, kGaussSeidel, kDirectLU, kAuto };

struct SolveOptions {
  SteadyStateMethod method = SteadyStateMethod::kAuto;
  std::size_t max_iterations = 200000;
  double tolerance = 1e-12;  // L1 change per sweep

  /// Rejects nonsensical solver settings; called by the steady_state /
  /// transient entry points (contract rule C001, DESIGN.md §5f).
  void validate() const {
    if (max_iterations == 0) {
      throw holms::InvalidArgument("SolveOptions: max_iterations must be >= 1");
    }
    if (!(tolerance > 0.0)) {
      throw holms::InvalidArgument("SolveOptions: tolerance must be > 0");
    }
  }
};

struct SolveResult {
  std::vector<double> distribution;  // stationary probabilities, sums to 1
  std::size_t iterations = 0;        // 0 for direct methods
  bool converged = false;
};

/// Discrete-time Markov chain over states 0..n-1 with row-stochastic
/// transition matrix P, stored sparse (O(nnz) memory and per-sweep work).
class Dtmc {
 public:
  explicit Dtmc(std::size_t n) : p_(n) {}

  std::size_t size() const { return p_.size(); }
  void set(std::size_t from, std::size_t to, double prob);
  double get(std::size_t from, std::size_t to) const { return p_.get(from, to); }

  /// Validates that every row sums to 1 within `tol`.
  bool is_stochastic(double tol = 1e-9) const;

  /// Stationary distribution pi = pi * P.
  SolveResult steady_state(const SolveOptions& opts = {}) const;

  /// n-step transient distribution starting from `initial`.
  std::vector<double> transient(std::span<const double> initial,
                                std::size_t steps) const;

 private:
  SparseRows p_;
};

/// Continuous-time Markov chain with generator matrix Q (off-diagonal rates;
/// diagonal maintained automatically as -(row sum)), stored sparse.
class Ctmc {
 public:
  explicit Ctmc(std::size_t n) : q_(n) {}

  std::size_t size() const { return q_.size(); }
  /// Sets the transition rate from -> to (from != to, rate >= 0).
  void set_rate(std::size_t from, std::size_t to, double rate);
  double rate(std::size_t from, std::size_t to) const { return q_.get(from, to); }
  /// Total exit rate of a state.
  double exit_rate(std::size_t s) const;

  /// Stationary distribution solving pi * Q = 0, sum(pi) = 1.
  SolveResult steady_state(const SolveOptions& opts = {}) const;

  /// Transient distribution at time t via uniformization.
  std::vector<double> transient(std::span<const double> initial, double t,
                                double truncation_eps = 1e-10) const;

  /// Embeds the CTMC into the uniformized DTMC P = I + Q/Lambda.
  Dtmc uniformized(double* lambda_out = nullptr) const;

 private:
  SparseRows q_;
};

/// Stationary distribution of the birth–death chain on states 0..n-1 by its
/// product form in O(n), finite at any length.  `birth[i]` is the rate (or
/// probability) i -> i+1 (birth[n-1] ignored), `death[i]` the one i -> i-1
/// (death[0] ignored, every other one > 0).
std::vector<double> birth_death_steady_state(std::span<const double> birth,
                                             std::span<const double> death);

/// Expected reward sum_i pi_i * reward(i): the paper's bridge from the
/// stationary distribution to throughput / response time / power.
double expected_reward(std::span<const double> pi,
                       const std::function<double(std::size_t)>& reward);

/// Absorbing-chain analysis (fundamental-matrix method): expected steps to
/// absorption and per-absorbing-state hit probabilities.  This is the
/// analytical counterpart of lifetime/failure questions ("how long until a
/// battery dies / a deadline is missed") asked throughout §4-§5.
struct AbsorbingResult {
  /// Expected number of steps to absorption from each state (0 for
  /// absorbing states themselves).
  std::vector<double> expected_steps;
  /// absorption_probability.at(s, k): probability that, starting from s,
  /// the chain is absorbed in absorbing_states[k].
  Matrix absorption_probability;
  std::vector<std::size_t> absorbing_states;
};

/// `absorbing[i]` marks state i as absorbing (its rows in P are ignored and
/// treated as self-loops).  Throws if no state is absorbing or if some
/// transient state cannot reach absorption.
AbsorbingResult absorbing_analysis(const Dtmc& chain,
                                   const std::vector<bool>& absorbing);

}  // namespace holms::markov
