#include "markov/chain.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

#include "markov/sparse.hpp"

#include "exec/error.hpp"

namespace holms::markov {
namespace {

void normalize(std::vector<double>& v) {
  double sum = 0.0;
  // HOLMS_LINT_ALLOW(D006): direct-solver/CTMC normalize over the state vector in index order; iterative paths reduce through exec::simd
  for (double x : v) sum += x;
  if (sum <= 0.0) throw holms::RuntimeError("distribution has zero mass");
  for (double& x : v) x /= sum;
}

// PA = LU factorization with partial pivoting, factored once and applied to
// many right-hand sides: the direct steady-state solve (one) and
// absorbing_analysis (1 + |absorbing| on the same (I - Q)).  The multipliers
// are stored in the eliminated below-diagonal slots, and solve() replays
// exactly the operation sequence a fused elimination applies to b, so results
// are bitwise those of eliminating per right-hand side.  `singular` is the
// message thrown when a pivot vanishes.
class LuFactors {
 public:
  LuFactors(Matrix a, const char* singular)
      : lu_(std::move(a)), perm_(lu_.rows()) {
    const std::size_t n = lu_.rows();
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
    for (std::size_t col = 0; col < n; ++col) {
      std::size_t pivot = col;
      double best = std::abs(lu_.at(perm_[col], col));
      for (std::size_t r = col + 1; r < n; ++r) {
        const double v = std::abs(lu_.at(perm_[r], col));
        if (v > best) {
          best = v;
          pivot = r;
        }
      }
      if (best < 1e-300) throw holms::RuntimeError(singular);
      std::swap(perm_[col], perm_[pivot]);
      const double diag = lu_.at(perm_[col], col);
      for (std::size_t r = col + 1; r < n; ++r) {
        const double factor = lu_.at(perm_[r], col) / diag;
        lu_.at(perm_[r], col) = factor;  // L multiplier in the zeroed slot
        if (factor == 0.0) continue;
        for (std::size_t c = col + 1; c < n; ++c) {
          lu_.at(perm_[r], c) -= factor * lu_.at(perm_[col], c);
        }
      }
    }
  }

  std::vector<double> solve(std::vector<double> b) const {
    const std::size_t n = lu_.rows();
    // Forward: replay the eliminations on b.
    for (std::size_t col = 0; col < n; ++col) {
      for (std::size_t r = col + 1; r < n; ++r) {
        const double factor = lu_.at(perm_[r], col);
        if (factor == 0.0) continue;
        b[perm_[r]] -= factor * b[perm_[col]];
      }
    }
    // Back-substitution against U.
    std::vector<double> x(n, 0.0);
    for (std::size_t i = n; i-- > 0;) {
      double acc = b[perm_[i]];
      for (std::size_t c = i + 1; c < n; ++c) acc -= lu_.at(perm_[i], c) * x[c];
      x[i] = acc / lu_.at(perm_[i], i);
    }
    return x;
  }

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
};

// Solves pi * A = 0 with sum(pi) = 1 (kDirectLU): A is `rows` off the
// diagonal and diag(r) on it.  Factors M = A^T with its last row replaced by
// the normalization constraint and solves M x = e_n.
SolveResult solve_direct(const SparseRows& rows,
                         const std::function<double(std::size_t)>& diag) {
  const std::size_t n = rows.size();
  if (n == 0) return {};
  Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (const SparseEntry& e : rows.row(r)) {
      if (e.col != r) m.at(e.col, r) = e.value;
    }
    m.at(r, r) = diag(r);
  }
  for (std::size_t j = 0; j < n; ++j) m.at(n - 1, j) = 1.0;
  std::vector<double> rhs(n, 0.0);
  rhs[n - 1] = 1.0;
  std::vector<double> x =
      LuFactors(std::move(m), "singular chain matrix").solve(std::move(rhs));
  // Clamp tiny negatives from roundoff.
  for (double& v : x) v = std::max(v, 0.0);
  normalize(x);
  return {std::move(x), 0, true};
}

// kAuto's scan: the product form when every off-diagonal entry of `rows` is
// positive and next to the diagonal and every state above 0 can step down.
std::optional<SolveResult> solve_if_birth_death(const SparseRows& rows,
                                                const SolveOptions& opts) {
  const std::size_t n = rows.size();
  if (opts.method != SteadyStateMethod::kAuto || n == 0) return std::nullopt;
  std::vector<double> up(n, 0.0), down(n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (const SparseEntry& e : rows.row(r)) {
      if (e.col == r) continue;
      if (!(e.value > 0.0) || (e.col + 1 != r && e.col != r + 1)) {
        return std::nullopt;
      }
      (e.col < r ? down : up)[r] = e.value;
    }
    if (r > 0 && down[r] == 0.0) return std::nullopt;
  }
  return SolveResult{birth_death_steady_state(up, down), 0, true};
}

// First entry of `row` whose column is >= c.
template <typename Row>
auto lower_bound_col(Row& row, std::size_t c) {
  return std::lower_bound(
      row.begin(), row.end(), c,
      [](const SparseEntry& e, std::size_t col) { return e.col < col; });
}

}  // namespace

void SparseRows::set(std::size_t r, std::size_t c, double v) {
  if (r >= size() || c >= size()) {
    throw holms::OutOfRange("SparseRows: index out of range");
  }
  auto& row = rows_[r];
  const auto it = lower_bound_col(row, c);
  const bool present = it != row.end() && it->col == c;
  if (v == 0.0) {
    if (present) row.erase(it);
  } else if (present) {
    it->value = v;
  } else {
    row.insert(it, SparseEntry{static_cast<std::uint32_t>(c), v});
  }
}

double SparseRows::get(std::size_t r, std::size_t c) const {
  if (r >= size() || c >= size()) {
    throw holms::OutOfRange("SparseRows: index out of range");
  }
  const auto& row = rows_[r];
  const auto it = lower_bound_col(row, c);
  return it != row.end() && it->col == c ? it->value : 0.0;
}

std::size_t SparseRows::nnz() const {
  std::size_t n = 0;
  for (const auto& row : rows_) n += row.size();
  return n;
}

void Dtmc::set(std::size_t from, std::size_t to, double prob) {
  assert(prob >= 0.0 && prob <= 1.0 + 1e-12);
  p_.set(from, to, prob);
}

bool Dtmc::is_stochastic(double tol) const {
  for (std::size_t r = 0; r < size(); ++r) {
    double sum = 0.0;
    for (const SparseEntry& e : p_.row(r)) {
      if (e.value < -tol) return false;
      // HOLMS_LINT_ALLOW(D006): row sum over the stored nonzeros in ascending column order
      sum += e.value;
    }
    if (std::abs(sum - 1.0) > tol) return false;
  }
  return true;
}

SolveResult Dtmc::steady_state(const SolveOptions& opts) const {
  opts.validate();
  if (auto bd = solve_if_birth_death(p_, opts)) return std::move(*bd);
  if (opts.method == SteadyStateMethod::kDirectLU) {  // pi (P - I) = 0
    return solve_direct(p_, [&](std::size_t r) { return p_.get(r, r) - 1.0; });
  }
  const CsrMatrix p = CsrMatrix::from_rows(p_);
  return opts.method == SteadyStateMethod::kGaussSeidel
             ? sparse_gauss_seidel(p, opts)
             : sparse_power_iteration(p, opts);
}

std::vector<double> Dtmc::transient(std::span<const double> initial,
                                    std::size_t steps) const {
  const std::size_t n = size();
  assert(initial.size() == n);
  std::vector<double> pi(initial.begin(), initial.end());
  std::vector<double> next(n, 0.0);
  for (std::size_t s = 0; s < steps; ++s) {
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      const double pr = pi[r];
      if (pr == 0.0) continue;
      for (const SparseEntry& e : p_.row(r)) next[e.col] += pr * e.value;
    }
    pi.swap(next);
  }
  return pi;
}

void Ctmc::set_rate(std::size_t from, std::size_t to, double rate) {
  assert(from != to && "diagonal is derived, set only off-diagonal rates");
  assert(rate >= 0.0);
  q_.set(from, to, rate);
}

double Ctmc::exit_rate(std::size_t s) const {
  double sum = 0.0;
  for (const SparseEntry& e : q_.row(s)) {
    // HOLMS_LINT_ALLOW(D006): exit-rate row sum in ascending column order, the order uniformized() relies on
    if (e.col != s) sum += e.value;
  }
  return sum;
}

Dtmc Ctmc::uniformized(double* lambda_out) const {
  const std::size_t n = size();
  double lambda = 0.0;
  for (std::size_t s = 0; s < n; ++s) lambda = std::max(lambda, exit_rate(s));
  // Slightly inflate so diagonal entries stay strictly positive, which makes
  // the uniformized chain aperiodic.
  lambda = lambda * 1.02 + 1e-12;
  if (lambda_out) *lambda_out = lambda;
  Dtmc d(n);
  for (std::size_t r = 0; r < n; ++r) {
    double off = 0.0;
    for (const SparseEntry& e : q_.row(r)) {
      if (e.col == r) continue;
      const double p = e.value / lambda;
      d.set(r, e.col, p);
      // HOLMS_LINT_ALLOW(D006): off-diagonal mass in ascending column order; the diagonal is 1 - off
      off += p;
    }
    d.set(r, r, 1.0 - off);
  }
  return d;
}

SolveResult Ctmc::steady_state(const SolveOptions& opts) const {
  opts.validate();
  if (opts.method == SteadyStateMethod::kDirectLU) {  // pi Q = 0
    return solve_direct(q_, [&](std::size_t r) { return -exit_rate(r); });
  }
  if (auto bd = solve_if_birth_death(q_, opts)) return std::move(*bd);
  // Iterative methods work on the uniformized DTMC, which shares the CTMC's
  // stationary distribution; kAuto falls back to power iteration there.
  SolveOptions iterative = opts;
  if (iterative.method == SteadyStateMethod::kAuto)
    iterative.method = SteadyStateMethod::kPowerIteration;
  return uniformized().steady_state(iterative);
}

std::vector<double> birth_death_steady_state(std::span<const double> birth,
                                             std::span<const double> death) {
  const std::size_t n = birth.size();
  if (n == 0 || death.size() != n) {
    throw holms::InvalidArgument("birth_death: need equal non-empty vectors");
  }
  // pi_{i+1} = pi_i * birth_i / death_{i+1}, term i standing for
  // pi[i] * 2^scale[i].  A term that would overflow or go subnormal is
  // recomputed from its predecessor's mantissa; power-of-two shifts are
  // exact, so normal-range chains keep the plain recurrence's bits.
  constexpr double kTiny = std::numeric_limits<double>::min();
  const double kHuge = std::ldexp(1.0, 960);  // room to sum 2^60 terms
  std::vector<double> pi(n);
  std::vector<int> scale(n, 0);
  bool rescaled = false;
  pi[0] = 1.0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (!(death[i + 1] > 0.0)) {
      throw holms::InvalidArgument("birth_death: death rate must be > 0");
    }
    pi[i + 1] = pi[i] * birth[i] / death[i + 1];
    if (pi[i + 1] != 0.0 && !(pi[i + 1] >= kTiny && pi[i + 1] <= kHuge)) {
      int e = 0;
      pi[i] = std::frexp(pi[i], &e);
      scale[i] += e;
      pi[i + 1] = pi[i] * birth[i] / death[i + 1];
      rescaled = true;
    }
    scale[i + 1] = scale[i];
  }
  if (rescaled) {
    // Onto the highest scale, whose first term is a mantissa >= 1/2: only
    // terms that are subnormal next to it round away.
    const int top = *std::max_element(scale.begin(), scale.end());
    for (std::size_t i = 0; i < n; ++i) {
      pi[i] = std::ldexp(pi[i], scale[i] - top);
    }
  }
  normalize(pi);
  return pi;
}

std::vector<double> Ctmc::transient(std::span<const double> initial, double t,
                                    double truncation_eps) const {
  const std::size_t n = size();
  assert(initial.size() == n);
  if (t <= 0.0) return std::vector<double>(initial.begin(), initial.end());
  double lambda = 0.0;
  const Dtmc p = uniformized(&lambda);
  // Uniformization: pi(t) = sum_k Poisson(lambda t; k) * pi0 P^k.
  std::vector<double> term(initial.begin(), initial.end());
  std::vector<double> result(n, 0.0);
  const double lt = lambda * t;
  double log_poisson = -lt;  // log of Poisson pmf at k = 0
  double cumulative = 0.0;
  // Cap iterations generously: mean + 10 sigma.
  const std::size_t kmax =
      static_cast<std::size_t>(lt + 10.0 * std::sqrt(lt) + 50.0);
  for (std::size_t k = 0; k <= kmax; ++k) {
    const double w = std::exp(log_poisson);
    for (std::size_t i = 0; i < n; ++i) result[i] += w * term[i];
    cumulative += w;
    if (1.0 - cumulative < truncation_eps) break;
    term = p.transient(term, 1);
    log_poisson += std::log(lt) - std::log(static_cast<double>(k + 1));
  }
  normalize(result);
  return result;
}

double expected_reward(std::span<const double> pi,
                       const std::function<double(std::size_t)>& reward) {
  double acc = 0.0;
  // HOLMS_LINT_ALLOW(D006): cold analytic reward sum in state-index order
  for (std::size_t i = 0; i < pi.size(); ++i) acc += pi[i] * reward(i);
  return acc;
}

AbsorbingResult absorbing_analysis(const Dtmc& chain,
                                   const std::vector<bool>& absorbing) {
  const std::size_t n = chain.size();
  if (absorbing.size() != n) {
    throw holms::InvalidArgument("absorbing_analysis: flag size mismatch");
  }
  AbsorbingResult res;
  std::vector<std::size_t> transient;
  for (std::size_t i = 0; i < n; ++i) {
    (absorbing[i] ? res.absorbing_states : transient).push_back(i);
  }
  if (res.absorbing_states.empty()) {
    throw holms::InvalidArgument("absorbing_analysis: no absorbing state");
  }
  const std::size_t t = transient.size();
  const std::size_t a = res.absorbing_states.size();
  res.expected_steps.assign(n, 0.0);
  res.absorption_probability = Matrix(n, a);
  for (std::size_t k = 0; k < a; ++k) {
    res.absorption_probability.at(res.absorbing_states[k], k) = 1.0;
  }
  if (t == 0) return res;

  // (I - Q) over the transient states.
  Matrix iq(t, t);
  for (std::size_t r = 0; r < t; ++r) {
    for (std::size_t c = 0; c < t; ++c) {
      iq.at(r, c) = (r == c ? 1.0 : 0.0) -
                    chain.get(transient[r], transient[c]);
    }
  }
  // One factorization serves the expected-steps system and every absorption
  // column (1 + a right-hand sides).
  const LuFactors lu(std::move(iq), "absorbing_analysis: singular system "
                                    "(absorption unreachable from some state)");
  // Expected steps: (I - Q) tvec = 1.
  const std::vector<double> steps = lu.solve(std::vector<double>(t, 1.0));
  for (std::size_t r = 0; r < t; ++r) {
    res.expected_steps[transient[r]] = steps[r];
  }
  // Absorption probabilities: (I - Q) B_col = R_col for each absorbing k.
  for (std::size_t k = 0; k < a; ++k) {
    std::vector<double> rhs(t, 0.0);
    for (std::size_t r = 0; r < t; ++r) {
      rhs[r] = chain.get(transient[r], res.absorbing_states[k]);
    }
    const std::vector<double> col = lu.solve(std::move(rhs));
    for (std::size_t r = 0; r < t; ++r) {
      res.absorption_probability.at(transient[r], k) = col[r];
    }
  }
  return res;
}

}  // namespace holms::markov
