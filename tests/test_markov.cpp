// Unit tests for the analytical engine (holms::markov) — paper §2.2.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <utility>

#include "markov/chain.hpp"
#include "markov/jackson.hpp"
#include "markov/queueing.hpp"
#include "markov/sparse.hpp"

namespace {

using holms::markov::Ctmc;
using holms::markov::Dtmc;
using holms::markov::ProducerConsumerModel;
using holms::markov::SolveOptions;
using holms::markov::SolveResult;
using holms::markov::SteadyStateMethod;

SolveOptions method(SteadyStateMethod m) {
  SolveOptions o;
  o.method = m;
  return o;
}

// Two-state chain with known stationary distribution p/(p+q), q/(p+q).
Dtmc two_state(double p, double q) {
  Dtmc d(2);
  d.set(0, 0, 1.0 - p);
  d.set(0, 1, p);
  d.set(1, 0, q);
  d.set(1, 1, 1.0 - q);
  return d;
}

// Relative agreement, with a floor below which both values are underflow
// noise.
void expect_rel_near(double a, double b, double rel, std::size_t state) {
  EXPECT_LE(std::abs(a - b),
            rel * std::max(std::abs(a), std::abs(b)) +
                std::numeric_limits<double>::min())
      << "state " << state << ": " << a << " vs " << b;
}

class DtmcSolvers
    : public ::testing::TestWithParam<SteadyStateMethod> {};

TEST_P(DtmcSolvers, TwoStateAnalytic) {
  const Dtmc d = two_state(0.3, 0.1);
  const SolveResult r = d.steady_state(method(GetParam()));
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.distribution[0], 0.25, 1e-8);
  EXPECT_NEAR(r.distribution[1], 0.75, 1e-8);
}

TEST_P(DtmcSolvers, DistributionSumsToOne) {
  Dtmc d(4);
  // Ring with self-loops.
  for (std::size_t i = 0; i < 4; ++i) {
    d.set(i, i, 0.5);
    d.set(i, (i + 1) % 4, 0.5);
  }
  const SolveResult r = d.steady_state(method(GetParam()));
  double sum = 0.0;
  for (double x : r.distribution) {
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  for (double x : r.distribution) EXPECT_NEAR(x, 0.25, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, DtmcSolvers,
                         ::testing::Values(SteadyStateMethod::kPowerIteration,
                                           SteadyStateMethod::kGaussSeidel,
                                           SteadyStateMethod::kDirectLU));

TEST(Dtmc, IsStochasticDetectsBadRows) {
  Dtmc d = two_state(0.3, 0.1);
  EXPECT_TRUE(d.is_stochastic());
  d.set(0, 1, 0.9);  // row 0 now sums to 1.6
  EXPECT_FALSE(d.is_stochastic());
}

TEST(Dtmc, TransientConvergesToSteadyState) {
  const Dtmc d = two_state(0.3, 0.1);
  const std::vector<double> init{1.0, 0.0};
  const auto pi100 = d.transient(init, 200);
  EXPECT_NEAR(pi100[0], 0.25, 1e-6);
  EXPECT_NEAR(pi100[1], 0.75, 1e-6);
}

TEST(Dtmc, TransientOneStepIsMatrixRow) {
  const Dtmc d = two_state(0.3, 0.1);
  const auto pi = d.transient(std::vector<double>{1.0, 0.0}, 1);
  EXPECT_NEAR(pi[0], 0.7, 1e-12);
  EXPECT_NEAR(pi[1], 0.3, 1e-12);
}

TEST(Ctmc, TwoStateSteadyState) {
  // Rates 0->1 = 2, 1->0 = 6: pi = (0.75, 0.25).
  Ctmc c(2);
  c.set_rate(0, 1, 2.0);
  c.set_rate(1, 0, 6.0);
  for (auto m : {SteadyStateMethod::kPowerIteration,
                 SteadyStateMethod::kGaussSeidel,
                 SteadyStateMethod::kDirectLU}) {
    const SolveResult r = c.steady_state(method(m));
    EXPECT_NEAR(r.distribution[0], 0.75, 1e-7) << static_cast<int>(m);
    EXPECT_NEAR(r.distribution[1], 0.25, 1e-7) << static_cast<int>(m);
  }
}

TEST(Ctmc, ExitRateIsRowSum) {
  Ctmc c(3);
  c.set_rate(0, 1, 2.0);
  c.set_rate(0, 2, 3.0);
  EXPECT_DOUBLE_EQ(c.exit_rate(0), 5.0);
  EXPECT_DOUBLE_EQ(c.exit_rate(1), 0.0);
}

TEST(Ctmc, TransientMatchesAnalyticTwoState) {
  // For rates a=1 (0->1), b=3 (1->0): p1(t) = a/(a+b) (1 - e^{-(a+b)t}).
  Ctmc c(2);
  c.set_rate(0, 1, 1.0);
  c.set_rate(1, 0, 3.0);
  const std::vector<double> init{1.0, 0.0};
  for (double t : {0.1, 0.5, 2.0}) {
    const auto pi = c.transient(init, t);
    const double expected = 0.25 * (1.0 - std::exp(-4.0 * t));
    EXPECT_NEAR(pi[1], expected, 1e-6) << "t=" << t;
  }
}

TEST(Ctmc, TransientAtZeroIsInitial) {
  Ctmc c(2);
  c.set_rate(0, 1, 1.0);
  c.set_rate(1, 0, 1.0);
  const auto pi = c.transient(std::vector<double>{0.3, 0.7}, 0.0);
  EXPECT_DOUBLE_EQ(pi[0], 0.3);
  EXPECT_DOUBLE_EQ(pi[1], 0.7);
}

TEST(Ctmc, UniformizedChainIsStochastic) {
  Ctmc c(3);
  c.set_rate(0, 1, 1.0);
  c.set_rate(1, 2, 2.0);
  c.set_rate(2, 0, 0.5);
  EXPECT_TRUE(c.uniformized().is_stochastic());
}

TEST(ExpectedReward, ComputesWeightedSum) {
  const std::vector<double> pi{0.25, 0.75};
  const double r = holms::markov::expected_reward(
      pi, [](std::size_t i) { return i == 0 ? 4.0 : 8.0; });
  EXPECT_DOUBLE_EQ(r, 7.0);
}

// ---------- sparse storage ----------

TEST(SparseRows, OverwriteWins) {
  holms::markov::SparseRows m(3);
  m.set(1, 2, 0.25);
  m.set(1, 2, 0.75);
  EXPECT_EQ(m.get(1, 2), 0.75);
  EXPECT_EQ(m.nnz(), 1u);
}

TEST(SparseRows, ExplicitZeroIsDropped) {
  holms::markov::SparseRows m(3);
  m.set(0, 1, 0.5);
  m.set(0, 1, 0.0);  // removes the stored entry
  m.set(2, 0, 0.0);  // never stored
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_EQ(m.get(0, 1), 0.0);
  EXPECT_EQ(holms::markov::CsrMatrix::from_rows(m).nnz(), 0u);
}

TEST(SparseRows, RejectsOutOfRangeIndex) {
  holms::markov::SparseRows m(3);
  EXPECT_THROW(m.set(3, 0, 1.0), std::out_of_range);
  EXPECT_THROW(m.set(0, 3, 1.0), std::out_of_range);
  EXPECT_THROW(m.get(3, 0), std::out_of_range);
  Dtmc d(2);
  EXPECT_THROW(d.set(0, 2, 0.5), std::out_of_range);
}

TEST(SparseRows, AbsentEntryReadsZero) {
  Dtmc d(4);
  d.set(1, 3, 0.5);
  EXPECT_EQ(d.get(1, 3), 0.5);
  EXPECT_EQ(d.get(1, 2), 0.0);
  EXPECT_EQ(d.get(3, 1), 0.0);
  Ctmc c(3);
  c.set_rate(2, 0, 1.5);
  EXPECT_EQ(c.rate(2, 0), 1.5);
  EXPECT_EQ(c.rate(0, 2), 0.0);
}

TEST(SparseRows, OutOfOrderSetsYieldAscendingCsrColumns) {
  holms::markov::SparseRows m(6);
  for (const std::size_t c : {4u, 1u, 5u, 0u, 3u}) {
    m.set(2, c, 0.1 * static_cast<double>(c + 1));
  }
  m.set(0, 5, 1.0);
  m.set(0, 2, 2.0);
  const auto csr = holms::markov::CsrMatrix::from_rows(m);
  ASSERT_EQ(csr.nnz(), 7u);
  const auto cols = csr.row_cols(2);
  const std::vector<std::uint32_t> want{0, 1, 3, 4, 5};
  ASSERT_EQ(std::vector<std::uint32_t>(cols.begin(), cols.end()), want);
  for (std::size_t i = 0; i < cols.size(); ++i) {
    EXPECT_EQ(csr.row_vals(2)[i], 0.1 * static_cast<double>(cols[i] + 1));
  }
  const auto row0 = csr.row_cols(0);
  ASSERT_EQ(row0.size(), 2u);
  EXPECT_EQ(row0[0], 2u);
  EXPECT_EQ(row0[1], 5u);
}

// ---------- absorbing chains ----------

TEST(Absorbing, GamblersRuinStepCount) {
  // States 0..4, p = 0.5 random walk, 0 and 4 absorbing.
  // Expected steps from i: i * (4 - i).
  holms::markov::Dtmc d(5);
  d.set(0, 0, 1.0);
  d.set(4, 4, 1.0);
  for (std::size_t i = 1; i <= 3; ++i) {
    d.set(i, i - 1, 0.5);
    d.set(i, i + 1, 0.5);
  }
  const std::vector<bool> abs_flags{true, false, false, false, true};
  const auto r = holms::markov::absorbing_analysis(d, abs_flags);
  EXPECT_DOUBLE_EQ(r.expected_steps[0], 0.0);
  EXPECT_NEAR(r.expected_steps[1], 3.0, 1e-9);
  EXPECT_NEAR(r.expected_steps[2], 4.0, 1e-9);
  EXPECT_NEAR(r.expected_steps[3], 3.0, 1e-9);
}

TEST(Absorbing, RuinProbabilities) {
  holms::markov::Dtmc d(5);
  d.set(0, 0, 1.0);
  d.set(4, 4, 1.0);
  for (std::size_t i = 1; i <= 3; ++i) {
    d.set(i, i - 1, 0.5);
    d.set(i, i + 1, 0.5);
  }
  const auto r = holms::markov::absorbing_analysis(
      d, {true, false, false, false, true});
  ASSERT_EQ(r.absorbing_states.size(), 2u);
  // Fair walk: P(hit 4 from i) = i/4.
  for (std::size_t i = 0; i <= 4; ++i) {
    const double p_hi = r.absorption_probability.at(i, 1);
    const double p_lo = r.absorption_probability.at(i, 0);
    EXPECT_NEAR(p_hi, static_cast<double>(i) / 4.0, 1e-9);
    EXPECT_NEAR(p_lo + p_hi, 1.0, 1e-9);
  }
}

TEST(Absorbing, RejectsNoAbsorbingState) {
  const holms::markov::Dtmc d = two_state(0.3, 0.1);
  EXPECT_THROW(holms::markov::absorbing_analysis(d, {false, false}),
               std::invalid_argument);
}

TEST(Absorbing, RejectsUnreachableAbsorption) {
  holms::markov::Dtmc d(3);
  d.set(0, 0, 1.0);  // absorbing
  d.set(1, 2, 1.0);  // 1 <-> 2 closed class, never reaches 0
  d.set(2, 1, 1.0);
  EXPECT_THROW(
      holms::markov::absorbing_analysis(d, {true, false, false}),
      std::runtime_error);
}

// ---------- queueing formulas ----------

TEST(Mm1, LittlesLawHolds) {
  const auto m = holms::markov::mm1(2.0, 5.0);
  EXPECT_NEAR(m.mean_queue_length, m.throughput * m.mean_waiting_time, 1e-12);
  EXPECT_NEAR(m.utilization, 0.4, 1e-12);
  EXPECT_NEAR(m.mean_queue_length, 0.4 / 0.6, 1e-12);
}

TEST(Mm1, RejectsUnstable) {
  EXPECT_THROW(holms::markov::mm1(5.0, 5.0), std::invalid_argument);
  EXPECT_THROW(holms::markov::mm1(6.0, 5.0), std::invalid_argument);
}

TEST(Mm1k, DistributionIsGeometricTruncated) {
  const auto pi = holms::markov::mm1k_distribution(1.0, 2.0, 3);
  ASSERT_EQ(pi.size(), 4u);
  double sum = 0.0;
  for (double x : pi) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_NEAR(pi[1] / pi[0], 0.5, 1e-12);
  EXPECT_NEAR(pi[3] / pi[2], 0.5, 1e-12);
}

TEST(Mm1k, EqualRatesIsUniform) {
  const auto pi = holms::markov::mm1k_distribution(2.0, 2.0, 4);
  for (double x : pi) EXPECT_NEAR(x, 0.2, 1e-9);
}

TEST(Mm1k, ConvergesToMm1ForLargeK) {
  const auto finite = holms::markov::mm1k(1.0, 2.0, 200);
  const auto infinite = holms::markov::mm1(1.0, 2.0);
  EXPECT_NEAR(finite.mean_queue_length, infinite.mean_queue_length, 1e-6);
  EXPECT_NEAR(finite.blocking_probability, 0.0, 1e-12);
}

TEST(Mm1k, BlockingReducesThroughput) {
  const auto m = holms::markov::mm1k(4.0, 2.0, 2);  // heavily overloaded
  EXPECT_GT(m.blocking_probability, 0.3);
  EXPECT_NEAR(m.throughput, 4.0 * (1.0 - m.blocking_probability), 1e-12);
  EXPECT_LT(m.throughput, 2.0 + 1e-9);  // can't exceed service rate
}

TEST(Md1, LessWaitingThanMm1AtSameLoad) {
  const auto md = holms::markov::md1(1.0, 0.5);
  const auto mm = holms::markov::mm1(1.0, 2.0);
  EXPECT_LT(md.mean_queue_length, mm.mean_queue_length);
  EXPECT_NEAR(md.utilization, mm.utilization, 1e-12);
}

TEST(Md1, PollaczekKhinchineValue) {
  // rho = 0.5: L = 0.5 + 0.25/(2*0.5) = 0.75.
  const auto m = holms::markov::md1(1.0, 0.5);
  EXPECT_NEAR(m.mean_queue_length, 0.75, 1e-12);
}

TEST(BirthDeath, MatchesMm1kDistribution) {
  const double lambda = 1.3, mu = 2.0;
  const std::size_t k = 5;
  std::vector<double> birth(k + 1, lambda), death(k + 1, mu);
  const auto bd = holms::markov::birth_death_steady_state(birth, death);
  const auto ref = holms::markov::mm1k_distribution(lambda, mu, k);
  ASSERT_EQ(bd.size(), ref.size());
  for (std::size_t i = 0; i <= k; ++i) EXPECT_NEAR(bd[i], ref[i], 1e-9);
}

// M/M/1/(n-1) occupancy chain with arrival rate rho, service rate 1.
Ctmc mm1k_chain(double rho, std::size_t n) {
  Ctmc c(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    c.set_rate(i, i + 1, rho);
    c.set_rate(i + 1, i, 1.0);
  }
  return c;
}

TEST(BirthDeath, FiniteAndNormalizedAtEveryLoad) {
  // Loads on both sides of 1 and chains long enough that the plain
  // recurrence leaves the double range; the running term is rescaled.
  for (const double rho : {0.5, 0.85, 1.0, 1.2}) {
    for (const std::size_t n : {std::size_t{64}, std::size_t{4096}}) {
      const std::vector<double> birth(n, rho), death(n, 1.0);
      const auto pi = holms::markov::birth_death_steady_state(birth, death);
      const auto ref = holms::markov::mm1k_distribution(rho, 1.0, n - 1);
      ASSERT_EQ(pi.size(), n);
      double sum = 0.0, ref_sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(std::isfinite(pi[i])) << rho << " " << n << " " << i;
        expect_rel_near(pi[i], ref[i], 1e-12, i);
        sum += pi[i];
        ref_sum += ref[i];
      }
      EXPECT_NEAR(sum, 1.0, 1e-12) << rho << " " << n;
      EXPECT_NEAR(ref_sum, 1.0, 1e-12) << rho << " " << n;
      if (n == 64) {
        const SolveResult power = mm1k_chain(rho, n).steady_state(
            method(SteadyStateMethod::kPowerIteration));
        ASSERT_TRUE(power.converged) << rho;
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_NEAR(pi[i], power.distribution[i], 1e-9) << rho << " " << i;
        }
      }
    }
  }
}

TEST(BirthDeath, OverloadedLongChainMatchesPowerIteration) {
  // rho = 1.2 over 4096 states: rho^4095 overflows a double, so the
  // product form must rescale and mm1k_distribution must build from the top.
  const double rho = 1.2;
  const std::size_t n = 4096;
  const SolveResult power =
      mm1k_chain(rho, n).steady_state(method(SteadyStateMethod::kPowerIteration));
  ASSERT_TRUE(power.converged);
  const std::vector<double> birth(n, rho), death(n, 1.0);
  const auto pi = holms::markov::birth_death_steady_state(birth, death);
  const auto mm = holms::markov::mm1k_distribution(rho, 1.0, n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(pi[i], power.distribution[i], 1e-9) << "state " << i;
    EXPECT_NEAR(mm[i], power.distribution[i], 1e-9) << "state " << i;
  }
  EXPECT_NEAR(pi.back(), 1.0 / 6.0, 1e-12);  // producer blocked
  EXPECT_NEAR(mm.back(), 1.0 / 6.0, 1e-12);
}

TEST(BirthDeath, MatchesDirectLuOnUnevenRates) {
  for (const std::size_t n : {std::size_t{2}, std::size_t{17}, std::size_t{200}}) {
    std::vector<double> birth(n), death(n);
    Ctmc c(n);
    for (std::size_t i = 0; i < n; ++i) {
      birth[i] = 1.0 + 0.5 * std::sin(static_cast<double>(i));
      death[i] = 1.1 + 0.4 * std::cos(0.7 * static_cast<double>(i));
    }
    for (std::size_t i = 0; i + 1 < n; ++i) {
      c.set_rate(i, i + 1, birth[i]);
      c.set_rate(i + 1, i, death[i + 1]);
    }
    const auto pi = holms::markov::birth_death_steady_state(birth, death);
    const auto lu = c.steady_state(method(SteadyStateMethod::kDirectLU));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(pi[i], lu.distribution[i], 1e-12) << n << " " << i;
    }
  }
}

TEST(BirthDeath, RejectsZeroDeathRate) {
  std::vector<double> birth{1.0, 1.0}, death{1.0, 0.0};
  EXPECT_THROW(holms::markov::birth_death_steady_state(birth, death),
               std::invalid_argument);
}

// ---------- Jackson networks ----------

TEST(Jackson, TandemReducesToIndependentMm1) {
  const auto net = holms::markov::tandem_network({5.0, 4.0, 6.0}, 2.0);
  const auto sol = net.solve();
  ASSERT_TRUE(sol.stable);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(sol.effective_arrival_rate[i], 2.0, 1e-9);
  }
  const auto ref0 = holms::markov::mm1(2.0, 5.0);
  EXPECT_NEAR(sol.station[0].mean_queue_length, ref0.mean_queue_length,
              1e-9);
  // Sojourn time = sum of per-station W (Little on the whole network).
  double w = 0.0;
  for (const auto& s : sol.station) w += s.mean_waiting_time;
  EXPECT_NEAR(sol.mean_sojourn_time, w, 1e-9);
}

TEST(Jackson, FeedbackLoopAmplifiesLoad) {
  // One station, external rate 1, feedback p = 0.5: lambda = 1/(1-0.5) = 2.
  holms::markov::JacksonNetwork net(
      {holms::markov::JacksonStation{5.0, 1.0}});
  net.set_routing(0, 0, 0.5);
  const auto sol = net.solve();
  ASSERT_TRUE(sol.stable);
  EXPECT_NEAR(sol.effective_arrival_rate[0], 2.0, 1e-9);
  EXPECT_NEAR(sol.throughput, 1.0, 1e-12);
}

TEST(Jackson, SplitRouting) {
  // Station 0 splits 70/30 to stations 1 and 2.
  holms::markov::JacksonNetwork net({{10.0, 4.0}, {10.0, 0.0}, {10.0, 0.0}});
  net.set_routing(0, 1, 0.7);
  net.set_routing(0, 2, 0.3);
  const auto sol = net.solve();
  EXPECT_NEAR(sol.effective_arrival_rate[1], 2.8, 1e-9);
  EXPECT_NEAR(sol.effective_arrival_rate[2], 1.2, 1e-9);
}

TEST(Jackson, DetectsInstability) {
  const auto net = holms::markov::tandem_network({5.0, 1.5}, 2.0);
  const auto sol = net.solve();
  EXPECT_FALSE(sol.stable);  // station 1 has rho > 1
}

TEST(Jackson, RejectsBadRouting) {
  holms::markov::JacksonNetwork net({{1.0, 1.0}, {1.0, 0.0}});
  net.set_routing(0, 0, 0.6);
  net.set_routing(0, 1, 0.6);  // row sums to 1.2
  EXPECT_THROW(net.solve(), std::invalid_argument);
  EXPECT_THROW(net.set_routing(0, 5, 0.1), std::invalid_argument);
  EXPECT_THROW(holms::markov::JacksonNetwork({}), std::invalid_argument);
}

TEST(Jackson, MatchesDecoderPipelineIntuition) {
  // The MPEG-2 chain as a queueing network: receive -> VLD -> IDCT with a
  // 20% VLD reprocess loop; the bottleneck station carries the longest
  // queue.
  holms::markov::JacksonNetwork net(
      {{100.0, 30.0},    // receive
       {45.0, 0.0},      // VLD (bottleneck with feedback)
       {80.0, 0.0}});    // IDCT
  net.set_routing(0, 1, 1.0);
  net.set_routing(1, 1, 0.2);   // reprocessing feedback
  net.set_routing(1, 2, 0.8);
  const auto sol = net.solve();
  ASSERT_TRUE(sol.stable);
  EXPECT_NEAR(sol.effective_arrival_rate[1], 30.0 / 0.8, 1e-6);
  EXPECT_GT(sol.station[1].mean_queue_length,
            sol.station[0].mean_queue_length);
  EXPECT_GT(sol.station[1].mean_queue_length,
            sol.station[2].mean_queue_length);
}

// ---------- golden pins ----------
//
// FNV-1a hashes of the solver outputs' bit patterns.  They pin today's exact
// results so that any change to chain storage or the solve path must
// reproduce them bitwise, not merely within a tolerance.  The hashes assume
// IEEE-754 doubles and the x86-64/glibc libm that computed them.

std::uint64_t fnv1a(std::span<const double> xs,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const double x : xs) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// Banded chain: each state talks to `band` neighbours on each side, with a
// forward drift so the iterative solvers converge.
Dtmc banded_chain(std::size_t n, std::size_t band) {
  Dtmc d(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i > band ? i - band : 0;
    const std::size_t hi = std::min(n - 1, i + band);
    double off = 0.0;
    for (std::size_t j = lo; j <= hi; ++j) {
      if (j == i) continue;
      const double side = j > i ? 0.3 : 0.2;
      const std::size_t count = j > i ? hi - i : i - lo;
      const double w = side / static_cast<double>(count);
      d.set(i, j, w);
      off += w;
    }
    d.set(i, i, 1.0 - off);
  }
  return d;
}

// Producer–consumer chain of the analyze_buffer sizing sweep.
ProducerConsumerModel sweep_model(std::size_t capacity) {
  ProducerConsumerModel m;
  m.consumer_rate = 1000.0;
  m.producer_rate = 0.85 * m.consumer_rate;
  m.buffer_capacity = capacity;
  return m;
}

std::uint64_t result_pin(const ProducerConsumerModel::Result& r) {
  const double scalars[] = {r.mean_occupancy, r.throughput};
  return fnv1a(scalars, fnv1a(r.occupancy_distribution));
}

// Power iteration keeps the pins it had as the default solver; the default
// (kAuto) solves this birth–death chain by its product form, pinned
// separately and checked against both power iteration and the closed-form
// M/M/1/K distribution.
TEST(GoldenPins, ProducerConsumerAnalyze) {
  const struct {
    std::size_t capacity;
    std::uint64_t power, product_form;
  } cases[] = {{63, 0x735563e2afc1eecaULL, 0x33b7681cbcd0c3f7ULL},
               {255, 0x400798ae376e0f44ULL, 0x889e210f45d1658eULL},
               {1023, 0xede3edb472a94f39ULL, 0xd8c2153de63d8929ULL},
               {4095, 0xfda3f8e2fe1bf693ULL, 0x229c24dcadd7e252ULL}};
  for (const auto& c : cases) {
    const ProducerConsumerModel m = sweep_model(c.capacity);
    const auto power = m.analyze(method(SteadyStateMethod::kPowerIteration));
    const auto exact = m.analyze();
    EXPECT_EQ(result_pin(power), c.power) << "capacity " << c.capacity;
    EXPECT_EQ(result_pin(exact), c.product_form) << "capacity " << c.capacity;
    const SolveResult ss = m.to_ctmc().steady_state();
    EXPECT_TRUE(ss.converged);
    EXPECT_EQ(ss.iterations, 0u);
    EXPECT_EQ(ss.distribution, exact.occupancy_distribution);
    const auto ref = holms::markov::mm1k_distribution(
        m.producer_rate, m.consumer_rate, c.capacity);
    ASSERT_EQ(exact.occupancy_distribution.size(), c.capacity + 1);
    for (std::size_t s = 0; s <= c.capacity; ++s) {
      EXPECT_NEAR(exact.occupancy_distribution[s],
                  power.occupancy_distribution[s], 1e-9)
          << "state " << s;
      expect_rel_near(exact.occupancy_distribution[s], ref[s], 1e-12, s);
    }
  }
}

// Chains kAuto must not take for birth–death: it falls back to power
// iteration, bit for bit.
void expect_power_iteration_bits(const SolveResult& got,
                                 const SolveResult& power) {
  EXPECT_EQ(got.iterations, power.iterations);
  EXPECT_EQ(got.converged, power.converged);
  EXPECT_EQ(fnv1a(got.distribution), fnv1a(power.distribution));
}

TEST(SteadyStateAuto, NonBirthDeathChainsFallBackToPowerIteration) {
  const SolveOptions power = method(SteadyStateMethod::kPowerIteration);
  {  // band 4: entries two or more states off the diagonal
    const Dtmc d = banded_chain(300, 4);
    const SolveResult r = d.steady_state();
    EXPECT_GT(r.iterations, 0u);
    expect_power_iteration_bits(r, d.steady_state(power));
  }
  {  // tridiagonal, but state 20 cannot step down
    const std::size_t n = 50;
    Dtmc d(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double down = i > 0 && i != 20 ? 0.3 : 0.0;
      const double up = i + 1 < n ? 0.4 : 0.0;
      if (down > 0.0) d.set(i, i - 1, down);
      if (up > 0.0) d.set(i, i + 1, up);
      d.set(i, i, 1.0 - up - down);
    }
    const SolveResult r = d.steady_state();
    EXPECT_GT(r.iterations, 0u);
    expect_power_iteration_bits(r, d.steady_state(power));
  }
  {  // GoldenPins.CtmcTransient's chain: i -> i+3 jumps
    const std::size_t n = 40;
    Ctmc c(n);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      c.set_rate(i, i + 1, 3.0 + 0.1 * static_cast<double>(i % 5));
      c.set_rate(i + 1, i, 4.0);
      if (i + 3 < n) c.set_rate(i, i + 3, 0.25);
    }
    const SolveResult r = c.steady_state();
    EXPECT_GT(r.iterations, 0u);
    expect_power_iteration_bits(r, c.steady_state(power));
  }
}

TEST(SteadyStateAuto, PeriodicTwoStateDtmcSolves) {
  // Period 2: power iteration oscillates; the product form does not care.
  Dtmc d(2);
  d.set(0, 1, 1.0);
  d.set(1, 0, 1.0);
  const SolveResult r = d.steady_state();
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_EQ(r.distribution, (std::vector<double>{0.5, 0.5}));
}

TEST(SteadyStateAuto, DtmcBirthDeathMatchesDirectLu) {
  // Lazy walk with state-dependent steps: the product form reads P's
  // off-diagonals, whatever the self-loops.
  const std::size_t n = 120;
  Dtmc d(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double up = i + 1 < n ? 0.2 + 0.002 * static_cast<double>(i) : 0.0;
    const double down = i > 0 ? 0.35 : 0.0;
    if (up > 0.0) d.set(i, i + 1, up);
    if (down > 0.0) d.set(i, i - 1, down);
    d.set(i, i, 1.0 - up - down);
  }
  const SolveResult r = d.steady_state();
  const SolveResult lu = d.steady_state(method(SteadyStateMethod::kDirectLU));
  EXPECT_EQ(r.iterations, 0u);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(r.distribution[i], lu.distribution[i], 1e-10) << "state " << i;
  }
}

TEST(GoldenPins, IterativeSolversOnBandedDtmc) {
  const Dtmc d = banded_chain(300, 4);
  const SolveResult pw = d.steady_state(method(SteadyStateMethod::kPowerIteration));
  const SolveResult gs = d.steady_state(method(SteadyStateMethod::kGaussSeidel));
  ASSERT_TRUE(pw.converged);
  ASSERT_TRUE(gs.converged);
  EXPECT_EQ(pw.iterations, 3939u);
  EXPECT_EQ(gs.iterations, 946u);
  EXPECT_EQ(fnv1a(pw.distribution), 0xd2f9747417d5c600ULL);
  EXPECT_EQ(fnv1a(gs.distribution), 0xffdf2886b4455b85ULL);
}

TEST(Dtmc, GaussSeidelMatchesPowerIterationOnLargeChain) {
  // 1500 states: both iterative solvers land on the same fixpoint.
  const Dtmc d = banded_chain(1500, 4);
  const SolveResult pw = d.steady_state(method(SteadyStateMethod::kPowerIteration));
  const SolveResult gs = d.steady_state(method(SteadyStateMethod::kGaussSeidel));
  ASSERT_TRUE(pw.converged);
  ASSERT_TRUE(gs.converged);
  for (std::size_t i = 0; i < pw.distribution.size(); ++i) {
    EXPECT_NEAR(pw.distribution[i], gs.distribution[i], 1e-8) << "state " << i;
  }
}

TEST(GoldenPins, CtmcTransient) {
  const std::size_t n = 40;
  Ctmc c(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    c.set_rate(i, i + 1, 3.0 + 0.1 * static_cast<double>(i % 5));
    c.set_rate(i + 1, i, 4.0);
    if (i + 3 < n) c.set_rate(i, i + 3, 0.25);
  }
  std::vector<double> init(n, 0.0);
  init[0] = 0.5;
  init[7] = 0.5;
  EXPECT_EQ(fnv1a(c.transient(init, 0.5)), 0xa1b08ed91ace1b55ULL);
  EXPECT_EQ(fnv1a(c.transient(init, 6.0)), 0xfa8ec06986048aebULL);
}

TEST(GoldenPins, AbsorbingAnalysis) {
  // Biased walk on 0..24 with a lazy step; 0 and 24 absorb.
  const std::size_t n = 25;
  Dtmc d(n);
  d.set(0, 0, 1.0);
  d.set(n - 1, n - 1, 1.0);
  for (std::size_t i = 1; i + 1 < n; ++i) {
    d.set(i, i - 1, 0.35);
    d.set(i, i, 0.2);
    d.set(i, i + 1, 0.45);
  }
  std::vector<bool> absorbing(n, false);
  absorbing[0] = absorbing[n - 1] = true;
  const auto r = holms::markov::absorbing_analysis(d, absorbing);
  std::vector<double> probs;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t k = 0; k < r.absorbing_states.size(); ++k) {
      probs.push_back(r.absorption_probability.at(s, k));
    }
  }
  EXPECT_EQ(fnv1a(r.expected_steps), 0x63107d96f90cacd0ULL);
  EXPECT_EQ(fnv1a(probs), 0x196166d1dc723237ULL);
}

TEST(ProducerConsumer, BalancedPipelineIsSymmetric) {
  ProducerConsumerModel m;
  m.producer_rate = 2.0;
  m.consumer_rate = 2.0;
  m.buffer_capacity = 4;
  const auto r = m.analyze();
  EXPECT_NEAR(r.producer_blocked, r.consumer_idle, 1e-6);
  EXPECT_NEAR(r.mean_occupancy, 2.0, 1e-6);  // uniform over 0..4
}

TEST(ProducerConsumer, FastConsumerStarves) {
  ProducerConsumerModel m;
  m.producer_rate = 1.0;
  m.consumer_rate = 10.0;
  m.buffer_capacity = 4;
  const auto r = m.analyze();
  EXPECT_GT(r.consumer_idle, 0.8);
  EXPECT_LT(r.producer_blocked, 0.01);
  // Throughput limited by the producer.
  EXPECT_NEAR(r.throughput, 1.0, 0.01);
}

TEST(ProducerConsumer, SlowConsumerBlocksProducer) {
  ProducerConsumerModel m;
  m.producer_rate = 10.0;
  m.consumer_rate = 1.0;
  m.buffer_capacity = 4;
  const auto r = m.analyze();
  EXPECT_GT(r.producer_blocked, 0.8);
  EXPECT_NEAR(r.throughput, 1.0, 0.02);  // limited by the consumer
}

TEST(ProducerConsumer, BiggerBufferRaisesThroughput) {
  ProducerConsumerModel a, b;
  a.producer_rate = b.producer_rate = 2.0;
  a.consumer_rate = b.consumer_rate = 2.0;
  a.buffer_capacity = 1;
  b.buffer_capacity = 16;
  EXPECT_LT(a.analyze().throughput, b.analyze().throughput);
}

}  // namespace
