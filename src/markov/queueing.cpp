#include "markov/queueing.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "exec/error.hpp"

namespace holms::markov {

QueueMetrics mm1(double lambda, double mu) {
  if (!(lambda >= 0.0) || !(mu > 0.0)) {
    throw holms::InvalidArgument("mm1: need lambda >= 0, mu > 0");
  }
  if (lambda >= mu) throw holms::InvalidArgument("mm1: unstable (rho >= 1)");
  const double rho = lambda / mu;
  QueueMetrics m;
  m.utilization = rho;
  m.mean_queue_length = rho / (1.0 - rho);
  m.mean_waiting_time = lambda > 0.0 ? m.mean_queue_length / lambda : 1.0 / mu;
  m.throughput = lambda;
  m.blocking_probability = 0.0;
  return m;
}

std::vector<double> mm1k_distribution(double lambda, double mu,
                                      std::size_t k) {
  if (!(lambda >= 0.0) || !(mu > 0.0) || k == 0) {
    throw holms::InvalidArgument("mm1k: need lambda >= 0, mu > 0, k >= 1");
  }
  const double rho = lambda / mu;
  std::vector<double> pi(k + 1);
  if (std::abs(rho - 1.0) < 1e-12) {
    const double p = 1.0 / static_cast<double>(k + 1);
    for (double& x : pi) x = p;
    return pi;
  }
  // Geometric, built from the end whose terms shrink: for rho > 1 at large k,
  // rho^(k+1) overflows, so pi is built down from pi[k] in powers of 1/rho.
  const bool from_top = rho > 1.0;
  const double r = from_top ? mu / lambda : rho;
  double acc = (1.0 - r) / (1.0 - std::pow(r, static_cast<double>(k + 1)));
  for (std::size_t n = 0; n <= k; ++n) {
    pi[from_top ? k - n : n] = acc;
    acc *= r;
  }
  return pi;
}

QueueMetrics mm1k(double lambda, double mu, std::size_t k) {
  const std::vector<double> pi = mm1k_distribution(lambda, mu, k);
  QueueMetrics m;
  m.blocking_probability = pi.back();
  m.utilization = 1.0 - pi.front();
  for (std::size_t n = 0; n < pi.size(); ++n)
    m.mean_queue_length += static_cast<double>(n) * pi[n];
  const double lambda_eff = lambda * (1.0 - m.blocking_probability);
  m.throughput = lambda_eff;
  m.mean_waiting_time =
      lambda_eff > 0.0 ? m.mean_queue_length / lambda_eff : 0.0;
  return m;
}

QueueMetrics md1(double lambda, double service_time) {
  if (!(lambda >= 0.0) || !(service_time > 0.0)) {
    throw holms::InvalidArgument("md1: need lambda >= 0, service_time > 0");
  }
  const double rho = lambda * service_time;
  if (rho >= 1.0) throw holms::InvalidArgument("md1: unstable (rho >= 1)");
  QueueMetrics m;
  m.utilization = rho;
  // Pollaczek–Khinchine for M/G/1 with Var(S) = 0:
  // Lq = rho^2 / (2 (1 - rho)); L = Lq + rho.
  m.mean_queue_length = rho + rho * rho / (2.0 * (1.0 - rho));
  m.mean_waiting_time = lambda > 0.0 ? m.mean_queue_length / lambda
                                     : service_time;
  m.throughput = lambda;
  return m;
}

Ctmc ProducerConsumerModel::to_ctmc() const {
  assert(buffer_capacity >= 1);
  const std::size_t n = buffer_capacity + 1;
  Ctmc c(n);
  for (std::size_t s = 0; s < n; ++s) {
    if (s < buffer_capacity) c.set_rate(s, s + 1, producer_rate);
    if (s > 0) c.set_rate(s, s - 1, consumer_rate);
  }
  return c;
}

ProducerConsumerModel::Result ProducerConsumerModel::analyze(
    const SolveOptions& opts) const {
  const SolveResult ss = to_ctmc().steady_state(opts);
  Result r;
  r.occupancy_distribution = ss.distribution;
  for (std::size_t s = 0; s < r.occupancy_distribution.size(); ++s)
    r.mean_occupancy +=
        static_cast<double>(s) * r.occupancy_distribution[s];
  r.producer_blocked = r.occupancy_distribution.back();
  r.consumer_idle = r.occupancy_distribution.front();
  r.throughput = consumer_rate * (1.0 - r.consumer_idle);
  return r;
}

}  // namespace holms::markov
