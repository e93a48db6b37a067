#pragma once
// Closed-form and chain-based queueing models (paper §2.1/§2.2).
//
// The Producer–Consumer paradigm with finite buffers is the paper's central
// modeling abstraction: "This communication process happens through dedicated
// buffers that behave like finite-length queues."  These models provide the
// analytical counterpart of the DES stream models in holms::stream, used in
// experiment E2 (analysis vs simulation accuracy/runtime).

#include <cstddef>
#include <vector>

#include "markov/chain.hpp"

namespace holms::markov {

/// Standard steady-state metrics of a queueing station.
struct QueueMetrics {
  double utilization = 0.0;       // fraction of time the server is busy
  double mean_queue_length = 0.0; // jobs in system (L)
  double mean_waiting_time = 0.0; // time in system (W = L / lambda_eff)
  double throughput = 0.0;        // accepted jobs per unit time
  double blocking_probability = 0.0;  // P(arrival finds system full)
};

/// M/M/1: Poisson arrivals (lambda), exponential service (mu), infinite
/// buffer.  Requires lambda < mu.
QueueMetrics mm1(double lambda, double mu);

/// M/M/1/K: finite buffer holding K jobs including the one in service.
/// Stable for any load; arrivals finding the system full are lost — the
/// paper's lossy Rx-buffer abstraction.
QueueMetrics mm1k(double lambda, double mu, std::size_t k);

/// Full stationary distribution of the M/M/1/K occupancy (size K+1).
std::vector<double> mm1k_distribution(double lambda, double mu, std::size_t k);

/// M/D/1 (deterministic service) via the Pollaczek–Khinchine formula:
/// the model for fixed-size packet transmission over a link.
QueueMetrics md1(double lambda, double service_time);

/// Two-stage producer–consumer pipeline with a finite buffer in between
/// (e.g. VLD -> B3 -> IDCT in Fig.1(b)).  Producer blocks when the buffer is
/// full; consumer idles when empty.  Exponential stage times.
struct ProducerConsumerModel {
  double producer_rate = 1.0;  // items/s produced when not blocked
  double consumer_rate = 1.0;  // items/s consumed when buffer non-empty
  std::size_t buffer_capacity = 1;

  /// Builds the occupancy CTMC (states = items in buffer, 0..capacity).
  Ctmc to_ctmc() const;

  struct Result {
    std::vector<double> occupancy_distribution;
    double mean_occupancy = 0.0;
    double throughput = 0.0;        // items/s through the consumer
    double producer_blocked = 0.0;  // fraction of time producer is blocked
    double consumer_idle = 0.0;     // fraction of time consumer is starved
  };
  /// The occupancy chain is birth–death, so the default options solve it
  /// by its product form in O(capacity).
  Result analyze(const SolveOptions& opts = {}) const;
};

}  // namespace holms::markov
