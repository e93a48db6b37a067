// analyze_buffer: the §2.2/§3.2 analytic flow.  A long-range-dependent
// input trace (traffic::fgn_hosking), then a Hurst estimate of it and a
// buffer-sizing sweep of markov::ProducerConsumerModel::analyze at
// utilisation 0.85, up to a 4096-state chain.
//
// Why this workload: markov and traffic have no consumer in src/, so no
// other workload touches them.  The chain is stored dense, so the largest
// point also sets this workload's peak memory.
//
// Setup is the input: the sweep plan and the fGn trace.  The timed job is
// the analysis of that trace, with default SolveOptions (the serial sweep
// a caller gets without asking for threads).

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "bench.hpp"
#include "exec/metrics.hpp"
#include "exec/rng_stream.hpp"
#include "markov/queueing.hpp"
#include "trace.hpp"
#include "traffic/selfsim.hpp"

namespace perfbench {
namespace {

using namespace holms;

constexpr std::size_t kTraceSamples = 4096;
constexpr std::size_t kCapacities[] = {63, 255, 1023, 4095};
/// Power-iteration sweeps grow with capacity / (1 - utilisation); 0.85
/// keeps the 4096-state solve near two seconds.
constexpr double kUtilisation = 0.85;
/// Sizing target: the smallest swept buffer whose producer-blocking
/// probability is at or below this.
constexpr double kBlockingTarget = 1e-4;

struct Inputs {
  double hurst = 0.0;  // generating H of the trace
  double consumer_rate = 0.0;
  std::vector<double> trace;
};

Inputs build_inputs(std::uint64_t seed, Tracer* tr, std::uint64_t job,
                    double* fgn_s) {
  Inputs in;
  sim::Rng rng(exec::stream_seed(seed, 20));
  in.hurst = rng.uniform(0.7, 0.8);
  in.consumer_rate = rng.uniform(800.0, 1200.0);
  ScopedSpan s(tr, "traffic.fgn_hosking", -1, job);
  const double t0 = wall_s();
  sim::Rng trace_rng(exec::stream_seed(seed, 21));
  in.trace = traffic::fgn_hosking(kTraceSamples, in.hurst, trace_rng);
  *fgn_s = wall_s() - t0;
  return in;
}

markov::ProducerConsumerModel model(const Inputs& in, std::size_t capacity) {
  markov::ProducerConsumerModel m;
  m.consumer_rate = in.consumer_rate;
  m.producer_rate = kUtilisation * in.consumer_rate;
  m.buffer_capacity = capacity;
  return m;
}

struct Flow {
  double hurst_estimate = 0.0;
  std::vector<markov::ProducerConsumerModel::Result> points;
  std::size_t sized_capacity = 0;  // 0 = no swept buffer meets the target
};

Flow sized_capacity(Flow f) {
  for (std::size_t i = 0; i < f.points.size(); ++i) {
    if (f.points[i].producer_blocked <= kBlockingTarget) {
      f.sized_capacity = kCapacities[i];
      break;
    }
  }
  return f;
}

/// The flow as a user calls it.
Flow run_flow(const Inputs& in) {
  Flow f;
  f.hurst_estimate = traffic::hurst_rs(in.trace);
  for (std::size_t k : kCapacities) {
    f.points.push_back(model(in, k).analyze());
  }
  return sized_capacity(std::move(f));
}

struct LayerClock {
  double hurst = 0.0, build = 0.0, solve = 0.0;
  double sweeps = 0.0;
  bool converged = true;
};

/// The same flow with spans around each library call; analyze() is split
/// into its public halves (to_ctmc, steady_state) so build and solve time
/// and the sweep count are visible.
Flow traced_flow(const Inputs& in, Tracer* tr, std::uint64_t job,
                 LayerClock& clk) {
  ScopedSpan root(tr, "markov.buffer_flow", -1, job);
  Flow f;
  {
    ScopedSpan s(tr, "traffic.hurst_rs", root.id(), job);
    const double t0 = wall_s();
    f.hurst_estimate = traffic::hurst_rs(in.trace);
    clk.hurst += wall_s() - t0;
  }
  for (std::size_t k : kCapacities) {
    const markov::ProducerConsumerModel m = model(in, k);
    std::optional<markov::Ctmc> chain;
    {
      ScopedSpan s(tr, "markov.to_ctmc", root.id(), k);
      const double t0 = wall_s();
      chain.emplace(m.to_ctmc());
      clk.build += wall_s() - t0;
    }
    markov::SolveResult ss;
    {
      ScopedSpan s(tr, "markov.steady_state", root.id(), k);
      const double t0 = wall_s();
      ss = chain->steady_state();
      clk.solve += wall_s() - t0;
    }
    clk.sweeps += static_cast<double>(ss.iterations);
    clk.converged = clk.converged && ss.converged;
    // analyze()'s derivation from the distribution.
    markov::ProducerConsumerModel::Result r;
    r.occupancy_distribution = ss.distribution;
    for (std::size_t s = 0; s < r.occupancy_distribution.size(); ++s) {
      r.mean_occupancy += static_cast<double>(s) * r.occupancy_distribution[s];
    }
    r.producer_blocked = r.occupancy_distribution.back();
    r.consumer_idle = r.occupancy_distribution.front();
    r.throughput = m.consumer_rate * (1.0 - r.consumer_idle);
    f.points.push_back(std::move(r));
  }
  return sized_capacity(std::move(f));
}

bool close(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

void check_flow(RunResult& out, const Inputs& in, const Flow& f) {
  out.check(std::abs(f.hurst_estimate - in.hurst) <= 0.1,
            "traffic: Hurst estimate further than 0.1 from the generating H");
  for (std::size_t i = 0; i < f.points.size(); ++i) {
    const auto& r = f.points[i];
    double sum = 0.0;
    for (double x : r.occupancy_distribution) sum += x;
    const markov::ProducerConsumerModel m = model(in, kCapacities[i]);
    const markov::QueueMetrics ref =
        markov::mm1k(m.producer_rate, m.consumer_rate, m.buffer_capacity);
    out.check(r.occupancy_distribution.size() == kCapacities[i] + 1 &&
                  std::abs(sum - 1.0) <= 1e-9 &&
                  close(r.throughput, ref.throughput, 1e-6) &&
                  close(r.mean_occupancy, ref.mean_queue_length, 1e-6),
              "markov: solve disagrees with the closed-form M/M/1/K");
  }
  out.check(f.sized_capacity > 0, "markov: no swept buffer meets the target");
}

bool same(const Flow& a, const Flow& b) {
  if (a.hurst_estimate != b.hurst_estimate ||
      a.sized_capacity != b.sized_capacity ||
      a.points.size() != b.points.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    if (a.points[i].occupancy_distribution !=
            b.points[i].occupancy_distribution ||
        a.points[i].throughput != b.points[i].throughput) {
      return false;
    }
  }
  return true;
}

}  // namespace

RunResult run_analyze_buffer(const RunConfig& cfg) {
  RunResult out;
  out.job_name = "analyze_s";
  const bool traced = cfg.tracer != nullptr;
  std::optional<Flow> first;
  double fgn_s = 0.0;
  auto rep = [&](std::size_t) {
    const double t0 = wall_s();
    const Inputs in = build_inputs(cfg.seed, nullptr, 0, &fgn_s);
    out.setup_s.push_back(wall_s() - t0);
    const double t1 = wall_s();
    const Flow f = run_flow(in);
    out.job_s.push_back(wall_s() - t1);
    check_flow(out, in, f);
    if (!first) first = f;
    out.check(same(f, *first), "analyze: result differs across repetitions");
  };

  // No warm-up repetition: every solve allocates its chains afresh, so the
  // first repetition pays nothing the later ones do not.
  repeat_for(traced ? cfg.seconds / 2 : cfg.seconds, traced ? 2 : 5, rep);
  out.output("analyze_sized_capacity", static_cast<double>(first->sized_capacity),
             "states");
  out.output("analyze_hurst_estimate", first->hurst_estimate, "H");
  if (!traced) return out;

  // ---- traced pass --------------------------------------------------------
  Tracer& tr = *cfg.tracer;
  exec::MetricsRegistry registry;
  LayerClock clk;
  std::vector<double> traced_s, fgn;
  bool matches = true;
  {
    exec::ScopedMetricsSink sink(registry);
    repeat_for(cfg.seconds / 2, 2, [&](std::size_t i) {
      const Inputs in = build_inputs(cfg.seed, &tr, i, &fgn_s);
      fgn.push_back(fgn_s);
      const double t0 = wall_s();
      const Flow f = traced_flow(in, &tr, i, clk);
      traced_s.push_back(wall_s() - t0);
      matches = matches && same(f, *first);
    });
  }
  out.check(clk.converged, "markov: a steady-state solve did not converge");
  out.check(matches, "analyze: split build/solve differs from analyze()");
  const double n = static_cast<double>(traced_s.size());
  out.layer("traffic.fgn_s", median(fgn), "s");
  out.layer("traffic.hurst_s", clk.hurst / n, "s");
  out.layer("markov.build_s", clk.build / n, "s");
  out.layer("markov.solve_s", clk.solve / n, "s");
  out.layer("markov.sweeps", clk.sweeps / n, "count");
  out.layer("markov.sweeps_per_s", clk.sweeps / clk.solve, "1/s");
  out.layer("markov.sharded_solves",
            static_cast<double>(registry.counter("markov.sharded_solves").value()) / n,
            "count");
  out.layer("trace_overhead_frac", median(traced_s) / median(out.job_s) - 1.0,
            "ratio");
  add_self_times(out, tr, n, {"traffic", "markov"});
  return out;
}

}  // namespace perfbench
