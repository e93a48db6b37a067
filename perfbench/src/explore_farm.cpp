// explore_farm: robustness-aware design-space exploration on the
// bandwidth-capped 32x32 surveillance farm.
//
// Why this workload: it is the only one on which the NoC mappers (greedy,
// SA, random), core pricing and its EvalCache, the ambient fault replay and
// the exec pool all do the work.  The link cap sits below the greedy
// mapping's busiest link, so greedy is infeasible and the SA restarts set
// the result; SA and replay are sized so neither is a negligible share.
//
// End-to-end pass: explore() called as a user would (it builds its own
// route table), timed per call.  Traced pass: the same explore() stages
// replayed from the public functions on the same pool, with spans around
// every call, and checked against explore()'s result (core.replay_matches).

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "core/explorer.hpp"
#include "exec/metrics.hpp"
#include "exec/rng_stream.hpp"
#include "exec/thread_pool.hpp"
#include "fault/schedule.hpp"
#include "noc/taskgraph.hpp"
#include "noc/topology.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace holms;

constexpr std::size_t kCameras = 46;  // 202 tasks
constexpr std::size_t kMeshSide = 32;
constexpr std::size_t kRestarts = 4;
constexpr std::size_t kSaIterations = 100000;
constexpr std::size_t kReplicas = 2;
constexpr double kReplayHorizonS = 3600.0;  // 3600 periods of 1 s
constexpr double kTileMtbfS = 2.0e4;
constexpr double kTileMttrS = 60.0;

/// Everything explore() reads.  Heap-pinned: the options point at the
/// scenario and the scenario at the schedule.
struct Inputs {
  core::Application app;
  core::Platform platform;
  fault::FaultSchedule schedule;
  core::FaultScenario scenario;
  core::ExploreOptions opts;
  std::uint64_t explore_seed = 0;
};

std::unique_ptr<Inputs> build_inputs(std::uint64_t seed, exec::ThreadPool& pool,
                                     Tracer* tracer, double* schedule_s) {
  auto in = std::make_unique<Inputs>();
  in->app.name = "surveillance-farm";
  in->app.graph = noc::surveillance_farm_graph(kCameras);
  in->app.qos.period_s = 1.0;

  // The bench_explore_parallel farm platform: wire-dominated flit energies (x100) so the
  // mapping matters, and a 240 Mbps link cap, ~60% of the greedy packing's
  // busiest link, so the greedy seed is infeasible.
  in->platform = core::Platform::homogeneous(kMeshSide, kMeshSide);
  in->platform.noc_energy.e_router_pj *= 100.0;
  in->platform.noc_energy.e_link_pj *= 100.0;
  in->platform.noc_energy.e_buffer_pj *= 100.0;
  in->platform.link_bandwidth_bps = 2.4e8;

  {
    ScopedSpan span(tracer, "fault.schedule_build");
    const double t0 = wall_s();
    fault::FaultSchedule::PoissonSpec spec;
    spec.target = fault::Target::kTile;
    spec.num_targets = in->platform.mesh.num_tiles();
    spec.fail_rate = 1.0 / kTileMtbfS;
    spec.repair_rate = 1.0 / kTileMttrS;
    spec.horizon = kReplayHorizonS;
    in->schedule =
        fault::FaultSchedule::poisson(exec::stream_seed(seed, 1), spec);
    *schedule_s = wall_s() - t0;
  }

  in->scenario.ambient.duration_s = kReplayHorizonS;
  in->scenario.ambient.seed = exec::stream_seed(seed, 2);
  in->scenario.policy = core::FaultPolicy::kAdaptiveRemap;
  in->scenario.replicas = kReplicas;
  in->scenario.schedule = &in->schedule;
  in->scenario.slo_window = 60;
  in->scenario.slo_target = 0.99;

  in->opts.restarts = kRestarts;
  in->opts.sa.iterations = kSaIterations;
  // The refinement regime of the island bench: a cool start keeps the chain
  // near the greedy packing, cluster moves drain saturated links.
  in->opts.sa.initial_temperature = 0.02;
  in->opts.sa.w_cluster_relocate = 0.3;
  in->opts.pool = &pool;
  in->opts.faults = &in->scenario;
  in->explore_seed = exec::stream_seed(seed, 3);
  return in;
}

bool dominates(const core::DesignCandidate& a, const core::DesignCandidate& b) {
  const double ea = a.eval.total_energy_j, eb = b.eval.total_energy_j;
  const double ma = a.eval.schedule.makespan_s, mb = b.eval.schedule.makespan_s;
  return ea <= eb && ma <= mb && (ea < eb || ma < mb);
}

/// Digest of every field of a result the checks compare bitwise.
std::uint64_t result_digest(const core::ExploreResult& r) {
  auto mix = [](std::uint64_t h, std::uint64_t v) {
    return exec::splitmix64(h ^ exec::splitmix64(v));
  };
  auto mixc = [&](std::uint64_t h, const core::DesignCandidate& c) {
    h = mix(h, core::mapping_digest(c.mapping));
    h = mix(h, c.use_dvs);
    h = mix(h, c.eval.feasible);
    h = mix(h, std::bit_cast<std::uint64_t>(c.eval.total_energy_j));
    h = mix(h, std::bit_cast<std::uint64_t>(c.eval.schedule.makespan_s));
    h = mix(h, std::bit_cast<std::uint64_t>(c.availability));
    h = mix(h, std::bit_cast<std::uint64_t>(c.slo_fraction));
    return mix(h, std::bit_cast<std::uint64_t>(c.worst_window_availability));
  };
  std::uint64_t h = mix(0x6578706c6f7265ULL, r.evaluated);
  h = mix(h, r.found_feasible);
  h = mixc(h, r.best);
  for (const core::DesignCandidate& c : r.pareto) h = mixc(h, c);
  return h;
}

/// Output checks of one explore() result; returns its digest.
std::uint64_t check_result(RunResult& out, const core::ExploreResult& r) {
  bool front_ok = !r.pareto.empty();
  for (std::size_t i = 0; i < r.pareto.size(); ++i) {
    front_ok = front_ok && r.pareto[i].eval.feasible;
    if (i > 0) {
      front_ok = front_ok && r.pareto[i - 1].eval.total_energy_j <=
                                 r.pareto[i].eval.total_energy_j;
    }
    for (std::size_t j = 0; j < r.pareto.size(); ++j) {
      front_ok = front_ok && (i == j || !dominates(r.pareto[i], r.pareto[j]));
    }
  }
  const bool best_ok = r.found_feasible && r.best.eval.feasible &&
                       !r.pareto.empty() &&
                       r.best.eval.total_energy_j ==
                           r.pareto.front().eval.total_energy_j;
  out.check(best_ok && front_ok,
            "explore: best design infeasible or Pareto front not sorted and "
            "non-dominated");
  return result_digest(r);
}

struct StageClock {
  double wall = 0.0;
  /// Process CPU time over the stage: the busy time of every pool thread
  /// (idle workers block).  Kept for the fault stage, whose replays run
  /// inside one score_fault_robustness call and cannot be spanned.
  double cpu = 0.0;
};

struct StageClocks {
  StageClock mapping, pricing, fault;
};

/// explore()'s stages rebuilt from the public functions, in explore()'s
/// order and with its stream layout, on the same pool.
core::ExploreResult replay(const Inputs& in, exec::ThreadPool& pool,
                           Tracer* tr, std::uint64_t job, StageClocks& clk) {
  ScopedSpan root(tr, "core.explore_replay", -1, job);
  sim::Rng rng(in.explore_seed);
  const std::uint64_t stream_base = rng.bits();
  const core::Application& app = in.app;
  const core::Platform& plat = in.platform;

  std::optional<noc::XyRouteTable> routes;
  {
    ScopedSpan s(tr, "noc.route_table", root.id(), job);
    routes.emplace(plat.mesh);
  }
  noc::SaOptions sa = in.opts.sa;
  sa.link_capacity_bps = plat.link_bandwidth_bps;
  sa.routes = &*routes;

  const std::size_t num_mappings = 1 + 2 * in.opts.restarts;
  std::vector<noc::Mapping> mappings;
  {
    ScopedSpan stage(tr, "core.mapping_stage", root.id(), job);
    mappings = exec::parallel_transform<noc::Mapping>(
        &pool, num_mappings, [&](std::size_t i) {
          if (i == 0) {
            ScopedSpan s(tr, "noc.greedy_mapping", stage.id(), i);
            return noc::greedy_mapping(app.graph, plat.mesh, plat.noc_energy);
          }
          sim::Rng stream(exec::stream_seed(stream_base, i));
          if ((i - 1) % 2 == 0) {
            ScopedSpan s(tr, "noc.sa_mapping", stage.id(), i);
            return noc::sa_mapping(app.graph, plat.mesh, plat.noc_energy,
                                   stream, sa);
          }
          ScopedSpan s(tr, "noc.random_mapping", stage.id(), i);
          return noc::random_mapping(app.graph.num_nodes(), plat.mesh, stream);
        });
    clk.mapping.wall += stage.elapsed();
  }

  struct Job {
    std::size_t mapping;
    bool use_dvs;
  };
  std::vector<Job> jobs;
  for (std::size_t m = 0; m < num_mappings; ++m) {
    jobs.push_back({m, true});
    if (in.opts.try_both_schedulers) jobs.push_back({m, false});
  }
  std::vector<core::DesignCandidate> candidates(jobs.size());
  {
    ScopedSpan stage(tr, "core.pricing_stage", root.id(), job);
    core::EvalCache cache;
    const std::uint64_t app_fp = core::app_fingerprint(app);
    const std::uint64_t plat_fp = core::platform_fingerprint(plat);
    std::vector<core::Evaluation> evals =
        exec::parallel_transform<core::Evaluation>(
            &pool, jobs.size(), [&](std::size_t j) {
              ScopedSpan s(tr, "core.evaluate", stage.id(), j);
              return cache.evaluate(app, app_fp, plat, plat_fp,
                                    mappings[jobs[j].mapping], jobs[j].use_dvs);
            });
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      candidates[j].mapping = mappings[jobs[j].mapping];
      candidates[j].use_dvs = jobs[j].use_dvs;
      candidates[j].eval = std::move(evals[j]);
    }
    clk.pricing.wall += stage.elapsed();
  }
  {
    ScopedSpan stage(tr, "core.fault_stage", root.id(), job);
    const double c0 = cpu_s();
    core::score_fault_robustness(app, plat, in.scenario, &pool, candidates);
    clk.fault.cpu += cpu_s() - c0;
    clk.fault.wall += stage.elapsed();
  }

  core::ExploreResult out;
  out.evaluated = jobs.size();
  core::ParetoAccumulator acc;
  for (core::DesignCandidate& c : candidates) acc.merge(std::move(c));
  out.best = std::move(acc.best);
  out.found_feasible = acc.found_feasible;
  out.pareto = std::move(acc.front);
  std::sort(out.pareto.begin(), out.pareto.end(),
            [](const core::DesignCandidate& a, const core::DesignCandidate& b) {
              return a.eval.total_energy_j < b.eval.total_energy_j;
            });
  return out;
}

double counter(exec::MetricsRegistry& r, const char* name) {
  return static_cast<double>(r.counter(name).value());
}

}  // namespace

RunResult run_explore_farm(const RunConfig& cfg) {
  RunResult out;
  out.job_name = "explore_s";
  exec::ThreadPool pool(cfg.threads);
  const bool traced = cfg.tracer != nullptr;

  double schedule_s = 0.0;
  std::unique_ptr<Inputs> in;
  std::optional<std::uint64_t> first_digest;
  double best_energy = 0.0;
  // One input build per repetition: setup_s is their median.
  auto untraced_rep = [&](std::size_t) {
    double t0 = wall_s();
    in = build_inputs(cfg.seed, pool, nullptr, &schedule_s);
    out.setup_s.push_back(wall_s() - t0);
    sim::Rng rng(in->explore_seed);
    t0 = wall_s();
    const core::ExploreResult r = core::explore(in->app, in->platform, rng,
                                                in->opts);
    out.job_s.push_back(wall_s() - t0);
    const std::uint64_t d = check_result(out, r);
    if (!first_digest) first_digest = d;
    out.check(d == *first_digest, "explore: result differs across repetitions");
    best_energy = r.best.eval.total_energy_j;
  };

  // Warm-up (page faults, allocator growth), checked but not timed.
  untraced_rep(0);
  out.setup_s.clear();
  out.job_s.clear();
  repeat_for(traced ? cfg.seconds / 2 : cfg.seconds, traced ? 2 : 5,
             untraced_rep);
  out.output("explore_best_energy_j", best_energy, "J");
  if (!traced) return out;

  // ---- traced pass --------------------------------------------------------
  Tracer& tr = *cfg.tracer;
  exec::MetricsRegistry registry;
  StageClocks clk;
  std::vector<double> traced_s;
  std::vector<double> schedule_build;
  bool matches = true;
  {
    exec::ScopedMetricsSink sink(registry);
    repeat_for(cfg.seconds / 2, 2, [&](std::size_t rep) {
      in = build_inputs(cfg.seed, pool, &tr, &schedule_s);
      schedule_build.push_back(schedule_s);
      const double t0 = wall_s();
      const core::ExploreResult r = replay(*in, pool, &tr, rep, clk);
      traced_s.push_back(wall_s() - t0);
      matches = matches && result_digest(r) == *first_digest;
    });
  }
  out.check(matches, "explore: traced stage replay differs from explore()");
  const double reps = static_cast<double>(traced_s.size());
  const double threads = static_cast<double>(pool.size());

  const double sa_busy = tr.total("noc.sa_mapping") / reps;
  const double accepted = counter(registry, "sa.moves_accepted");
  const double moves = accepted + counter(registry, "sa.moves_rejected");
  const double hits = counter(registry, "explore.cache_hits");
  const double lookups = hits + counter(registry, "explore.cache_misses");
  const double replays = counter(registry, "explore.fault_replicas");
  const double reused = counter(registry, "explore.fault_replays_reused");
  const double mapping_busy = (tr.total("noc.greedy_mapping") +
                               tr.total("noc.sa_mapping") +
                               tr.total("noc.random_mapping")) / reps;

  out.layer("noc.route_table_s", tr.total("noc.route_table") / reps, "s");
  out.layer("noc.greedy_s", tr.total("noc.greedy_mapping") / reps, "s");
  out.layer("noc.sa_busy_s", sa_busy, "s");
  out.layer("noc.sa_moves_per_s", moves / reps / sa_busy, "1/s");
  out.layer("noc.sa_accept_ratio", moves > 0 ? accepted / moves : 0.0, "ratio");
  out.layer("core.mapping_stage_s", clk.mapping.wall / reps, "s");
  out.layer("core.pricing_stage_s", clk.pricing.wall / reps, "s");
  out.layer("core.fault_stage_s", clk.fault.wall / reps, "s");
  out.layer("core.evaluate_calls",
            static_cast<double>(tr.count("core.evaluate")) / reps, "count");
  out.layer("core.evaluate_busy_s", tr.total("core.evaluate") / reps, "s");
  out.layer("core.cache_hit_rate", lookups > 0 ? hits / lookups : 0.0, "ratio");
  out.layer("core.ambient_busy_s", clk.fault.cpu / reps, "s");
  out.layer("core.fault_replay_reuse_ratio",
            replays + reused > 0 ? reused / (replays + reused) : 0.0, "ratio");
  out.layer("core.replay_matches", matches ? 1.0 : 0.0, "bool");
  out.layer("exec.pool_util_mapping",
            mapping_busy / (clk.mapping.wall / reps * threads), "ratio");
  out.layer("exec.pool_util_fault",
            clk.fault.cpu / (clk.fault.wall * threads), "ratio");
  out.layer("fault.schedule_build_s", median(schedule_build), "s");
  out.layer("trace_overhead_frac", median(traced_s) / median(out.job_s) - 1.0,
            "ratio");
  add_self_times(out, tr, reps, {"noc", "core", "fault"});
  return out;
}

}  // namespace perfbench
