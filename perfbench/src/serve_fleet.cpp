// serve_mixed and serve_fgs: one ServiceManager fleet per repetition.
//
// serve_mixed — why: MPEG-2 decoder sessions sit in every locality, so every
// locality takes the event-driven (DES) path.  The sim kernel, the stream
// MPEG-2 networks, per-session streaming steps and fault-driven shedding do
// the work; the wave scheduler is bypassed.  FGS policies are mixed, node
// faults hit localities during the window and the degrade watermark sits
// below the offered load, so sessions are shed onto the degradation ladder.
//
// serve_fgs — why: a uniform pure-FGS fleet (one slot length, no slicing,
// no dispatch quantum), so every locality takes the wave path
// (FgsSessionFom::step_batch + SIMD fgs_slots).  Same serve layer, used
// differently: a DES-dispatch change should not move it, while generalising
// or deleting the waves should.  sim.events_executed shows which path ran.
//
// A ServiceManager runs once, so every repetition admits a fresh fleet;
// setup_s is that admission (plus the fault schedule), job_s is run().

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bench.hpp"
#include "dvfs/dvfs.hpp"
#include "exec/metrics.hpp"
#include "exec/rng_stream.hpp"
#include "fault/schedule.hpp"
#include "serve/service.hpp"
#include "stream/mpeg2.hpp"
#include "streaming/fgs.hpp"
#include "trace.hpp"
#include "traffic/video.hpp"

namespace perfbench {
namespace {

using namespace holms;

constexpr std::size_t kLocalities = 16;
constexpr std::size_t kFgsSessions = 12288;
constexpr std::size_t kSlots = 200;          // 100 s at the default 0.5 s slot
constexpr std::size_t kMpeg2PerLocality = 2;
constexpr std::size_t kMpeg2Frames = 3000;  // the whole window at 30 fps
constexpr double kDegradeWatermark = 0.8;    // of the admission cap
constexpr double kNodeMtbfS = 150.0;         // per locality
constexpr double kNodeMttrS = 20.0;

constexpr streaming::FgsPolicy kPolicyMix[4] = {
    streaming::FgsPolicy::kClientFeedback, streaming::FgsPolicy::kClientFeedback,
    streaming::FgsPolicy::kNonAdaptive,
    streaming::FgsPolicy::kGracefulDegradation};

struct FleetSpec {
  bool mixed = false;  // MPEG-2 in every locality + faults + shedding
  std::uint64_t seed = 0;
  std::size_t threads = 1;
};

double horizon_s() {
  return static_cast<double>(kSlots) * streaming::FgsConfig{}.slot_s + 5.0;
}

std::size_t mpeg2_sessions(const FleetSpec& f) {
  return f.mixed ? kLocalities * kMpeg2PerLocality : 0;
}

fault::FaultSchedule node_faults(std::uint64_t seed) {
  fault::FaultSchedule::PoissonSpec spec;
  spec.target = fault::Target::kNode;
  spec.num_targets = kLocalities;
  spec.fail_rate = 1.0 / kNodeMtbfS;
  spec.repair_rate = 1.0 / kNodeMttrS;
  spec.horizon = horizon_s();
  return fault::FaultSchedule::poisson(exec::stream_seed(seed, 11), spec);
}

serve::ServeOptions options(const FleetSpec& f) {
  serve::ServeOptions o;
  o.localities = kLocalities;
  o.threads = f.threads;
  // The cap admits the whole offered fleet, so nothing is refused; in the
  // mixed fleet the watermark then forces the last fifth onto the ladder.
  o.max_sessions = kFgsSessions + mpeg2_sessions(f);
  o.degrade_watermark = f.mixed ? kDegradeWatermark : 1.0;
  o.fault_loss = 0.35;
  o.seed = exec::stream_seed(f.seed, 10);
  return o;
}

/// A fleet ready to run.  The schedule must outlive the manager.
struct Fleet {
  std::unique_ptr<fault::FaultSchedule> faults;
  std::unique_ptr<serve::ServiceManager> manager;
  double schedule_s = 0.0;
  double admit_s = 0.0;
};

Fleet admit(const FleetSpec& f, Tracer* tr, std::uint64_t job) {
  Fleet fleet;
  const serve::ServeOptions o = options(f);
  if (f.mixed) {
    ScopedSpan s(tr, "fault.schedule_build", -1, job);
    const double t0 = wall_s();
    fleet.faults = std::make_unique<fault::FaultSchedule>(node_faults(f.seed));
    fleet.schedule_s = wall_s() - t0;
  }
  ScopedSpan s(tr, "serve.admit", -1, job);
  const double t0 = wall_s();
  fleet.manager = std::make_unique<serve::ServiceManager>(o);
  if (fleet.faults) fleet.manager->attach_fault_schedule(fleet.faults.get());
  // MPEG-2 first: consecutive ids land on consecutive localities, so every
  // locality hosts kMpeg2PerLocality decoder networks.
  const stream::Mpeg2Config mcfg;
  const traffic::VideoTraceGenerator::Params vp;
  for (std::size_t i = 0; i < mpeg2_sessions(f); ++i) {
    fleet.manager->add_mpeg2_session(mcfg, vp, kMpeg2Frames);
  }
  const streaming::FgsConfig cfg;
  for (std::size_t i = 0; i < kFgsSessions; ++i) {
    fleet.manager->add_fgs_session(kPolicyMix[i % 4], cfg, kSlots);
  }
  fleet.admit_s = wall_s() - t0;
  return fleet;
}

/// One FGS client outside the service layer, for the streaming probes.
struct Client {
  explicit Client(std::uint64_t seed, std::size_t i)
      : cpu(dvfs::xscale_points(), dvfs::PowerModel{}),
        channel(sim::Rng(exec::stream_seed(seed, i))),
        fom(kPolicyMix[i % 4], streaming::FgsConfig{}, cpu, channel, kSlots) {}
  dvfs::Processor cpu;
  streaming::ChannelTrace channel;
  streaming::FgsSessionFom fom;
};

constexpr std::size_t kProbeClients = 768;  // one locality's share

std::vector<std::unique_ptr<Client>> probe_clients(std::uint64_t seed) {
  std::vector<std::unique_ptr<Client>> c;
  for (std::size_t i = 0; i < kProbeClients; ++i) {
    c.push_back(std::make_unique<Client>(seed, i));
  }
  return c;
}

/// ns per FgsSessionFom::step() over whole sessions, one client at a time.
double fgs_step_ns(std::uint64_t seed, Tracer* tr) {
  std::vector<std::unique_ptr<Client>> clients = probe_clients(seed);
  ScopedSpan s(tr, "streaming.fgs_step");
  const double t0 = wall_s();
  std::uint64_t steps = 0;
  for (auto& c : clients) {
    while (c->fom.step() >= 0.0) ++steps;
    ++steps;
  }
  return 1e9 * (wall_s() - t0) / static_cast<double>(steps);
}

/// ns per session-slot of FgsSessionFom::step_batch, stepping the clients
/// in lockstep waves as the serve wave path does.
double fgs_batch_ns(std::uint64_t seed, Tracer* tr) {
  std::vector<std::unique_ptr<Client>> clients = probe_clients(seed);
  std::vector<streaming::FgsSessionFom*> active;
  for (auto& c : clients) {
    c->fom.step();  // kInit
    active.push_back(&c->fom);
  }
  ScopedSpan s(tr, "streaming.fgs_step_batch");
  streaming::FgsBatchScratch scratch;
  std::vector<double> delays;
  std::uint64_t steps = 0;
  const double t0 = wall_s();
  while (!active.empty()) {
    delays.resize(active.size());
    streaming::FgsSessionFom::step_batch(active, scratch, delays);
    steps += active.size();
    std::size_t keep = 0;
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (delays[i] >= 0.0) active[keep++] = active[i];
    }
    active.resize(keep);
  }
  return 1e9 * (wall_s() - t0) / static_cast<double>(steps);
}

RunResult run_fleet(const RunConfig& cfg, bool mixed) {
  RunResult out;
  out.job_name = "serve_run_s";
  FleetSpec spec{mixed, cfg.seed, cfg.threads};
  const std::size_t offered = kFgsSessions + mpeg2_sessions(spec);
  const bool traced = cfg.tracer != nullptr;

  std::optional<std::uint64_t> first_fp;
  serve::ServeReport last;
  std::vector<double> schedule_s;
  auto rep = [&](Tracer* tr, std::uint64_t job) {
    Fleet fleet = admit(spec, tr, job);
    out.setup_s.push_back(fleet.schedule_s + fleet.admit_s);
    schedule_s.push_back(fleet.schedule_s);
    serve::ServeReport r;
    {
      ScopedSpan s(tr, "serve.run", -1, job);
      const double t0 = wall_s();
      r = fleet.manager->run(horizon_s());
      out.job_s.push_back(wall_s() - t0);
    }
    const std::size_t failed_sessions = r.sessions_rejected +
                                        (r.sessions_admitted -
                                         r.sessions_completed);
    out.attempted += r.sessions_offered;
    out.failed += failed_sessions;
    if (failed_sessions > 0 || r.sessions_offered != offered) {
      out.failures.push_back("serve: sessions refused or not completed");
    }
    if (!first_fp) first_fp = r.fingerprint();
    out.check(r.fingerprint() == *first_fp,
              "serve: report fingerprint differs across repetitions");
    last = r;
  };

  rep(nullptr, 0);  // warm-up: allocator growth, event-pool slabs
  out.setup_s.clear();
  out.job_s.clear();
  schedule_s.clear();
  repeat_for(traced ? cfg.seconds / 2 : cfg.seconds, traced ? 2 : 5,
             [&](std::size_t) { rep(nullptr, 0); });
  const double run_s = median(out.job_s);
  out.output("serve_steps_per_s",
             static_cast<double>(last.events_dispatched) / run_s, "steps/s");
  out.output("serve_slot_psnr_p1_db", last.slot_psnr_db.quantile(0.01), "dB");
  out.output("serve_degraded_frac",
             static_cast<double>(last.sessions_degraded) /
                 static_cast<double>(last.sessions_admitted),
             "ratio");
  if (!traced) return out;

  // ---- traced pass --------------------------------------------------------
  Tracer& tr = *cfg.tracer;
  const std::vector<double> untraced_run = out.job_s;
  out.job_s.clear();
  out.setup_s.clear();
  schedule_s.clear();
  exec::MetricsRegistry registry;
  std::size_t reps = 0;
  {
    exec::ScopedMetricsSink sink(registry);
    reps = repeat_for(cfg.seconds / 2, 2,
                      [&](std::size_t i) { rep(&tr, i + 1); });
  }
  const double traced_run = median(out.job_s);

  // Thread speedup: the same fleet on one thread, which must reproduce the
  // pool's report bitwise.
  FleetSpec serial = spec;
  serial.threads = 1;
  Fleet one = admit(serial, nullptr, 0);
  double serial_s = 0.0;
  {
    const double t0 = wall_s();
    const serve::ServeReport r = one.manager->run(horizon_s());
    serial_s = wall_s() - t0;
    out.check(r.fingerprint() == *first_fp,
              "serve: 1-thread fingerprint differs from the pool run");
  }

  const double n = static_cast<double>(reps);
  auto counter = [&](const char* name) {
    return static_cast<double>(registry.counter(name).value());
  };
  const double events = counter("sim.events_executed") / n;
  const double reused = counter("sim.pool_slabs_reused");
  const double allocated = counter("sim.pool_slabs_allocated");
  if (mixed) out.layer("fault.schedule_build_s", median(schedule_s), "s");
  out.layer("serve.admit_us_per_session",
            1e6 * tr.total("serve.admit") / n / static_cast<double>(offered),
            "us");
  out.layer("serve.run_s", traced_run, "s");
  out.layer("serve.steps", static_cast<double>(last.events_dispatched),
            "count");
  out.layer("serve.thread_speedup", serial_s / median(untraced_run), "ratio");
  out.layer("sim.events_executed", events, "count");
  out.layer("sim.events_per_s", events / traced_run, "1/s");
  out.layer("sim.queue_high_water",
            registry.histogram("sim.queue_high_water").count() > 0
                ? registry.histogram("sim.queue_high_water").max()
                : 0.0,
            "count");
  out.layer("sim.slab_reuse_ratio",
            reused + allocated > 0 ? reused / (reused + allocated) : 0.0,
            "ratio");

  if (mixed) {
    out.layer("streaming.fgs_step_ns", fgs_step_ns(cfg.seed, &tr), "ns");
    // The frame traces admission draws: one per MPEG-2 session, from the
    // session's own stream.
    const serve::ServeOptions o = options(spec);
    double video_s = 0.0;
    for (std::size_t id = 0; id < mpeg2_sessions(spec); ++id) {
      ScopedSpan s(&tr, "traffic.video_trace", -1, id);
      const double t0 = wall_s();
      traffic::VideoTraceGenerator gen(
          traffic::VideoTraceGenerator::Params{},
          sim::Rng(exec::stream_seed(o.seed, id)));
      gen.generate(kMpeg2Frames);
      video_s += wall_s() - t0;
    }
    out.layer("traffic.video_trace_s", video_s, "s");
    std::vector<double> session_s;
    for (std::size_t id = 0; id < kLocalities; ++id) {
      ScopedSpan s(&tr, "stream.mpeg2_session", -1, id);
      const double t0 = wall_s();
      traffic::VideoTraceGenerator gen(
          traffic::VideoTraceGenerator::Params{},
          sim::Rng(exec::stream_seed(o.seed, id)));
      const stream::Mpeg2Report r =
          stream::run_mpeg2_decoder(gen, kMpeg2Frames, stream::Mpeg2Config{});
      session_s.push_back(wall_s() - t0);
      // Frames that find B2 full are dropped by the model; every frame is
      // either dropped on receipt or decoded and displayed.
      out.check(r.frames_in + r.frames_dropped == kMpeg2Frames &&
                    r.frames_out == r.frames_in,
                "stream: MPEG-2 probe session lost frames");
    }
    out.layer("stream.mpeg2_session_s", median(session_s), "s");
  } else {
    out.layer("streaming.fgs_batch_ns", fgs_batch_ns(cfg.seed, &tr), "ns");
  }
  out.layer("trace_overhead_frac", traced_run / median(untraced_run) - 1.0,
            "ratio");
  // Self time of the layers spanned once per traced repetition; the probe
  // layers above report their own per-call numbers.
  if (mixed) {
    add_self_times(out, tr, n, {"serve", "fault"});
  } else {
    add_self_times(out, tr, n, {"serve"});
  }
  out.job_s = untraced_run;
  return out;
}

}  // namespace

RunResult run_serve_mixed(const RunConfig& cfg) { return run_fleet(cfg, true); }
RunResult run_serve_fgs(const RunConfig& cfg) { return run_fleet(cfg, false); }

}  // namespace perfbench
