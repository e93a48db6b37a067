#pragma once
// Shared plumbing of the HolMS benchmark binary: clocks, sample summaries,
// the result record every workload fills, and the workload entry points.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer;

/// Monotonic wall clock, seconds.
double wall_s();
/// CPU time consumed by every thread of this process, seconds.  The pool's
/// idle workers block on a condition variable, so over a parallel stage this
/// is the stage's busy time.
double cpu_s();
/// Peak resident set size of this process so far, MB (2^20 bytes).
double peak_rss_mb();

double median(std::vector<double> xs);

/// The highest percentile with at least ten samples above it: the order
/// statistic that has exactly ten larger samples.  `ok` is false when
/// there are fewer than eleven samples.
struct Tail {
  bool ok = false;
  double percentile = 0.0;  // 0..100
  double value = 0.0;
};
Tail tail(std::vector<double> xs);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main().
struct RunResult {
  std::vector<double> setup_s;  // one sample per input build
  std::vector<double> job_s;    // one sample per timed repetition
  std::string job_name;         // the workload's own name for job_s
  std::size_t attempted = 0;    // operations attempted (see each workload)
  std::size_t failed = 0;       // operations failed, refused or mis-checked
  std::vector<std::string> failures;
  std::vector<Metric> outputs;  // workload-specific end-to-end outputs
  std::vector<Metric> layers;   // per-layer metrics (traced pass only)

  /// Counts `ops` attempted operations; all of them fail when !ok.
  void check(bool ok, const std::string& what, std::size_t ops = 1) {
    attempted += ops;
    if (!ok) {
      failed += ops;
      failures.push_back(what);
    }
  }
  void output(std::string name, double value, std::string unit) {
    outputs.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    layers.push_back({std::move(name), value, std::move(unit)});
  }
};

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;     // measurement budget of this pass
  std::size_t threads = 1;   // pool width
  /// Null for the end-to-end pass.  Non-null selects the traced pass: a few
  /// untraced repetitions (for the overhead baseline), then traced ones that
  /// record spans here and fill RunResult::layers.
  Tracer* tracer = nullptr;
};

RunResult run_explore_farm(const RunConfig& cfg);
RunResult run_serve_mixed(const RunConfig& cfg);
RunResult run_serve_fgs(const RunConfig& cfg);
RunResult run_analyze_buffer(const RunConfig& cfg);

/// Repeats `rep` until `seconds` of wall time have passed since `start`
/// and at least `min_reps` repetitions ran; returns the repetition count.
template <typename Fn>
std::size_t repeat_for(double seconds, std::size_t min_reps, Fn&& rep) {
  const double start = wall_s();
  std::size_t n = 0;
  while (n < min_reps || wall_s() - start < seconds) {
    rep(n);
    ++n;
  }
  return n;
}

}  // namespace perfbench
