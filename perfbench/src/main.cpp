// holms_perfbench: runs one HolMS benchmark workload and prints its metrics.
//
//   holms_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--spans <path>]
//
// --trace 0 measures the end-to-end metrics of the named workload.
// --trace 1 runs the traced pass of every workload, so that the per-layer
// table has the same names whatever workload is named; each per-layer
// metric is prefixed by the workload it was measured on.  Spans are kept in
// memory and written to --spans (JSON lines) when the run ends.
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is 0 only when every output check passed.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "trace.hpp"

namespace perfbench {

double wall_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

Tail tail(std::vector<double> xs) {
  Tail t;
  if (xs.size() < 11) return t;
  std::sort(xs.begin(), xs.end());
  const std::size_t k = xs.size() - 11;  // exactly ten samples above xs[k]
  t.ok = true;
  t.value = xs[k];
  t.percentile = 100.0 * static_cast<double>(k + 1) /
                 static_cast<double>(xs.size());
  return t;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  RunResult (*run)(const RunConfig&);
};

constexpr Workload kWorkloads[] = {
    {"explore_farm", run_explore_farm},
    {"serve_mixed", run_serve_mixed},
    {"serve_fgs", run_serve_fgs},
    {"analyze_buffer", run_analyze_buffer},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "holms_perfbench: %s\nusage: holms_perfbench --workload "
               "<explore_farm|serve_mixed|serve_fgs|analyze_buffer> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\n",
               why);
  std::exit(2);
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// "<median> s (median of n; pXX <value> s)": a timing as the median plus
/// the highest percentile with at least ten samples above it.
std::string timing(const std::vector<double>& xs) {
  char buf[160];
  const Tail t = tail(xs);
  if (t.ok) {
    std::snprintf(buf, sizeof buf, "%.6g s (median of %zu; p%.1f %.6g s)",
                  median(xs), xs.size(), t.percentile, t.value);
  } else {
    std::snprintf(buf, sizeof buf,
                  "%.6g s (median of %zu; too few samples for a tail)",
                  median(xs), xs.size());
  }
  return buf;
}

void print_samples(const char* name, const std::vector<double>& xs) {
  std::printf("  %s:", name);
  for (double x : xs) std::printf(" %.4g", x);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  // The pool is as wide as the host.
  const std::size_t threads =
      std::max(1u, std::thread::hardware_concurrency());
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const char* key = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* val = argv[++i];
    char* end = nullptr;
    if (std::strcmp(key, "--workload") == 0) {
      workload = val;
    } else if (std::strcmp(key, "--seed") == 0) {
      seed = std::strtoull(val, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (std::strcmp(key, "--seconds") == 0) {
      seconds = std::strtod(val, &end);
      if (*end != '\0' || !(seconds > 0.0)) usage("bad --seconds");
    } else if (std::strcmp(key, "--trace") == 0) {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        usage("bad --trace");
      }
      trace = val[0] - '0';
    } else if (std::strcmp(key, "--spans") == 0) {
      spans_path = val;
    } else {
      usage("unknown option");
    }
  }
  const Workload* selected = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) selected = &w;
  }
  if (selected == nullptr) usage("unknown --workload");
  if (seconds <= 0.0 || trace < 0) usage("--seconds and --trace are required");

  std::size_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;
  std::vector<double> setup_samples, job_samples;  // end-to-end pass only
  auto absorb = [&](const RunResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
  };

  std::printf("workload %s, seed %llu, %.3g s, %zu pool threads, trace %d\n",
              selected->name, static_cast<unsigned long long>(seed), seconds,
              threads, trace);
  if (trace == 0) {
    RunConfig cfg;
    cfg.seed = seed;
    cfg.seconds = seconds;
    cfg.threads = threads;
    const RunResult r = selected->run(cfg);
    absorb(r);
    metrics.push_back({"setup_s", median(r.setup_s), "s"});
    metrics.push_back({"job_s", median(r.job_s), "s"});
    const double rss = peak_rss_mb();
    metrics.push_back({"peak_rss_mb", rss, "MB"});
    std::printf("end-to-end metrics:\n");
    std::printf("  %-28s %s\n", "setup_s", timing(r.setup_s).c_str());
    std::printf("  %-28s %s\n", ("job_s = " + r.job_name).c_str(),
                timing(r.job_s).c_str());
    std::printf("  %-28s %.6g MB\n", "peak_rss_mb", rss);
    for (const Metric& m : r.outputs) {
      std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    setup_samples = r.setup_s;
    job_samples = r.job_s;
  } else {
    std::printf("per-layer metrics of every workload's traced pass:\n");
    // Every workload's traced pass, each on an equal share of the budget.
    // Spans stay in memory until every pass has ended.
    std::vector<std::unique_ptr<Tracer>> tracers;
    for (const Workload& w : kWorkloads) {
      tracers.push_back(std::make_unique<Tracer>());
      RunConfig cfg;
      cfg.seed = seed;
      cfg.seconds = seconds / static_cast<double>(std::size(kWorkloads));
      cfg.threads = threads;
      cfg.tracer = tracers.back().get();
      const RunResult r = w.run(cfg);
      absorb(r);
      for (const Metric& m : r.layers) {
        metrics.push_back({std::string(w.name) + "." + m.name, m.value, m.unit});
      }
    }
    if (!spans_path.empty()) {
      std::FILE* f = std::fopen(spans_path.c_str(), "w");
      if (f != nullptr) {
        for (std::size_t i = 0; i < tracers.size(); ++i) {
          tracers[i]->write_jsonl(f, kWorkloads[i].name);
        }
      }
      if (f == nullptr || std::fclose(f) != 0) {
        failures.push_back("spans file " + spans_path + " not written");
        ++failed;
      }
    }
    for (const Metric& m : metrics) {
      std::printf("  %-48s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("  %-28s %.6g ratio (%zu failed of %zu attempted)\n", "fail_frac",
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 1.0,
              failed, attempted);
  if (!job_samples.empty()) {
    std::printf("per-repetition samples (s):\n");
    print_samples("setup_s", setup_samples);
    print_samples("job_s", job_samples);
  }

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failed == 0 && attempted > 0 ? 0 : 1;
}
