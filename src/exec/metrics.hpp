#pragma once
// Lightweight observability for the exploration stack (ROADMAP: make the
// hot path measurable before making it fast).
//
// Design rules:
//   * Zero cost when no sink is registered: every instrumentation site goes
//     through the free helpers below, which load one atomic pointer and
//     return immediately when no MetricsRegistry is installed.  No strings
//     are hashed, no locks taken.
//   * Thread-safe by construction: counters and histogram cells are
//     std::atomic, so instrumented code inside exec::ThreadPool workers
//     (explorer candidates, SA moves, simulator runs) needs no coordination.
//   * Machine-readable: MetricsRegistry::dump_json() emits the whole
//     registry as one JSON object; the benches write it to BENCH_<name>.json
//     so runs can be compared by scripts rather than by eyeballing tables.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace holms::exec {

/// Monotonic counter (events, cache hits, SA accepts, ...).
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Streaming summary of a sample series: exact count / sum / min / max
/// (dump_json derives the mean).  observe() is safe to call concurrently.
class Histogram {
 public:
  void observe(double x);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;
  double max() const;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
  std::atomic<bool> seeded_{false};  // min/max valid once count > 0
};

/// Named counters + histograms.  Lookup takes a mutex (instrumentation sites
/// are expected to be coarse: once per run / per candidate / per SA batch,
/// not per event); the returned references stay valid for the registry's
/// lifetime, so hot loops may cache them.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Serializes every metric: {"counters":{name:value,...},
  /// "histograms":{name:{count,sum,mean,min,max},...}}.
  std::string dump_json() const;

  /// Process-wide sink.  nullptr (the default) disables all instrumentation.
  /// The caller owns the registry and must keep it alive while installed.
  static MetricsRegistry* global() {
    return global_.load(std::memory_order_acquire);
  }
  static void set_global(MetricsRegistry* r) {
    global_.store(r, std::memory_order_release);
  }

 private:
  static std::atomic<MetricsRegistry*> global_;

  mutable std::mutex mu_;
  // std::map: stable references across inserts, sorted dump output.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Histogram> histograms_;
};

/// Installs `r` as the global sink for the current scope (RAII), restoring
/// the previous sink on destruction.
class ScopedMetricsSink {
 public:
  explicit ScopedMetricsSink(MetricsRegistry& r)
      : previous_(MetricsRegistry::global()) {
    MetricsRegistry::set_global(&r);
  }
  ~ScopedMetricsSink() { MetricsRegistry::set_global(previous_); }
  ScopedMetricsSink(const ScopedMetricsSink&) = delete;
  ScopedMetricsSink& operator=(const ScopedMetricsSink&) = delete;

 private:
  MetricsRegistry* previous_;
};

// ---- instrumentation helpers (no-ops when no sink installed) ----

inline void count(const char* name, std::uint64_t delta = 1) {
  if (MetricsRegistry* r = MetricsRegistry::global()) {
    r->counter(name).add(delta);
  }
}

inline void observe(const char* name, double value) {
  if (MetricsRegistry* r = MetricsRegistry::global()) {
    r->histogram(name).observe(value);
  }
}

/// Times a scope into histogram `<name>` (seconds).  Reads the clock only
/// when a sink is installed.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  const char* name_;
  std::uint64_t start_ns_ = 0;  // 0 = no sink at construction, do nothing
};

}  // namespace holms::exec
