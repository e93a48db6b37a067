#pragma once
// In-memory span recorder for the traced pass.  Spans are opened around the
// benchmark's own calls into each library module — the library itself is
// not instrumented — and named "<layer>.<what>", where the layer is the
// src/ module the call enters.  Nothing is written until the run ends.

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;  // wall_s()
  double end = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  // -1 = root
  std::uint64_t job = 0;     // repetition (or task index) the span serves
};

class Tracer {
 public:
  /// Allocates a span id; record() files the finished span.  Thread-safe.
  std::int64_t next_id();
  void record(Span s);

  /// Sum of durations of the spans named exactly `name`.
  double total(const std::string& name) const;
  std::size_t count(const std::string& name) const;

  /// Self time per layer: each span's duration minus the part of it that
  /// its children cover (children running in parallel are merged into one
  /// covered interval set), summed over the spans of each layer.
  std::map<std::string, double> self_time_by_layer() const;

  /// Appends every span to `f` as one JSON object per line, its name
  /// prefixed by `scope` + "/".
  void write_jsonl(std::FILE* f, const std::string& scope) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::int64_t next_ = 0;
};

/// RAII span; a null tracer makes it a no-op that never reads the clock.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, std::int64_t parent = -1,
             std::uint64_t job = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return span_.id; }
  /// Seconds since the span opened (0 when tracing is off).
  double elapsed() const;

 private:
  Tracer* tracer_;
  Span span_;
};

struct RunResult;

/// Adds "<layer>.self_s" for each listed layer: its self time summed over
/// the tracer's spans and divided by `reps` (0 for a layer with no spans).
void add_self_times(RunResult& out, const Tracer& tr, double reps,
                    std::initializer_list<const char*> layers);

}  // namespace perfbench
