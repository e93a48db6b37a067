#include "trace.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "bench.hpp"

namespace perfbench {

std::int64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lk(mu_);
  return next_++;
}

void Tracer::record(Span s) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(s));
}

double Tracer::total(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.end - s.start;
  }
  return sum;
}

std::size_t Tracer::count(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& s) { return s.name == name; }));
}

std::map<std::string, double> Tracer::self_time_by_layer() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::unordered_map<std::int64_t, std::vector<std::pair<double, double>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    double covered = 0.0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      double lo = s.start, hi = s.start;  // current merged run
      for (const auto& [a0, b0] : iv) {
        const double a = std::clamp(a0, s.start, s.end);
        const double b = std::clamp(b0, s.start, s.end);
        if (a > hi) {
          covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      covered += hi - lo;
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += std::max(0.0, (s.end - s.start) - covered);
  }
  return out;
}

void Tracer::write_jsonl(std::FILE* f, const std::string& scope) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%lld,\"parent\":%lld,\"job\":%llu,\"name\":\"%s/%s\","
                 "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.job), scope.c_str(),
                 s.name.c_str(), s.start, s.end);
  }
}

void add_self_times(RunResult& out, const Tracer& tr, double reps,
                    std::initializer_list<const char*> layers) {
  const std::map<std::string, double> self = tr.self_time_by_layer();
  for (const char* layer : layers) {
    const auto it = self.find(layer);
    out.layer(std::string(layer) + ".self_s",
              it == self.end() ? 0.0 : it->second / reps, "s");
  }
}

ScopedSpan::ScopedSpan(Tracer* t, const char* name, std::int64_t parent,
                       std::uint64_t job)
    : tracer_(t) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->next_id();
  span_.parent = parent;
  span_.job = job;
  span_.start = wall_s();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end = wall_s();
  tracer_->record(std::move(span_));
}

double ScopedSpan::elapsed() const {
  return tracer_ == nullptr ? 0.0 : wall_s() - span_.start;
}

}  // namespace perfbench
