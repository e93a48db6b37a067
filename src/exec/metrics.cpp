#include "exec/metrics.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

namespace holms::exec {

std::atomic<MetricsRegistry*> MetricsRegistry::global_{nullptr};

namespace {

// Atomic min/max for doubles via compare-exchange.
template <typename Cmp>
void atomic_extreme(std::atomic<double>& slot, double x, Cmp better) {
  double cur = slot.load(std::memory_order_relaxed);
  while (better(x, cur) &&
         !slot.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

void atomic_add(std::atomic<double>& slot, double x) {
  double cur = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(cur, cur + x,
                                     std::memory_order_relaxed)) {
  }
}

std::uint64_t now_ns() {
  // Metrics wall-time is allowlisted by design: ScopedTimer histograms are
  // observability output only and never feed back into simulation state, so
  // the reproducibility guarantee (DESIGN.md §5c) is unaffected.
  // HOLMS_LINT_ALLOW(D002): observability-only wall clock, never model state
  const auto since_epoch = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(since_epoch)
          .count());
}

}  // namespace

void Histogram::observe(double x) {
  atomic_add(sum_, x);
  if (!seeded_.exchange(true, std::memory_order_acq_rel)) {
    // First observer initializes both extremes; racers fall through to the
    // CAS loops below, which handle any interleaving.
    min_.store(x, std::memory_order_relaxed);
    max_.store(x, std::memory_order_relaxed);
  }
  atomic_extreme(min_, x, [](double a, double b2) { return a < b2; });
  atomic_extreme(max_, x, [](double a, double b2) { return a > b2; });
  count_.fetch_add(1, std::memory_order_release);
}

double Histogram::min() const {
  return count() ? min_.load(std::memory_order_relaxed)
                 : std::numeric_limits<double>::quiet_NaN();
}

double Histogram::max() const {
  return count() ? max_.load(std::memory_order_relaxed)
                 : std::numeric_limits<double>::quiet_NaN();
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  return histograms_[name];
}

namespace {

std::string json_number(double v) {
  if (std::isnan(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string MetricsRegistry::dump_json() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ',';
    first = false;
    os << '"' << name << "\":" << c.value();
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ',';
    first = false;
    const std::uint64_t n = h.count();
    os << '"' << name << "\":{\"count\":" << n
       << ",\"sum\":" << json_number(h.sum())
       << ",\"mean\":" << json_number(n ? h.sum() / static_cast<double>(n)
                                        : std::numeric_limits<double>::quiet_NaN())
       << ",\"min\":" << json_number(h.min())
       << ",\"max\":" << json_number(h.max()) << '}';
  }
  os << "}}";
  return os.str();
}

ScopedTimer::ScopedTimer(const char* name) : name_(name) {
  if (MetricsRegistry::global()) start_ns_ = now_ns();
}

ScopedTimer::~ScopedTimer() {
  if (start_ns_ == 0) return;
  if (MetricsRegistry* r = MetricsRegistry::global()) {
    r->histogram(name_).observe(
        static_cast<double>(now_ns() - start_ns_) * 1e-9);
  }
}

}  // namespace holms::exec
