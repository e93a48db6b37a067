// Unit tests for traffic models, self-similarity and video traces
// (holms::traffic) — paper §3.2.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>

#include <sstream>

#include "sim/stats.hpp"
#include "traffic/selfsim.hpp"
#include "traffic/sources.hpp"
#include "traffic/trace_io.hpp"
#include "traffic/video.hpp"

namespace {

using holms::sim::OnlineStats;
using holms::sim::Rng;
using namespace holms::traffic;

double measured_rate(ArrivalProcess& p, std::size_t n) {
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) t += p.next_interarrival();
  return static_cast<double>(n) / t;
}

TEST(Cbr, ExactSpacing) {
  CbrSource s(4.0);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(s.next_interarrival(), 0.25);
  EXPECT_DOUBLE_EQ(s.mean_rate(), 4.0);
}

TEST(Cbr, RejectsNonPositiveRate) {
  EXPECT_THROW(CbrSource(0.0), std::invalid_argument);
}

TEST(Poisson, MeasuredRateMatches) {
  PoissonSource s(5.0, Rng(1));
  EXPECT_NEAR(measured_rate(s, 100000), 5.0, 0.1);
}

TEST(Poisson, InterarrivalsExponential) {
  PoissonSource s(2.0, Rng(2));
  OnlineStats st;
  for (int i = 0; i < 100000; ++i) st.add(s.next_interarrival());
  // Exponential: mean == stddev.
  EXPECT_NEAR(st.mean(), 0.5, 0.01);
  EXPECT_NEAR(st.stddev(), 0.5, 0.01);
}

TEST(Mmpp, MeanRateFormulaAndMeasurement) {
  MmppSource s(1.0, 9.0, 0.5, 1.5, Rng(3));
  // p0 = 1.5/2 = 0.75 -> mean = 0.75*1 + 0.25*9 = 3.
  EXPECT_NEAR(s.mean_rate(), 3.0, 1e-12);
  EXPECT_NEAR(measured_rate(s, 200000), 3.0, 0.15);
}

TEST(Mmpp, BurstierThanPoisson) {
  MmppSource bursty(0.2, 20.0, 0.2, 0.2, Rng(4));
  PoissonSource smooth(10.1, Rng(4));
  const std::size_t slots = 4096;
  auto counts_b = arrivals_per_slot(bursty, 1.0, slots);
  auto counts_p = arrivals_per_slot(smooth, 1.0, slots);
  OnlineStats sb, sp;
  for (double c : counts_b) sb.add(c);
  for (double c : counts_p) sp.add(c);
  // Index of dispersion (var/mean) is ~1 for Poisson, >> 1 for MMPP.
  EXPECT_GT(sb.variance() / sb.mean(), 3.0);
  EXPECT_NEAR(sp.variance() / sp.mean(), 1.0, 0.2);
}

TEST(OnOffPareto, MeanRateWithinTolerance) {
  OnOffParetoSource::Params p;
  p.peak_rate = 10.0;
  p.mean_on = 1.0;
  p.mean_off = 4.0;
  OnOffParetoSource s(p, Rng(5));
  // Duty cycle 0.2 -> mean 2.0.  Heavy tails converge slowly; wide tolerance.
  EXPECT_NEAR(s.mean_rate(), 2.0, 1e-12);
  EXPECT_NEAR(measured_rate(s, 400000), 2.0, 0.5);
}

TEST(OnOffPareto, HurstFromShape) {
  OnOffParetoSource::Params p;
  p.alpha_on = 1.4;
  p.alpha_off = 1.8;
  OnOffParetoSource s(p, Rng(6));
  EXPECT_NEAR(s.hurst(), (3.0 - 1.4) / 2.0, 1e-12);
}

TEST(OnOffPareto, RejectsShapeBelowOne) {
  OnOffParetoSource::Params p;
  p.alpha_on = 0.9;
  EXPECT_THROW(OnOffParetoSource(p, Rng(1)), std::invalid_argument);
}

TEST(Superposed, RateIsSumOfComponents) {
  std::vector<std::unique_ptr<ArrivalProcess>> srcs;
  srcs.push_back(std::make_unique<PoissonSource>(2.0, Rng(7)));
  srcs.push_back(std::make_unique<PoissonSource>(3.0, Rng(8)));
  SuperposedSource s(std::move(srcs));
  EXPECT_NEAR(s.mean_rate(), 5.0, 1e-12);
  EXPECT_NEAR(measured_rate(s, 100000), 5.0, 0.15);
}

TEST(Superposed, GapsAreNonNegativeAndOrdered) {
  std::vector<std::unique_ptr<ArrivalProcess>> srcs;
  for (int i = 0; i < 4; ++i) {
    srcs.push_back(std::make_unique<CbrSource>(1.0 + i));
  }
  SuperposedSource s(std::move(srcs));
  for (int i = 0; i < 10000; ++i) EXPECT_GE(s.next_interarrival(), 0.0);
}

TEST(SelfSimilarAggregate, HitsTargetRate) {
  Rng rng(9);
  auto agg = make_selfsimilar_aggregate(16, 50.0, 1.5, rng);
  EXPECT_NEAR(agg->mean_rate(), 50.0, 1e-9);
  EXPECT_NEAR(measured_rate(*agg, 300000), 50.0, 6.0);
}

TEST(ArrivalsPerSlot, ConservesCount) {
  PoissonSource s(7.0, Rng(10));
  const auto counts = arrivals_per_slot(s, 0.5, 2000);
  double total = 0.0;
  for (double c : counts) total += c;
  EXPECT_NEAR(total / 1000.0, 7.0, 0.5);  // 1000 seconds of arrivals
}

// ---------- fGn + Hurst estimation ----------

TEST(Fgn, AutocovarianceMatchesTheoryShape) {
  // H = 0.5 -> white noise: zero autocovariance at all positive lags.
  EXPECT_NEAR(fgn_autocovariance(0.5, 1), 0.0, 1e-12);
  EXPECT_NEAR(fgn_autocovariance(0.5, 7), 0.0, 1e-12);
  // H > 0.5 -> positive, slowly decaying.
  EXPECT_GT(fgn_autocovariance(0.8, 1), 0.0);
  EXPECT_GT(fgn_autocovariance(0.8, 1), fgn_autocovariance(0.8, 10));
  EXPECT_GT(fgn_autocovariance(0.8, 10), 0.0);
  // H < 0.5 -> negative at lag 1.
  EXPECT_LT(fgn_autocovariance(0.3, 1), 0.0);
}

TEST(Fgn, UnitVarianceAndZeroMean) {
  Rng rng(11);
  const auto xs = fgn_hosking(8192, 0.75, rng);
  OnlineStats s;
  for (double x : xs) s.add(x);
  EXPECT_NEAR(s.mean(), 0.0, 0.15);
  EXPECT_NEAR(s.variance(), 1.0, 0.25);
}

TEST(Fgn, SampleAutocorrMatchesTheory) {
  Rng rng(12);
  const double h = 0.8;
  const auto xs = fgn_hosking(8192, h, rng);
  const double r1 = holms::sim::autocorrelation(xs, 1);
  EXPECT_NEAR(r1, fgn_autocovariance(h, 1), 0.08);
}

TEST(Fgn, HoskingGoldenPin) {
  // FNV-1a over the trace's bit patterns: pins the exact Hosking output
  // (x86-64/glibc libm, libstdc++ normal distribution).
  Rng rng(42);
  const auto xs = fgn_hosking(4096, 0.75, rng);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double x : xs) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  EXPECT_EQ(h, 0xfdf8075d232f81c1ULL);
}

TEST(Fgn, RejectsInvalidH) {
  Rng rng(1);
  EXPECT_THROW(fgn_hosking(64, 0.0, rng), std::invalid_argument);
  EXPECT_THROW(fgn_hosking(64, 1.0, rng), std::invalid_argument);
}

struct HurstCase {
  double h;
  double tol;
};

class HurstRecovery : public ::testing::TestWithParam<HurstCase> {};

TEST_P(HurstRecovery, AggregatedVarianceEstimatesH) {
  Rng rng(13);
  const auto xs = fgn_hosking(16384, GetParam().h, rng);
  const double est = hurst_aggregated_variance(xs);
  EXPECT_NEAR(est, GetParam().h, GetParam().tol);
}

TEST_P(HurstRecovery, RsEstimatesH) {
  Rng rng(14);
  const auto xs = fgn_hosking(16384, GetParam().h, rng);
  const double est = hurst_rs(xs);
  // R/S is biased toward 0.5 on short traces; generous tolerance.
  EXPECT_NEAR(est, GetParam().h, GetParam().tol + 0.08);
}

INSTANTIATE_TEST_SUITE_P(Sweep, HurstRecovery,
                         ::testing::Values(HurstCase{0.55, 0.08},
                                           HurstCase{0.7, 0.08},
                                           HurstCase{0.85, 0.08}));

TEST(Hurst, PeriodogramRecoversH) {
  Rng rng(24);
  for (double h : {0.6, 0.85}) {
    const auto xs = fgn_hosking(8192, h, rng);
    EXPECT_NEAR(hurst_periodogram(xs), h, 0.1) << "H=" << h;
  }
}

TEST(Hurst, PeriodogramIidIsNearHalf) {
  Rng rng(25);
  std::vector<double> xs;
  for (int i = 0; i < 8192; ++i) xs.push_back(rng.normal(0, 1));
  EXPECT_NEAR(hurst_periodogram(xs), 0.5, 0.1);
}

TEST(Hurst, PeriodogramRejectsShortTrace) {
  std::vector<double> xs(64, 1.0);
  EXPECT_THROW(hurst_periodogram(xs), std::invalid_argument);
}

TEST(Hurst, IidNoiseIsNearHalf) {
  Rng rng(15);
  std::vector<double> xs;
  for (int i = 0; i < 16384; ++i) xs.push_back(rng.normal(0, 1));
  EXPECT_NEAR(hurst_aggregated_variance(xs), 0.5, 0.07);
}

TEST(Hurst, SelfSimilarTrafficEstimatesAboveHalf) {
  Rng rng(16);
  auto agg = make_selfsimilar_aggregate(32, 40.0, 1.4, rng);
  const auto counts = arrivals_per_slot(*agg, 1.0, 8192);
  const double est = hurst_aggregated_variance(counts);
  EXPECT_GT(est, 0.6);  // theory: H = (3-1.4)/2 = 0.8
}

TEST(Hurst, PoissonTrafficEstimatesNearHalf) {
  PoissonSource s(40.0, Rng(17));
  const auto counts = arrivals_per_slot(s, 1.0, 8192);
  EXPECT_NEAR(hurst_aggregated_variance(counts), 0.5, 0.08);
}

TEST(LsSlope, ExactOnLine) {
  std::vector<double> x{1, 2, 3, 4}, y{3, 5, 7, 9};
  EXPECT_NEAR(ls_slope(x, y), 2.0, 1e-12);
}

// ---------- video traces ----------

TEST(VideoTrace, GopPatternIsCorrect) {
  VideoTraceGenerator::Params p;
  p.gop_length = 12;
  p.b_per_anchor = 2;
  VideoTraceGenerator gen(p, Rng(18));
  const auto frames = gen.generate(24);
  // IBBPBBPBBPBB repeated.
  const char* expect = "IBBPBBPBBPBBIBBPBBPBBPBB";
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(VideoTraceGenerator::type_name(frames[i].type),
              std::string(1, expect[i]))
        << "frame " << i;
  }
}

TEST(VideoTrace, MeanBitrateWithinTolerance) {
  VideoTraceGenerator::Params p;
  p.mean_bitrate = 4e6;
  p.scene_strength = 0.0;  // disable LRD modulation for a tight check
  VideoTraceGenerator gen(p, Rng(19));
  const auto frames = gen.generate(3000);
  const auto st = summarize(frames, p.frame_rate);
  EXPECT_NEAR(st.mean_bitrate, 4e6, 4e5);
}

TEST(VideoTrace, TypeSizeOrdering) {
  VideoTraceGenerator::Params p;
  p.scene_strength = 0.0;
  VideoTraceGenerator gen(p, Rng(20));
  const auto st = summarize(gen.generate(3000), p.frame_rate);
  EXPECT_GT(st.mean_i, st.mean_p);
  EXPECT_GT(st.mean_p, st.mean_b);
  EXPECT_NEAR(st.mean_i / st.mean_p, p.i_to_p_ratio, 0.5);
  EXPECT_NEAR(st.mean_p / st.mean_b, p.p_to_b_ratio, 0.4);
}

TEST(VideoTrace, ComplexityProportionalToSize) {
  VideoTraceGenerator::Params p;
  VideoTraceGenerator gen(p, Rng(21));
  for (const auto& f : gen.generate(100)) {
    EXPECT_NEAR(f.decode_complexity, f.size_bits * p.cycles_per_bit, 1e-6);
  }
}

TEST(VideoTrace, SceneModulationAddsLongRangeCorrelation) {
  VideoTraceGenerator::Params flat, lrd;
  flat.scene_strength = 0.0;
  lrd.scene_strength = 0.5;
  lrd.scene_hurst = 0.9;
  VideoTraceGenerator g1(flat, Rng(22)), g2(lrd, Rng(22));
  // Aggregate per GOP to remove the deterministic I/P/B periodicity; only
  // the scene process can then correlate distant GOPs.
  auto gop_sizes = [](const std::vector<VideoFrame>& fs, std::size_t gop) {
    std::vector<double> v(fs.size() / gop, 0.0);
    for (const auto& f : fs) {
      if (f.index / gop < v.size()) v[f.index / gop] += f.size_bits;
    }
    return v;
  };
  const auto s1 = gop_sizes(g1.generate(9600), flat.gop_length);
  const auto s2 = gop_sizes(g2.generate(9600), lrd.gop_length);
  const std::size_t lag = 8;
  EXPECT_GT(holms::sim::autocorrelation(s2, lag),
            holms::sim::autocorrelation(s1, lag) + 0.1);
}

TEST(VideoTrace, CountsPerGop) {
  VideoTraceGenerator::Params p;
  VideoTraceGenerator gen(p, Rng(23));
  const auto st = summarize(gen.generate(120), p.frame_rate);
  EXPECT_EQ(st.count_i, 10u);   // one I per 12-frame GOP
  EXPECT_EQ(st.count_p, 30u);   // three P per GOP
  EXPECT_EQ(st.count_b, 80u);   // eight B per GOP
}

// ---------- trace I/O and playback ----------

TEST(TraceIo, CsvRoundTripPreservesFrames) {
  VideoTraceGenerator gen({}, Rng(30));
  const auto original = gen.generate(120);
  std::stringstream buf;
  write_trace_csv(buf, original);
  const auto loaded = read_trace_csv(buf);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].index, original[i].index);
    EXPECT_EQ(loaded[i].type, original[i].type);
    EXPECT_NEAR(loaded[i].size_bits, original[i].size_bits,
                original[i].size_bits * 1e-6 + 1e-6);
  }
}

TEST(TraceIo, RejectsMalformedCsv) {
  std::stringstream bad1("index,type,size_bits,decode_complexity\n1,Q,5,5\n");
  EXPECT_THROW(read_trace_csv(bad1), std::runtime_error);
  std::stringstream bad2("1,I,abc,5\n");
  EXPECT_THROW(read_trace_csv(bad2), std::runtime_error);
  std::stringstream bad3("1,I,5\n");
  EXPECT_THROW(read_trace_csv(bad3), std::runtime_error);
  std::stringstream bad4("1,I,-5,5\n");
  EXPECT_THROW(read_trace_csv(bad4), std::runtime_error);
}

TEST(TraceIo, FileRoundTrip) {
  VideoTraceGenerator gen({}, Rng(31));
  const auto original = gen.generate(24);
  const std::string path = "/tmp/holms_trace_test.csv";
  save_trace(path, original);
  const auto loaded = load_trace(path);
  EXPECT_EQ(loaded.size(), original.size());
  EXPECT_THROW(load_trace("/nonexistent/dir/x.csv"), std::runtime_error);
}

TEST(TracePlayback, ReplaysAtFrameRateAndWraps) {
  VideoTraceGenerator gen({}, Rng(32));
  auto frames = gen.generate(10);
  TracePlaybackSource src(frames, 25.0);
  for (int i = 0; i < 25; ++i) {
    EXPECT_DOUBLE_EQ(src.next_interarrival(), 0.04);
    EXPECT_NEAR(src.last_frame_bits(), frames[i % 10].size_bits, 1e-9);
  }
  EXPECT_THROW(TracePlaybackSource({}, 25.0), std::invalid_argument);
}

TEST(Replicate, IntervalShrinksWithReplications) {
  auto noisy_experiment = [](std::uint64_t seed) {
    Rng rng(seed);
    holms::sim::OnlineStats s;
    for (int i = 0; i < 100; ++i) s.add(rng.normal(10.0, 2.0));
    return s.mean();
  };
  const auto few = holms::sim::replicate(5, noisy_experiment);
  const auto many = holms::sim::replicate(50, noisy_experiment);
  EXPECT_NEAR(many.stats.mean(), 10.0, 0.2);
  EXPECT_LT(many.half_width_95, few.half_width_95);
  EXPECT_LT(many.relative_error, 0.01);
}

TEST(VideoTrace, RejectsBadParams) {
  VideoTraceGenerator::Params p;
  p.gop_length = 0;
  EXPECT_THROW(VideoTraceGenerator(p, Rng(1)), std::invalid_argument);
}

}  // namespace
