// Island-model exploration (core/islands.hpp): option contracts, thread- and
// scheduling-invariance of the fingerprints, and checkpoint/resume identity
// (DESIGN.md §5l).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/explorer.hpp"
#include "core/islands.hpp"
#include "core/platform.hpp"
#include "exec/error.hpp"
#include "exec/rng_stream.hpp"
#include "noc/taskgraph.hpp"

namespace {

using holms::sim::Rng;
using namespace holms::core;

Application island_app() {
  Application app;
  app.name = "island";
  Rng rng(11);
  app.graph = holms::noc::random_graph(14, rng, 6e5);
  app.qos.period_s = 0.05;
  return app;
}

IslandOptions small_opts(std::size_t islands, std::size_t epochs) {
  IslandOptions opts;
  opts.islands = islands;
  opts.epochs = epochs;
  opts.sa.iterations = 400;
  return opts;
}

std::uint64_t run_fingerprint(const Application& app, const Platform& plat,
                              IslandOptions opts, std::uint64_t seed = 42) {
  Rng rng(seed);
  IslandExplorer ex(app, plat, rng, std::move(opts));
  while (ex.step()) {
  }
  return ex.result_fingerprint();
}

// ---- option contracts (C001): every dead or invalid knob throws typed ------

TEST(IslandOptions, ZeroIslandsThrowsInvalidArgument) {
  IslandOptions opts = small_opts(0, 2);
  EXPECT_THROW(opts.validate(), holms::InvalidArgument);
}

TEST(IslandOptions, ZeroEpochsThrowsInvalidArgument) {
  IslandOptions opts = small_opts(2, 2);
  opts.epochs = 0;
  EXPECT_THROW(opts.validate(), holms::InvalidArgument);
}

TEST(IslandOptions, ZeroMigrationIntervalThrowsInvalidArgument) {
  IslandOptions opts = small_opts(2, 2);
  opts.migration_interval = 0;
  EXPECT_THROW(opts.validate(), holms::InvalidArgument);
}

TEST(IslandOptions, NoGenerationJobsIsDeadConfig) {
  IslandOptions opts = small_opts(2, 2);
  opts.sa_runs_per_epoch = 0;
  opts.probes_per_epoch = 0;
  EXPECT_THROW(opts.validate(), holms::InvalidArgument);
}

TEST(IslandOptions, CheckpointEveryWithoutPathIsDeadConfig) {
  IslandOptions opts = small_opts(2, 2);
  opts.checkpoint_every = 1;
  opts.checkpoint_path.clear();
  EXPECT_THROW(opts.validate(), holms::InvalidArgument);
}

TEST(IslandOptions, NestedSaKnobsAreValidated) {
  IslandOptions opts = small_opts(2, 2);
  opts.sa.iterations = 0;
  EXPECT_THROW(opts.validate(), holms::InvalidArgument);
}

TEST(IslandOptions, FaultScenarioContractMirrorsExplore) {
  IslandOptions opts = small_opts(2, 2);
  FaultScenario fs;
  fs.replicas = 0;
  opts.faults = &fs;
  EXPECT_THROW(opts.validate(), holms::InvalidArgument);
}

TEST(ExploreOptions, SloFloorWithoutWindowIsDeadConfig) {
  ExploreOptions opts;
  FaultScenario fs;
  fs.min_slo_fraction = 0.5;
  fs.slo_window = 0;  // the floor can never apply
  opts.faults = &fs;
  EXPECT_THROW(opts.validate(), holms::InvalidArgument);
}

TEST(ExploreOptions, SloWindowWithoutDurationIsDeadConfig) {
  ExploreOptions opts;
  FaultScenario fs;
  fs.slo_window = 8;
  fs.ambient.duration_s = 0.0;  // no periods, so no windows to score
  opts.faults = &fs;
  EXPECT_THROW(opts.validate(), holms::InvalidArgument);
}

// ---- search behaviour ------------------------------------------------------

TEST(Islands, FindsFeasibleDesignAndTrajectoryIsMonotone) {
  const Application app = island_app();
  const Platform plat = Platform::homogeneous(4, 4);
  Rng rng(42);
  IslandExplorer ex(app, plat, rng, small_opts(2, 3));
  while (ex.step()) {
  }
  const ExploreResult res = ex.result();
  EXPECT_TRUE(res.found_feasible);
  EXPECT_FALSE(res.pareto.empty());
  EXPECT_EQ(ex.epoch(), 3u);
  ASSERT_EQ(ex.trajectory().size(), 3u);
  for (std::size_t i = 1; i < ex.trajectory().size(); ++i) {
    EXPECT_LE(ex.trajectory()[i].second, ex.trajectory()[i - 1].second);
    EXPECT_GT(ex.trajectory()[i].first, ex.trajectory()[i - 1].first);
  }
}

TEST(Islands, ExploreIslandsWrapperMatchesManualLoop) {
  const Application app = island_app();
  const Platform plat = Platform::homogeneous(4, 4);
  Rng r1(42), r2(42);
  IslandExplorer ex(app, plat, r1, small_opts(2, 3));
  while (ex.step()) {
  }
  const ExploreResult manual = ex.result();
  const ExploreResult wrapped = explore_islands(app, plat, r2,
                                                small_opts(2, 3));
  EXPECT_EQ(manual.evaluated, wrapped.evaluated);
  EXPECT_EQ(manual.found_feasible, wrapped.found_feasible);
  EXPECT_EQ(manual.best.mapping, wrapped.best.mapping);
  EXPECT_EQ(manual.best.eval.total_energy_j, wrapped.best.eval.total_energy_j);
}

// The core determinism claim: for each island count, the fingerprint is
// bitwise invariant to the worker-thread count (1 / 2 / 4 / 7), and the
// consumption of the caller's RNG does not depend on either knob.
TEST(Islands, FingerprintInvariantToThreadCount) {
  const Application app = island_app();
  const Platform plat = Platform::homogeneous(4, 4);
  for (const std::size_t islands : {1u, 2u, 4u}) {
    std::uint64_t reference = 0;
    for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
      IslandOptions opts = small_opts(islands, 2);
      opts.threads = threads;
      const std::uint64_t fp = run_fingerprint(app, plat, opts);
      if (threads == 1) {
        reference = fp;
      } else {
        EXPECT_EQ(fp, reference)
            << "islands=" << islands << " threads=" << threads;
      }
    }
  }
}

TEST(Islands, FingerprintDistinguishesIslandCounts) {
  const Application app = island_app();
  const Platform plat = Platform::homogeneous(4, 4);
  const std::uint64_t k1 = run_fingerprint(app, plat, small_opts(1, 2));
  const std::uint64_t k2 = run_fingerprint(app, plat, small_opts(2, 2));
  const std::uint64_t k4 = run_fingerprint(app, plat, small_opts(4, 2));
  EXPECT_NE(k1, k2);
  EXPECT_NE(k2, k4);
}

TEST(Islands, ConsumesExactlyOneRngDraw) {
  const Application app = island_app();
  const Platform plat = Platform::homogeneous(4, 4);
  Rng a(9), b(9);
  IslandExplorer ex(app, plat, a, small_opts(2, 2));
  (void)b.bits();
  EXPECT_EQ(a.bits(), b.bits());
}

// ---- checkpoint / resume ---------------------------------------------------

TEST(Islands, ResumeReproducesUninterruptedRunBitwise) {
  const Application app = island_app();
  const Platform plat = Platform::homogeneous(4, 4);
  const IslandOptions opts = small_opts(2, 4);

  Rng full_rng(42);
  IslandExplorer full(app, plat, full_rng, opts);
  full.step(4);
  const ExploreResult want = full.result();

  Rng part_rng(42);
  IslandExplorer part(app, plat, part_rng, opts);
  part.step(2);
  const std::vector<std::uint8_t> blob = part.checkpoint();

  IslandExplorer resumed = IslandExplorer::resume(app, plat, opts, blob);
  EXPECT_EQ(resumed.epoch(), 2u);
  resumed.step(2);

  EXPECT_EQ(resumed.result_fingerprint(), full.result_fingerprint());
  const ExploreResult got = resumed.result();
  EXPECT_EQ(got.evaluated, want.evaluated);
  EXPECT_EQ(got.best.mapping, want.best.mapping);
  EXPECT_EQ(got.best.use_dvs, want.best.use_dvs);
  EXPECT_EQ(got.best.eval.total_energy_j, want.best.eval.total_energy_j);
  ASSERT_EQ(got.pareto.size(), want.pareto.size());
  for (std::size_t i = 0; i < got.pareto.size(); ++i) {
    EXPECT_EQ(got.pareto[i].mapping, want.pareto[i].mapping);
    EXPECT_EQ(got.pareto[i].use_dvs, want.pareto[i].use_dvs);
    EXPECT_EQ(got.pareto[i].eval.total_energy_j,
              want.pareto[i].eval.total_energy_j);
  }
}

TEST(Islands, ResumeWithDifferentThreadCountIsStillBitwise) {
  const Application app = island_app();
  const Platform plat = Platform::homogeneous(4, 4);
  IslandOptions opts = small_opts(2, 4);

  Rng full_rng(42);
  IslandExplorer full(app, plat, full_rng, opts);
  full.step(4);

  opts.threads = 4;
  Rng part_rng(42);
  IslandExplorer part(app, plat, part_rng, opts);
  part.step(2);
  const std::vector<std::uint8_t> blob = part.checkpoint();

  IslandOptions resume_opts = small_opts(2, 4);
  resume_opts.threads = 7;  // thread knobs may differ across a resume
  IslandExplorer resumed =
      IslandExplorer::resume(app, plat, resume_opts, blob);
  resumed.step(2);
  EXPECT_EQ(resumed.result_fingerprint(), full.result_fingerprint());
}

TEST(Islands, CorruptingAnyByteThrowsRuntimeError) {
  const Application app = island_app();
  const Platform plat = Platform::homogeneous(4, 4);
  const IslandOptions opts = small_opts(2, 2);
  Rng rng(42);
  IslandExplorer ex(app, plat, rng, opts);
  ex.step(1);
  const std::vector<std::uint8_t> blob = ex.checkpoint();

  // Flip one byte at a spread of positions — header, body, trailing digest.
  for (const std::size_t pos :
       {std::size_t{0}, std::size_t{9}, blob.size() / 2, blob.size() - 1}) {
    std::vector<std::uint8_t> bad = blob;
    bad[pos] ^= 0x40;
    EXPECT_THROW(IslandExplorer::resume(app, plat, opts, bad),
                 holms::RuntimeError)
        << "flipped byte " << pos;
  }
  // Truncation is corruption too.
  std::vector<std::uint8_t> truncated(blob.begin(), blob.end() - 8);
  EXPECT_THROW(IslandExplorer::resume(app, plat, opts, truncated),
               holms::RuntimeError);
}

TEST(Islands, ResumeRejectsVersion1BlobByVersion) {
  // Version 2 dropped a field from the options digest.  A well-formed v1
  // blob (re-sealed with a valid trailing digest) must fail on its version
  // word, not further down on an options-digest mismatch.
  const Application app = island_app();
  const Platform plat = Platform::homogeneous(4, 4);
  const IslandOptions opts = small_opts(2, 2);
  Rng rng(42);
  IslandExplorer ex(app, plat, rng, opts);
  ex.step(1);
  std::vector<std::uint8_t> blob = ex.checkpoint();
  ASSERT_EQ(blob[8], 2u);  // word 1 (little-endian) is the version
  blob[8] = 1;
  // Re-seal: the trailing word folds every word before it.
  const std::size_t words = blob.size() / 8;
  auto word = [&](std::size_t i) {
    std::uint64_t w = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      w |= static_cast<std::uint64_t>(blob[i * 8 + b]) << (8 * b);
    }
    return w;
  };
  std::uint64_t digest = 0x636b70646967ULL;  // "ckpdig"
  for (std::size_t i = 0; i + 1 < words; ++i) {
    digest = holms::exec::splitmix64(digest ^
                                     holms::exec::splitmix64(word(i)));
  }
  for (std::size_t b = 0; b < 8; ++b) {
    blob[(words - 1) * 8 + b] = static_cast<std::uint8_t>(digest >> (8 * b));
  }
  try {
    IslandExplorer::resume(app, plat, opts, blob);
    FAIL() << "a v1 blob resumed";
  } catch (const holms::RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version"),
              std::string::npos)
        << e.what();
  }
}

TEST(Islands, ResumeRejectsMismatchedPlatformOptionsAndScenario) {
  const Application app = island_app();
  const Platform plat = Platform::homogeneous(4, 4);
  const IslandOptions opts = small_opts(2, 2);
  Rng rng(42);
  IslandExplorer ex(app, plat, rng, opts);
  ex.step(1);
  const std::vector<std::uint8_t> blob = ex.checkpoint();

  const Platform other_plat = Platform::homogeneous(4, 4, asip_tile());
  EXPECT_THROW(IslandExplorer::resume(app, other_plat, opts, blob),
               holms::RuntimeError);

  Application other_app = island_app();
  other_app.qos.period_s = 0.07;
  EXPECT_THROW(IslandExplorer::resume(other_app, plat, opts, blob),
               holms::RuntimeError);

  IslandOptions other_opts = small_opts(2, 2);
  other_opts.sa.iterations = 401;
  EXPECT_THROW(IslandExplorer::resume(app, plat, other_opts, blob),
               holms::RuntimeError);

  IslandOptions fault_opts = small_opts(2, 2);
  FaultScenario fs;
  fault_opts.faults = &fs;
  EXPECT_THROW(IslandExplorer::resume(app, plat, fault_opts, blob),
               holms::RuntimeError);
}

TEST(Islands, SaveAndResumeFromFileRoundTrips) {
  const Application app = island_app();
  const Platform plat = Platform::homogeneous(4, 4);
  const IslandOptions opts = small_opts(2, 3);
  const std::string path = testing::TempDir() + "holms_island_test.ckpt";

  Rng full_rng(42);
  IslandExplorer full(app, plat, full_rng, opts);
  full.step(3);

  Rng part_rng(42);
  IslandExplorer part(app, plat, part_rng, opts);
  part.step(1);
  part.save_checkpoint(path);

  IslandExplorer resumed =
      IslandExplorer::resume_from_file(app, plat, opts, path);
  resumed.step(2);
  EXPECT_EQ(resumed.result_fingerprint(), full.result_fingerprint());

  EXPECT_THROW(IslandExplorer::resume_from_file(app, plat, opts,
                                                path + ".does-not-exist"),
               holms::RuntimeError);
}

TEST(Islands, PeriodicCheckpointsAreWrittenAtEpochBarriers) {
  const Application app = island_app();
  const Platform plat = Platform::homogeneous(4, 4);
  IslandOptions opts = small_opts(2, 4);
  opts.checkpoint_every = 2;
  opts.checkpoint_path = testing::TempDir() + "holms_island_periodic.ckpt";

  Rng full_rng(42);
  IslandExplorer full(app, plat, full_rng, small_opts(2, 4));
  full.step(4);

  Rng rng(42);
  IslandExplorer ex(app, plat, rng, opts);
  ex.step(2);  // epoch 2 barrier writes the blob

  IslandExplorer resumed = IslandExplorer::resume_from_file(
      app, plat, small_opts(2, 4), opts.checkpoint_path);
  EXPECT_EQ(resumed.epoch(), 2u);
  resumed.step(2);
  EXPECT_EQ(resumed.result_fingerprint(), full.result_fingerprint());
}

TEST(Islands, FaultScenarioRunsSurviveCheckpointRoundTrip) {
  const Application app = island_app();
  const Platform plat = Platform::homogeneous(4, 4);
  FaultScenario fs;
  fs.replicas = 2;
  fs.ambient.duration_s = 2.0;
  fs.ambient.tile_mtbf_s = 4.0;
  IslandOptions opts = small_opts(2, 3);
  opts.faults = &fs;

  Rng full_rng(42);
  IslandExplorer full(app, plat, full_rng, opts);
  full.step(3);

  Rng part_rng(42);
  IslandExplorer part(app, plat, part_rng, opts);
  part.step(1);
  const std::vector<std::uint8_t> blob = part.checkpoint();
  IslandExplorer resumed = IslandExplorer::resume(app, plat, opts, blob);
  resumed.step(2);
  EXPECT_EQ(resumed.result_fingerprint(), full.result_fingerprint());
}

}  // namespace
