// The hostile-fleet fuzz sweep: every seed in the range derives a
// heterogeneous fleet (WorkloadSpec::FromSeed), runs it through the
// K-lane pending protocol under adversarial delivery, and asserts each
// session's fingerprint is bit-identical to the 1-lane synchronous replay
// of the same seed — fuzz-grade differential testing of the service
// contract.
//
// CI sweeps the fixed default range (seeds 1..64). The range is
// overridable without a rebuild:
//
//   QHORN_FUZZ_SEEDS=256          # seeds 1..256
//   QHORN_FUZZ_SEEDS=9000:32      # seeds 9000..9031
//   QHORN_FUZZ_SEEDS=1337:1       # one seed — the repro shape
//
// A wall-clock budget (QHORN_FUZZ_BUDGET_MS, default 240 s — inside the
// suite's 300 s ctest TIMEOUT) stops a sweep early on slow sanitizer
// runners; a truncated sweep says so loudly instead of silently passing
// as "covered". Every failure message carries the single-flag repro line
// (tools/workload_repro.py --seed=N re-runs exactly that seed).
//
// CTest labels: workload (runs under the asan and tsan CI presets).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "src/workload/fleet_driver.h"
#include "src/workload/workload.h"

namespace qhorn {
namespace {

struct SeedRange {
  uint64_t start = 1;
  uint64_t count = 64;
};

/// Parses "COUNT" or "START:COUNT"; anything unparsable keeps defaults.
SeedRange ParseSeedRange(const char* env) {
  SeedRange range;
  if (env == nullptr || env[0] == '\0') return range;
  std::string s(env);
  size_t colon = s.find(':');
  try {
    if (colon == std::string::npos) {
      range.count = std::stoull(s);
    } else {
      range.start = std::stoull(s.substr(0, colon));
      range.count = std::stoull(s.substr(colon + 1));
    }
  } catch (...) {
    ADD_FAILURE() << "unparsable QHORN_FUZZ_SEEDS value: " << s;
  }
  if (range.count == 0) range.count = 1;
  return range;
}

int64_t BudgetMs() {
  const char* env = std::getenv("QHORN_FUZZ_BUDGET_MS");
  if (env == nullptr || env[0] == '\0') return 240000;
  return std::atoll(env);
}

TEST(WorkloadFuzzTest, SeedRangeParsing) {
  EXPECT_EQ(ParseSeedRange(nullptr).start, 1u);
  EXPECT_EQ(ParseSeedRange(nullptr).count, 64u);
  EXPECT_EQ(ParseSeedRange("256").count, 256u);
  EXPECT_EQ(ParseSeedRange("9000:32").start, 9000u);
  EXPECT_EQ(ParseSeedRange("9000:32").count, 32u);
  EXPECT_EQ(ParseSeedRange("1337:0").count, 1u);
}

TEST(WorkloadFuzzTest, HostileArmsReplayNothing) {
  // The resume protocol under hostile delivery, pinned seed for seed:
  // shuffled, partial, duplicated and malformed replies still resume each
  // session by continuing its parked frame, so the hostile arm matches
  // the synchronous reference without a single question re-served by a
  // replay stage (fleets issue no corrections, the only restart path).
  for (uint64_t seed : {3u, 11u, 29u, 41u, 57u}) {
    WorkloadSpec spec = WorkloadSpec::FromSeed(seed);
    Fleet fleet = GenerateFleet(spec);
    FleetDriver driver(fleet);
    FleetResult hostile = driver.RunPending();
    FleetResult synchronous = driver.RunSynchronous();
    ASSERT_TRUE(hostile.ok) << hostile.failure;
    ASSERT_TRUE(synchronous.ok) << synchronous.failure;
    ASSERT_EQ(CompareArmFingerprints(fleet, hostile, synchronous),
              std::string());
    EXPECT_GT(hostile.stats.suspensions, 0) << spec.ReproLine();
    EXPECT_EQ(hostile.stats.replayed_questions, 0) << spec.ReproLine();
  }
}

TEST(WorkloadFuzzTest, ShardedHostileArmsAreBitIdenticalAcrossShardCounts) {
  // The sharding differential, run explicitly at pinned shard counts (the
  // big sweep below draws router_shards per seed; this pins seed-for-seed
  // that the hostile arm behind a 1-, 2- and 8-shard SessionRouter
  // produces fingerprints bit-identical to the synchronous reference —
  // the shard count changes which mutexes exist, never what a session
  // observes).
  for (uint64_t seed : {5u, 17u, 33u, 49u}) {
    WorkloadSpec spec = WorkloadSpec::FromSeed(seed);
    Fleet fleet = GenerateFleet(spec);
    FleetDriver driver(fleet);
    FleetResult synchronous = driver.RunSynchronous();
    ASSERT_TRUE(synchronous.ok) << synchronous.failure;
    for (int shards : {1, 2, 8}) {
      FleetResult hostile = driver.RunPending(0, shards);
      ASSERT_TRUE(hostile.ok)
          << hostile.failure << " (shards=" << shards << ")";
      ASSERT_EQ(CompareArmFingerprints(fleet, hostile, synchronous),
                std::string())
          << "sharded arm diverged at " << shards << " shards ("
          << spec.ReproLine() << ")";
    }
  }
}

TEST(WorkloadFuzzTest, HostileFleetSweepIsReplayEquivalent) {
  SeedRange range = ParseSeedRange(std::getenv("QHORN_FUZZ_SEEDS"));
  const int64_t budget_ms = BudgetMs();
  const auto t0 = std::chrono::steady_clock::now();

  uint64_t swept = 0;
  int64_t rounds = 0;
  int64_t malformed = 0;
  int64_t duplicates = 0;
  int64_t abandoned = 0;
  for (uint64_t seed = range.start; seed < range.start + range.count; ++seed) {
    DifferentialOutcome out = RunDifferential(WorkloadSpec::FromSeed(seed));
    // out.failure always carries "--seed=N": the one flag that reproduces
    // this exact fleet, delivery schedule and noise stream.
    ASSERT_TRUE(out.ok) << out.failure;
    ++swept;
    rounds += out.pending.rounds_answered;
    malformed += out.pending.malformed_injected;
    duplicates += out.pending.duplicates_injected;
    abandoned += out.pending.abandoned_sessions;

    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    if (elapsed > budget_ms && seed + 1 < range.start + range.count) {
      std::cout << "[workload_fuzz] TIME BUDGET EXHAUSTED after " << swept
                << "/" << range.count << " seeds (" << elapsed
                << " ms > " << budget_ms
                << " ms) — the remaining seeds were NOT swept\n";
      break;
    }
  }
  std::cout << "[workload_fuzz] swept " << swept << " seeds: " << rounds
            << " pending rounds answered, " << malformed
            << " malformed replies rejected, " << duplicates
            << " duplicate deliveries rejected, " << abandoned
            << " sessions abandoned mid-round\n";
  // A sweep that answered no rounds or never injected hostility would be
  // vacuous — fail loudly rather than report a green nothing.
  EXPECT_GT(rounds, 0);
  EXPECT_GT(malformed + duplicates + abandoned, 0)
      << "the sweep never exercised a hostile delivery path";
}

}  // namespace
}  // namespace qhorn
