// Tests of the statistics layer and the sharded campaign runner: Wilson
// interval edge cases, tally-merge order independence, byte-identical
// aggregate JSON across same-seed runs and across worker counts, and the
// fleet correlated-fault mode's determinism + seeded re-admission jitter.

#include <gtest/gtest.h>

#include "campaign/campaign.hpp"
#include "campaign/fleet.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace sg {
namespace {

// ---------------------------------------------------------------- Wilson CI

TEST(WilsonIntervalTest, ZeroTrialsIsVacuous) {
  const Interval ci = wilson_interval(0, 0);
  EXPECT_DOUBLE_EQ(ci.lo, 0.0);
  EXPECT_DOUBLE_EQ(ci.hi, 1.0);
}

TEST(WilsonIntervalTest, ZeroSuccessesPinsLowerBound) {
  const Interval ci = wilson_interval(0, 50);
  EXPECT_DOUBLE_EQ(ci.lo, 0.0);
  // 0/50 is still informative on the open side: rates above ~7% excluded.
  EXPECT_GT(ci.hi, 0.0);
  EXPECT_LT(ci.hi, 0.10);
}

TEST(WilsonIntervalTest, AllSuccessesPinsUpperBound) {
  const Interval ci = wilson_interval(50, 50);
  EXPECT_DOUBLE_EQ(ci.hi, 1.0);
  EXPECT_GT(ci.lo, 0.90);
  EXPECT_LT(ci.lo, 1.0);
}

TEST(WilsonIntervalTest, MidpointIntervalBracketsPhat) {
  const Interval ci = wilson_interval(60, 100);
  EXPECT_LT(ci.lo, 0.6);
  EXPECT_GT(ci.hi, 0.6);
  EXPECT_GT(ci.lo, 0.0);
  EXPECT_LT(ci.hi, 1.0);
}

TEST(WilsonIntervalTest, NarrowsWithSampleSize) {
  const Interval small = wilson_interval(8, 10);
  const Interval large = wilson_interval(8000, 10000);
  EXPECT_LT(large.hi - large.lo, small.hi - small.lo);
  // Both contain the true proportion.
  EXPECT_LT(large.lo, 0.8);
  EXPECT_GT(large.hi, 0.8);
}

TEST(WilsonIntervalTest, StaysInsideUnitInterval) {
  for (std::uint64_t trials : {1ULL, 3ULL, 7ULL, 100ULL}) {
    for (std::uint64_t successes = 0; successes <= trials; ++successes) {
      const Interval ci = wilson_interval(successes, trials);
      EXPECT_GE(ci.lo, 0.0);
      EXPECT_LE(ci.hi, 1.0);
      EXPECT_LE(ci.lo, ci.hi);
    }
  }
}

// ------------------------------------------------------------- Tally merges

swifi::EpisodeResult episode_of(swifi::Outcome outcome, bool crashed = false,
                                kernel::CrashKind kind = kernel::CrashKind::kStackSegfault,
                                bool quarantined = false, int violations = 0) {
  swifi::EpisodeResult episode;
  episode.outcome = outcome;
  episode.crashed = crashed;
  episode.crash_kind = kind;
  episode.quarantined = quarantined;
  episode.invariant_violations = violations;
  episode.virtual_end = 1000;
  return episode;
}

TEST(TallyTest, BucketsAreExclusiveAndSumToInjected) {
  campaign::Tally tally;
  tally.add(episode_of(swifi::Outcome::kRecovered));
  tally.add(episode_of(swifi::Outcome::kDegraded));
  tally.add(episode_of(swifi::Outcome::kUndetected));
  tally.add(episode_of(swifi::Outcome::kSegfault, true));
  tally.add(episode_of(swifi::Outcome::kOther, true, kernel::CrashKind::kHang));
  tally.add(episode_of(swifi::Outcome::kOther, true, kernel::CrashKind::kQuarantined, true));
  tally.add(episode_of(swifi::Outcome::kRecovered, false, kernel::CrashKind::kStackSegfault,
                       false, 2));
  EXPECT_EQ(tally.injected, 7u);
  EXPECT_EQ(tally.recovered + tally.degraded + tally.undetected + tally.segfault +
                tally.propagated + tally.hang + tally.quarantined + tally.other,
            tally.injected);
  EXPECT_EQ(tally.hang, 1u);
  EXPECT_EQ(tally.quarantined, 1u);
  EXPECT_EQ(tally.invariant_violations, 2u);
}

TEST(TallyTest, MergeIsOrderIndependent) {
  const swifi::Outcome outcomes[] = {
      swifi::Outcome::kRecovered, swifi::Outcome::kSegfault,  swifi::Outcome::kRecovered,
      swifi::Outcome::kUndetected, swifi::Outcome::kPropagated, swifi::Outcome::kDegraded,
      swifi::Outcome::kOther,      swifi::Outcome::kRecovered,
  };
  // One pass in order; one pass sharded 3 ways round-robin, merged in
  // reverse shard order.
  campaign::Tally sequential;
  for (const auto outcome : outcomes) sequential.add(episode_of(outcome));
  campaign::Tally shards[3];
  int index = 0;
  for (const auto outcome : outcomes) shards[index++ % 3].add(episode_of(outcome));
  campaign::Tally merged;
  for (int shard = 2; shard >= 0; --shard) merged.merge(shards[shard]);
  EXPECT_EQ(merged.injected, sequential.injected);
  EXPECT_EQ(merged.recovered, sequential.recovered);
  EXPECT_EQ(merged.degraded, sequential.degraded);
  EXPECT_EQ(merged.undetected, sequential.undetected);
  EXPECT_EQ(merged.segfault, sequential.segfault);
  EXPECT_EQ(merged.propagated, sequential.propagated);
  EXPECT_EQ(merged.other, sequential.other);
  EXPECT_EQ(merged.virtual_time_total, sequential.virtual_time_total);
}

// ----------------------------------------------------------- Episode seeds

TEST(CampaignTest, EpisodeSeedIsPureAndCellSensitive) {
  const std::uint64_t a = swifi::episode_seed(2016, "lock/register-flip", 7);
  EXPECT_EQ(a, swifi::episode_seed(2016, "lock/register-flip", 7));
  EXPECT_NE(a, swifi::episode_seed(2016, "lock/register-flip", 8));
  EXPECT_NE(a, swifi::episode_seed(2016, "evt/register-flip", 7));
  EXPECT_NE(a, swifi::episode_seed(2017, "lock/register-flip", 7));
}

// ------------------------------------------------------- Campaign runner

campaign::Config small_config() {
  campaign::Config config;
  config.master_seed = 99;
  config.injections_per_cell = 4;
  config.workload_iterations = 40;
  config.services = {"lock", "evt"};
  return config;
}

TEST(CampaignTest, AggregateJsonIsByteIdenticalAcrossRuns) {
  const campaign::Config config = small_config();
  const std::string first = campaign::to_json(config, campaign::run(config));
  const std::string second = campaign::to_json(config, campaign::run(config));
  EXPECT_EQ(first, second);
}

TEST(CampaignTest, WorkerCountDoesNotChangeResults) {
  campaign::Config config = small_config();
  config.workers = 1;
  const std::string solo = campaign::to_json(config, campaign::run(config));
  config.workers = 3;
  const std::string sharded = campaign::to_json(config, campaign::run(config));
  EXPECT_EQ(solo, sharded);
}

TEST(CampaignTest, ThrowingEpisodeIsRethrownAtAnyWorkerCount) {
  // Every episode of an unknown service throws. A sharded run must hand that
  // to the caller, not let it escape a worker thread and terminate.
  for (const int workers : {1, 4}) {
    campaign::Config config = small_config();
    config.services = {"nosuch"};
    config.injections_per_cell = 8;
    config.workers = workers;
    EXPECT_THROW(campaign::run(config), AssertionError) << workers << " workers";
  }
}

TEST(CampaignTest, InvariantCheckedCampaignIsClean) {
  campaign::Config config = small_config();
  config.check_invariants = true;
  const campaign::Result result = campaign::run(config);
  EXPECT_EQ(result.total.invariant_violations, 0u);
  EXPECT_EQ(result.episodes(), 8u);
}

TEST(CampaignTest, FailStopProfilesRecoverAndBurstQuarantinesUnderEscalation) {
  campaign::Config config;
  config.master_seed = 7;
  config.injections_per_cell = 3;
  config.workload_iterations = 40;
  config.services = {"lock"};
  config.profiles = {swifi::InjectionProfile::kFailStop, swifi::InjectionProfile::kFailStopBurst};
  // Aggressive escalation: one trip per level, threshold 3 — a 7-shot burst
  // walks micro-reboot -> group reboot -> quarantine inside one episode.
  config.supervision.loop_threshold = 3;
  config.supervision.loop_window = 500;
  config.supervision.backoff_initial = 50;
  config.supervision.backoff_max = 800;
  config.supervision.trips_per_level = 1;
  const campaign::Result result = campaign::run(config);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.cells[0].tally.recovered, 3u);  // Single fail-stops recover.
  EXPECT_EQ(result.cells[1].tally.quarantined, 3u);  // Bursts escalate out.
}

// ------------------------------------------------------------- Fleet mode

campaign::FleetConfig fleet_config(int jitter_pct) {
  campaign::FleetConfig config;
  config.master_seed = 2016;
  config.replicas = 3;
  config.backoff_jitter_pct = jitter_pct;
  config.supervision.loop_threshold = 3;
  config.supervision.loop_window = 1000;
  config.supervision.backoff_initial = 100;
  config.supervision.backoff_max = 2000;
  config.supervision.trips_per_level = 4;
  return config;
}

TEST(FleetTest, SameSeedIsByteIdenticalEvenWhenParallel) {
  campaign::FleetConfig config = fleet_config(30);
  config.workers = 1;
  const std::string solo = campaign::fleet_to_json(config, campaign::run_fleet(config));
  config.workers = 3;
  const std::string parallel = campaign::fleet_to_json(config, campaign::run_fleet(config));
  EXPECT_EQ(solo, parallel);
}

TEST(FleetTest, CorrelatedFaultsHitEveryReplicaAndFleetStaysPartlyUp) {
  const campaign::FleetResult result = campaign::run_fleet(fleet_config(0));
  ASSERT_EQ(result.replicas.size(), 3u);
  for (const auto& replica : result.replicas) {
    EXPECT_GT(replica.faults_injected, 0);
    EXPECT_FALSE(replica.crashed);
  }
  EXPECT_GT(result.fleet_availability, 0.5);
  EXPECT_LT(result.fleet_availability, 1.0);  // Correlated bursts cost windows.
  EXPECT_GT(result.total_holds, 0);
}

TEST(FleetTest, SeededJitterBreaksReadmissionLockstep) {
  // Without jitter, identical replicas hit by the same-instant correlated
  // fault reopen their admission gates at the same virtual time: distinct
  // expiries collapse to one per fault event. Seeded jitter staggers them
  // without losing reproducibility.
  const campaign::FleetResult lockstep = campaign::run_fleet(fleet_config(0));
  const campaign::FleetResult jittered = campaign::run_fleet(fleet_config(40));
  ASSERT_GT(lockstep.total_holds, 0);
  EXPECT_EQ(jittered.total_holds, lockstep.total_holds);
  EXPECT_LT(lockstep.distinct_hold_expiries, lockstep.total_holds);
  EXPECT_GT(jittered.distinct_hold_expiries, lockstep.distinct_hold_expiries);
  EXPECT_EQ(jittered.distinct_hold_expiries, jittered.total_holds);
}

}  // namespace
}  // namespace sg
