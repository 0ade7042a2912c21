#include <gtest/gtest.h>

#include "campaign/campaign.hpp"
#include "swifi/swifi.hpp"
#include "swifi/workloads.hpp"

namespace sg {
namespace {

using swifi::Campaign;
using swifi::CampaignConfig;
using swifi::Outcome;

/// Table II episodes (the 400-iteration workloads) against one target.
campaign::Tally table2_cell(const std::string& service, std::uint64_t injections,
                            std::uint64_t seed = 2016,
                            components::FtMode mode = components::FtMode::kSuperGlue) {
  campaign::Config config;
  config.master_seed = seed;
  config.injections_per_cell = injections;
  config.workload_iterations = 0;
  config.services = {service};
  config.mode = mode;
  return campaign::run(config).total;
}

double activation_ratio(const campaign::Tally& t) {
  return static_cast<double>(t.activated()) / static_cast<double>(t.injected);
}

double success_rate(const campaign::Tally& t) {
  return static_cast<double>(t.recovered) / static_cast<double>(t.activated());
}

TEST(SwifiTest, WorkloadsRunCleanWithoutInjection) {
  // Every workload must complete its iterations with invariants intact when
  // no fault is injected (otherwise campaign classification is meaningless).
  for (const char* service : {"sched", "mman", "ramfs", "lock", "evt", "tmr"}) {
    components::System sys{components::SystemConfig{}};
    swifi::WorkloadState state;
    state.target_iterations = 50;
    swifi::install_workload(sys, service, state);
    sys.kernel().run();
    EXPECT_TRUE(state.done()) << service;
    EXPECT_TRUE(state.correct) << service;
  }
}

TEST(SwifiTest, EpisodesAreDeterministic) {
  CampaignConfig config;
  config.seed = 99;
  Campaign campaign_a(config);
  Campaign campaign_b(config);
  for (int episode = 0; episode < 8; ++episode) {
    EXPECT_EQ(campaign_a.run_episode("lock", episode), campaign_b.run_episode("lock", episode))
        << episode;
  }
}

TEST(SwifiTest, MostFaultsAreActivatedAndRecovered) {
  const campaign::Tally fs = table2_cell("ramfs", 60, 7);
  EXPECT_EQ(fs.injected, 60u);
  // Loose bands around Table II's FS row (94.7% activation, 96.1% success).
  EXPECT_GT(activation_ratio(fs), 0.75);
  EXPECT_GT(success_rate(fs), 0.80);
}

TEST(SwifiTest, CampaignCountsAreConsistent) {
  const campaign::Tally t = table2_cell("tmr", 40);
  EXPECT_EQ(t.recovered + t.degraded + t.segfault + t.propagated + t.hang + t.quarantined +
                t.other + t.undetected,
            t.injected);
  EXPECT_EQ(t.activated(), t.injected - t.undetected);
}

TEST(SwifiTest, C3ModeRecoversComparably) {
  EXPECT_GT(success_rate(table2_cell("lock", 40, 2016, components::FtMode::kC3)), 0.7);
}

}  // namespace
}  // namespace sg
