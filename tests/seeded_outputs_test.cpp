// Pins seeded results across commits. The other determinism tests compare two
// runs of one build; these compare against constants recorded from an earlier
// build, so they fail when a refactor moves a seeded result. A change that
// moves results on purpose updates the constants and says why in CHANGES.md.
//
// Each case hashes a canonical rendering (FNV-1a 64) at 1 and at 4 workers:
// the campaign JSON over every target and all three fault profiles with
// supervision and the invariant checker on, the fleet JSON, and two explorer
// sweeps (execution count, pruning counters and the explored schedules). Two
// more cases, which have no workers, pin a traced 125 ms open-loop web run and
// two closed-loop web runs.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/fleet.hpp"
#include "components/trace_check.hpp"
#include "explore/explorer.hpp"
#include "websrv/loadgen.hpp"
#include "websrv/server.hpp"

namespace sg {
namespace {

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Hex form, so a failure prints the value to paste.
std::string hex(std::uint64_t value) {
  char buffer[20];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

campaign::Config campaign_config(int workers) {
  campaign::Config config;
  config.master_seed = 2016;
  config.injections_per_cell = 4;
  config.workload_iterations = 40;
  config.workers = workers;
  config.check_invariants = true;
  config.profiles = {swifi::InjectionProfile::kRegisterFlip, swifi::InjectionProfile::kFailStop,
                     swifi::InjectionProfile::kFailStopBurst};
  config.supervision.loop_threshold = 3;
  config.supervision.loop_window = 500;
  config.supervision.backoff_initial = 50;
  config.supervision.backoff_max = 800;
  config.supervision.trips_per_level = 1;
  return config;
}

campaign::FleetConfig fleet_config(int workers) {
  campaign::FleetConfig config;
  config.master_seed = 2016;
  config.replicas = 4;
  config.backoff_jitter_pct = 40;
  config.workers = workers;
  config.supervision.loop_threshold = 3;
  config.supervision.loop_window = 1000;
  config.supervision.backoff_initial = 100;
  config.supervision.backoff_max = 2000;
  config.supervision.trips_per_level = 4;
  return config;
}

std::string explore_digest(const std::string& service, const std::string& target, int workers) {
  explore::Options opts;
  opts.service = service;
  opts.target = target;
  opts.max_preemptions = 1;
  opts.max_crashes = 1;
  opts.pick_window = 10;
  opts.crash_window = 10;
  opts.max_executions = 400;
  opts.stop_at_first_failure = false;
  opts.workers = workers;
  const explore::Report report = explore::Explorer(opts).explore();
  std::string text = std::to_string(report.executions) + " " + std::to_string(report.failures) +
                     " " + std::to_string(report.pruned_picks) + " " +
                     std::to_string(report.pruned_crashes) + " " +
                     (report.truncated ? "t" : "-") + (report.window_clipped ? "c" : "-") + "\n";
  for (const std::string& schedule : report.explored) text += schedule + "\n";
  return text;
}

class SeededOutputsTest : public ::testing::TestWithParam<int> {};

TEST_P(SeededOutputsTest, CampaignJsonIsPinned) {
  const campaign::Config config = campaign_config(GetParam());
  const std::string json = campaign::to_json(config, campaign::run(config));
  EXPECT_EQ(hex(fnv1a(json)), "37e55140de1d3b10");
}

TEST_P(SeededOutputsTest, FleetJsonIsPinned) {
  const campaign::FleetConfig config = fleet_config(GetParam());
  const std::string json = campaign::fleet_to_json(config, campaign::run_fleet(config));
  EXPECT_EQ(hex(fnv1a(json)), "0b560f1e02c0043e");
}

TEST_P(SeededOutputsTest, ExplorerReportsArePinned) {
  EXPECT_EQ(hex(fnv1a(explore_digest("lock", "lock", GetParam()))), "2b5f13ac097da6e0");
  EXPECT_EQ(hex(fnv1a(explore_digest("lock", "sched", GetParam()))), "0e303ef25a9ca1ce");
}

INSTANTIATE_TEST_SUITE_P(Workers, SeededOutputsTest, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "j" + std::to_string(info.param);
                         });

// One segment of the benchmark's web-open-loop workload: a traced SuperGlue
// System on one core, recovering on demand, serving 20k req/s of Poisson
// arrivals for 125 ms of virtual time with a crash every 120 ms.
TEST(SeededWebOutputsTest, OpenLoopJsonIsPinned) {
  components::SystemConfig config;
  config.seed = 7;
  config.mode = components::FtMode::kSuperGlue;
  config.policy = c3::RecoveryPolicy::kOnDemand;
  config.trace = true;
  config.cores = 1;
  components::System sys(config);
  websrv::OpenLoopConfig load;
  load.rate = 20000.0;
  load.duration_us = 125'000;
  load.seed = 7;
  load.componentized = true;
  load.fault_period = 120'000;
  const websrv::OpenLoopResult result = websrv::run_open_loop(sys, load);
  EXPECT_EQ(result.issued, 2455u);
  EXPECT_EQ(result.crashes_injected, 1);
  EXPECT_EQ(hex(fnv1a(result.to_json("superglue"))), "461dd8b102ebe96d");
  EXPECT_TRUE(components::check_recovery_invariants(sys).empty());
}

// The closed loop (`ab`) on one core: every virtual-time field of the result,
// the virtual clock at the end of the run and the kernel's invocation count.
// The wall-clock fields (elapsed_sec, requests_per_sec) are not pinned.
TEST(SeededWebOutputsTest, ClosedLoopResultsArePinned) {
  {  // The componentized server under SuperGlue, a crash every 5 ms.
    components::SystemConfig config;
    config.mode = components::FtMode::kSuperGlue;
    config.cores = 1;
    components::System sys(config);
    websrv::WebServerConfig web;
    web.total_requests = 3000;
    web.fault_period = 5000;
    const websrv::WebServerResult result = websrv::run_web_server(sys, web);
    EXPECT_EQ(result.completed, 3000);
    EXPECT_EQ(result.errors, 0);
    EXPECT_EQ(result.crashes_injected, 5);
    EXPECT_EQ(result.window_us, 20000u);
    EXPECT_EQ(result.completed_per_window, (std::vector<int>{2150, 850}));
    EXPECT_EQ(result.crash_windows, (std::vector<int>{0, 0, 0, 1, 1}));
    EXPECT_EQ(result.cache_hits, 2973u);
    EXPECT_EQ(result.cache_misses, 27u);
    EXPECT_EQ(result.cache_invalidations, 2u);
    EXPECT_EQ(result.handle_refreshes, 72u);
    EXPECT_EQ(result.connections_opened, 10u);
    EXPECT_EQ(sys.kernel().now(), 30000u);
    EXPECT_EQ(sys.kernel().invocation_count(), 27886u);
  }
  {  // The monolith.
    components::SystemConfig config;
    config.mode = components::FtMode::kNone;
    config.cores = 1;
    components::System sys(config);
    websrv::WebServerConfig web;
    web.total_requests = 3000;
    web.componentized = false;
    const websrv::WebServerResult result = websrv::run_web_server(sys, web);
    EXPECT_EQ(result.completed, 3000);
    EXPECT_EQ(result.errors, 0);
    EXPECT_EQ(result.crashes_injected, 0);
    EXPECT_EQ(result.completed_per_window, (std::vector<int>{3000}));
    EXPECT_TRUE(result.crash_windows.empty());
    EXPECT_EQ(result.cache_hits, 3000u);
    EXPECT_EQ(result.cache_misses, 0u);
    EXPECT_EQ(result.cache_invalidations, 0u);
    EXPECT_EQ(result.handle_refreshes, 0u);
    EXPECT_EQ(result.connections_opened, 10u);
    EXPECT_EQ(sys.kernel().now(), 4197u);
    EXPECT_EQ(sys.kernel().invocation_count(), 3000u);
  }
}

}  // namespace
}  // namespace sg
