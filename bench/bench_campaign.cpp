// Million-injection SWIFI campaign + fleet correlated-fault benchmark.
//
// Extends the 500-injection Table II experiment (bench_table2_swifi) to
// statistically meaningful scale: episodes run entirely under the kernel's
// virtual clock, so each one costs microseconds of virtual time and a few
// milliseconds of wall time, and workers shard millions of seeded episodes
// across host threads. Per (component x fault-profile) cell the campaign
// streams outcome tallies — recovered / degraded / undetected / segfault /
// propagated / hang / quarantined / other — and reports Wilson-score 95%
// confidence intervals; see docs/CAMPAIGNS.md.
//
// With --fleet it instead simulates N identical System replicas under a
// shared correlated-fault schedule and reports availability-under-
// correlated-fault plus the re-admission lockstep (thundering herd) metric.
//
// Everything is a pure function of --seed: two runs with the same seed emit
// byte-identical JSON regardless of -j.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_common.hpp"
#include "campaign/campaign.hpp"
#include "campaign/fleet.hpp"

namespace {

bool parse_profiles(const std::string& text, std::vector<sg::swifi::InjectionProfile>& out) {
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string name = text.substr(start, comma - start);
    if (name == "register-flip") {
      out.push_back(sg::swifi::InjectionProfile::kRegisterFlip);
    } else if (name == "fail-stop") {
      out.push_back(sg::swifi::InjectionProfile::kFailStop);
    } else if (name == "fail-stop-burst") {
      out.push_back(sg::swifi::InjectionProfile::kFailStopBurst);
    } else if (!name.empty()) {
      std::fprintf(stderr, "unknown profile '%s'\n", name.c_str());
      return false;
    }
    start = comma + 1;
  }
  return true;
}

long long arg_ll(const char* arg) { return std::atoll(arg); }

int run_fleet_mode(std::uint64_t seed, int replicas, int jitter_pct, int workers) {
  sg::bench::banner("Fleet-level correlated faults across System replicas",
                    "availability under shared-mode failures; docs/CAMPAIGNS.md");
  sg::campaign::FleetConfig config;
  config.master_seed = seed;
  config.replicas = replicas;
  config.backoff_jitter_pct = jitter_pct;
  config.workers = workers;
  // Escalating supervision so the correlated bursts trip crash loops and the
  // holds (the lockstep signal) actually fire.
  config.supervision.loop_threshold = 3;
  config.supervision.loop_window = 1000;
  config.supervision.backoff_initial = 100;
  config.supervision.backoff_max = 2000;
  config.supervision.trips_per_level = 4;

  double wall_ms = 0.0;
  sg::campaign::FleetResult result;
  wall_ms = sg::bench::time_us([&] { result = sg::campaign::run_fleet(config); }) / 1000.0;
  std::printf("%s", sg::campaign::format_fleet(config, result).c_str());
  std::printf("wall time: %.1f ms for %d replicas x %llu us virtual horizon\n", wall_ms,
              config.replicas, static_cast<unsigned long long>(config.horizon));
  sg::bench::write_json_file(
      "BENCH_fleet_correlated.json",
      sg::bench::with_host_meta(sg::campaign::fleet_to_json(config, result), config.workers));
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_campaign [--injections=N] [-jN|--workers=N] "
               "[--iterations=N] [--seed=S] [--profiles=a,b] [--supervised] "
               "[--check-invariants] [--json] [--fleet [--replicas=N] [--jitter=PCT]]\n"
               "--injections (SG_CAMPAIGN_INJECTIONS) must be >= 0, --replicas >= 1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  sg::campaign::Config config;
  config.master_seed = static_cast<std::uint64_t>(sg::bench::env_int("SG_SEED", 2016));
  config.workers = sg::bench::env_int("SG_WORKERS", 1);
  bool fleet = false;
  bool json = false;
  long long injections = 200;
  long long replicas = 3;
  int jitter_pct = 25;
  if (!sg::bench::env_count("SG_CAMPAIGN_INJECTIONS", 0, &injections)) return usage();

  for (int arg = 1; arg < argc; ++arg) {
    if (std::strncmp(argv[arg], "--injections=", 13) == 0) {
      if (!sg::bench::parse_count(argv[arg] + 13, 0, &injections)) return usage();
    } else if (std::strncmp(argv[arg], "--workers=", 10) == 0) {
      config.workers = static_cast<int>(arg_ll(argv[arg] + 10));
    } else if (std::strncmp(argv[arg], "-j", 2) == 0 && argv[arg][2] != '\0') {
      config.workers = static_cast<int>(arg_ll(argv[arg] + 2));
    } else if (std::strncmp(argv[arg], "--iterations=", 13) == 0) {
      config.workload_iterations = static_cast<int>(arg_ll(argv[arg] + 13));
    } else if (std::strncmp(argv[arg], "--seed=", 7) == 0) {
      config.master_seed = static_cast<std::uint64_t>(arg_ll(argv[arg] + 7));
    } else if (std::strncmp(argv[arg], "--profiles=", 11) == 0) {
      if (!parse_profiles(argv[arg] + 11, config.profiles)) return 2;
    } else if (std::strncmp(argv[arg], "--replicas=", 11) == 0) {
      if (!sg::bench::parse_count(argv[arg] + 11, 1, &replicas)) return usage();
    } else if (std::strncmp(argv[arg], "--jitter=", 9) == 0) {
      jitter_pct = static_cast<int>(arg_ll(argv[arg] + 9));
    } else if (std::strcmp(argv[arg], "--check-invariants") == 0) {
      config.check_invariants = true;
    } else if (std::strcmp(argv[arg], "--supervised") == 0) {
      config.supervision.loop_threshold = 3;
      config.supervision.loop_window = 500;
      config.supervision.backoff_initial = 50;
      config.supervision.backoff_max = 800;
      config.supervision.trips_per_level = 1;
    } else if (std::strcmp(argv[arg], "--fleet") == 0) {
      fleet = true;
    } else if (std::strcmp(argv[arg], "--json") == 0) {
      json = true;
    } else {
      return usage();
    }
  }
  config.injections_per_cell = static_cast<std::uint64_t>(injections);

  if (fleet) {
    return run_fleet_mode(config.master_seed, static_cast<int>(replicas), jitter_pct,
                          config.workers);
  }

  sg::bench::banner("Sharded SWIFI campaign under virtual time",
                    "Table II at distribution scale; docs/CAMPAIGNS.md");
  const std::size_t n_profiles = config.profiles.empty() ? 1 : config.profiles.size();
  const std::size_t n_services = config.services.empty() ? 7 : config.services.size();
  std::printf("cells: %zu services x %zu profiles, %llu injections/cell, %d workers, seed %llu\n",
              n_services, n_profiles,
              static_cast<unsigned long long>(config.injections_per_cell), config.workers,
              static_cast<unsigned long long>(config.master_seed));

  sg::campaign::Result result;
  const double wall_ms =
      sg::bench::time_us([&] { result = sg::campaign::run(config); }) / 1000.0;
  std::printf("%s", sg::campaign::format_table(result).c_str());
  std::printf("episodes: %llu, virtual time simulated: %.3f s, wall time: %.1f ms "
              "(%.3f ms/episode)\n",
              static_cast<unsigned long long>(result.episodes()),
              static_cast<double>(result.total.virtual_time_total) / 1e6, wall_ms,
              result.episodes() > 0 ? wall_ms / static_cast<double>(result.episodes()) : 0.0);
  if (json) {
    sg::bench::write_json_file(
        "BENCH_table2_campaign.json",
        sg::bench::with_host_meta(sg::campaign::to_json(config, result), config.workers));
  }
  if (result.total.invariant_violations > 0) {
    std::printf("FAIL: %llu recovery-invariant violations\n",
                static_cast<unsigned long long>(result.total.invariant_violations));
    return 1;
  }
  return 0;
}
