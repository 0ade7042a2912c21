#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "supervisor/supervisor.hpp"
#include "swifi/swifi.hpp"
#include "util/stats.hpp"

namespace sg::campaign {

/// Configuration for a sharded SWIFI campaign: the million-injection
/// extension of the Table II experiment. A campaign is a matrix of cells
/// (target service x injection profile); every cell gets
/// `injections_per_cell` episodes, each on a fresh System under virtual
/// time. Episode seeds are pure functions of (master_seed, cell, episode),
/// so results are identical for every worker count and pull order.
struct Config {
  std::uint64_t master_seed = 2016;
  std::uint64_t injections_per_cell = 200;
  /// Shard episodes across this many host threads (each runs disjoint
  /// Systems; the simulated machines never share mutable state).
  int workers = 1;
  /// Workload iterations per episode; 0 runs the 400-iteration workloads of
  /// Table II. Campaign episodes are deliberately shorter by default:
  /// injection timing scales with this, and a ~5x shorter episode makes
  /// million-injection campaigns CI-feasible without changing the outcome
  /// distribution's shape.
  int workload_iterations = 80;
  /// Trace every episode and run the recovery-invariant checker on its
  /// event stream; violations are tallied per cell (and should be zero).
  bool check_invariants = false;
  components::FtMode mode = components::FtMode::kSuperGlue;
  c3::RecoveryPolicy policy = c3::RecoveryPolicy::kOnDemand;
  /// Supervisor policy installed in every episode's System. Transparent by
  /// default; enabling escalation makes Quarantined outcomes reachable
  /// (fail-stop-burst cells trip crash loops).
  supervisor::Policy supervision;
  /// Target services; empty means all six Table II components + storage.
  std::vector<std::string> services;
  /// Injection profiles; empty means just the register-flip profile.
  std::vector<swifi::InjectionProfile> profiles;
};

/// Per-cell outcome counts. Buckets are mutually exclusive and sum to
/// `injected`; invariant_violations and virtual_time_total ride alongside.
struct Tally {
  std::uint64_t injected = 0;
  std::uint64_t recovered = 0;
  std::uint64_t degraded = 0;
  std::uint64_t undetected = 0;
  std::uint64_t segfault = 0;
  std::uint64_t propagated = 0;
  std::uint64_t hang = 0;         ///< Whole-system hang/deadlock crashes.
  std::uint64_t quarantined = 0;  ///< Episodes ending with the target quarantined.
  std::uint64_t other = 0;
  std::uint64_t invariant_violations = 0;  ///< Checker findings (not a bucket).
  std::uint64_t virtual_time_total = 0;    ///< Sum of episode virtual end times.

  void add(const swifi::EpisodeResult& episode);
  /// Commutative, associative merge: partial tallies from any sharding
  /// combine to the same totals in any order.
  void merge(const Tally& other_tally);

  std::uint64_t activated() const { return injected - undetected; }
  /// Wilson 95% interval on the recovery success rate (recovered/activated).
  Interval recovery_ci() const { return wilson_interval(recovered, activated()); }
  /// Wilson 95% interval on the activation ratio (activated/injected).
  Interval activation_ci() const { return wilson_interval(activated(), injected); }
};

struct CellResult {
  std::string service;
  swifi::InjectionProfile profile = swifi::InjectionProfile::kRegisterFlip;
  Tally tally;
};

struct Result {
  std::vector<CellResult> cells;  ///< Canonical order: services x profiles.
  Tally total;
  std::uint64_t episodes() const { return total.injected; }
};

/// "service/profile", the seed-derivation tag for a cell (see
/// swifi::episode_seed).
std::string cell_tag(const std::string& service, swifi::InjectionProfile profile);

/// Runs the campaign on sg::parallel_for. Deterministic for a given Config
/// modulo `workers` (which only changes wall time, never results); an
/// exception from any episode is rethrown once every worker has stopped.
Result run(const Config& config);

/// Canonical JSON for BENCH_table2_campaign.json: byte-identical across
/// same-seed runs (no wall-clock data, fixed float formatting, canonical
/// cell order).
std::string to_json(const Config& config, const Result& result);

/// Human-readable per-cell table (Table II's shape plus the campaign's extra
/// buckets) with Wilson 95% CIs on the activation ratio and recovery rate.
std::string format_table(const Result& result);

}  // namespace sg::campaign
