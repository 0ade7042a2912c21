#include "campaign/fleet.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "components/lock.hpp"
#include "components/mem_mgr.hpp"
#include "components/ramfs.hpp"
#include "components/system.hpp"
#include "kernel/fault.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace sg::campaign {

using components::System;
using components::SystemConfig;
using kernel::CompId;
using kernel::Value;
using kernel::VirtualTime;

namespace {

/// One correlated fault burst, fully materialized up-front: which replicas
/// it hits and each replica's offset inside the correlation window.
struct FaultEvent {
  VirtualTime at = 0;
  std::vector<std::uint8_t> participates;
  std::vector<VirtualTime> offsets;
};

std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  return splitmix64(a ^ (b * kSplitMixGamma));
}

std::string fixed6(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.6f", value);
  return buffer;
}

ReplicaReport run_replica(const FleetConfig& config, int index,
                          const std::vector<FaultEvent>& schedule) {
  ReplicaReport report;
  report.index = index;
  const std::uint64_t total_windows = config.horizon / config.probe_period;
  report.window_up.assign(total_windows, 0);

  // Replicas are identical machines (same image, same System seed); only the
  // supervisor's jitter seed differs, so any divergence in recovery timing
  // is attributable to the jitter policy alone.
  SystemConfig sys_config;
  sys_config.cores = 1;  // Determinism: replicas parallelize across workers.
  sys_config.seed = mix64(config.master_seed, 0x5eedULL);
  sys_config.supervision = config.supervision;
  sys_config.supervision.backoff_jitter_pct = config.backoff_jitter_pct;
  sys_config.supervision.jitter_seed =
      mix64(config.master_seed, static_cast<std::uint64_t>(index) + 1);
  System sys(sys_config);
  auto& kern = sys.kernel();
  const CompId target = sys.service_component(config.service).id();
  auto& app = sys.create_app("probe-app");

  // The availability probe: one lightweight round-trip through the target
  // service per period. A probe parked at the admission gate (backoff hold)
  // completes late and only credits the window it finishes in — holds are
  // downtime. Quarantine fail-fasts are downtime too.
  kern.thd_create("probe", 10, [&] {
    components::MmClient mm(sys.invoker(app, "mman"));
    components::LockClient lock(sys.invoker(app, "lock"), kern);
    components::FsClient fs(sys.invoker(app, "ramfs"), sys.cbufs(), app.id());
    Value lock_id = 0;
    auto probe = [&]() -> bool {
      if (config.service == "lock") {
        if (lock_id <= 0) lock_id = lock.alloc(app.id());
        if (lock_id <= 0) return false;
        if (lock.take(app.id(), lock_id) != kernel::kOk) return false;
        return lock.release(app.id(), lock_id) == kernel::kOk;
      }
      if (config.service == "ramfs") {
        const Value fd = fs.open(4242);
        if (fd < 0) return false;
        if (fs.write(fd, "p") != 1) return false;
        fs.close(fd);
        return true;
      }
      const Value page = mm.get_page(app.id(), 0x400000);
      if (page <= 0) return false;
      return mm.release_page(app.id(), page) == kernel::kOk;
    };
    while (kern.clock().now() < config.horizon) {
      bool up = false;
      try {
        up = probe();
      } catch (const kernel::QuarantinedError&) {
        ++report.quarantine_failfasts;
      }
      if (up) {
        const std::uint64_t window = kern.clock().now() / config.probe_period;
        if (window < total_windows) report.window_up[window] = 1;
      }
      kern.block_current_until(kern.clock().now() + config.probe_period);
    }
  });

  // The correlated-fault injector: replays this replica's slice of the
  // shared schedule (participation and offsets were drawn up-front).
  kern.thd_create("correlated-faults", 5, [&] {
    for (const FaultEvent& event : schedule) {
      if (!event.participates[static_cast<std::size_t>(index)]) continue;
      const VirtualTime at = event.at + event.offsets[static_cast<std::size_t>(index)];
      if (kern.clock().now() < at) kern.block_current_until(at);
      if (kern.clock().now() >= config.horizon) break;
      for (int shot = 0; shot < config.burst; ++shot) {
        if (kern.is_quarantined(target)) break;
        kern.inject_crash(target);
        ++report.faults_injected;
      }
    }
  });

  try {
    kern.run();
  } catch (const kernel::SystemCrash&) {
    report.crashed = true;  // Down from here on; windows so far still count.
  }
  report.quarantined = kern.is_quarantined(target);
  report.supervision = sys.supervision().stats();
  for (const auto& event : sys.supervision().events()) {
    if (event.what == "hold") report.hold_expiries.push_back(event.hold_until);
  }
  for (const std::uint8_t up : report.window_up) report.up_windows += up;
  return report;
}

}  // namespace

FleetResult run_fleet(const FleetConfig& config) {
  SG_ASSERT(config.replicas >= 1);
  SG_ASSERT(config.probe_period > 0 && config.horizon >= config.probe_period);
  SG_ASSERT_MSG(config.service == "mman" || config.service == "lock" ||
                    config.service == "ramfs",
                "fleet probe supports mman/lock/ramfs");

  // Draw the whole correlated schedule before anything runs: event times,
  // per-replica participation, per-replica offsets. Replica execution order
  // (and host-thread interleaving) can then never perturb the fault pattern.
  Rng rng(mix64(config.master_seed, 0xf1ee7ULL));
  std::vector<FaultEvent> schedule(static_cast<std::size_t>(config.fault_events));
  for (FaultEvent& event : schedule) {
    event.at = config.horizon / 8 + rng.next_below(config.horizon / 2);
    event.participates.resize(static_cast<std::size_t>(config.replicas));
    event.offsets.resize(static_cast<std::size_t>(config.replicas));
    for (int r = 0; r < config.replicas; ++r) {
      event.participates[static_cast<std::size_t>(r)] = rng.chance(config.share_prob) ? 1 : 0;
      event.offsets[static_cast<std::size_t>(r)] =
          config.correlation_window > 0 ? rng.next_below(config.correlation_window) : 0;
    }
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });

  FleetResult result;
  result.total_windows = config.horizon / config.probe_period;
  result.replicas.resize(static_cast<std::size_t>(config.replicas));

  parallel_for(result.replicas.size(), config.workers, [&](int, std::size_t r) {
    result.replicas[r] = run_replica(config, static_cast<int>(r), schedule);
  });

  std::set<VirtualTime> expiries;
  std::map<VirtualTime, int> expiry_buckets;  // keyed by probe window index
  double availability_sum = 0.0;
  for (const ReplicaReport& replica : result.replicas) {
    availability_sum += result.total_windows == 0
                            ? 0.0
                            : static_cast<double>(replica.up_windows) /
                                  static_cast<double>(result.total_windows);
    result.total_holds += static_cast<int>(replica.hold_expiries.size());
    expiries.insert(replica.hold_expiries.begin(), replica.hold_expiries.end());
    for (const VirtualTime expiry : replica.hold_expiries) {
      ++expiry_buckets[expiry / config.probe_period];
    }
  }
  result.distinct_hold_expiries = static_cast<int>(expiries.size());
  for (const auto& [window, count] : expiry_buckets) {
    result.herd_peak = std::max(result.herd_peak, count);
  }
  result.mean_replica_availability = availability_sum / config.replicas;
  for (std::uint64_t w = 0; w < result.total_windows; ++w) {
    bool any_up = false;
    for (const ReplicaReport& replica : result.replicas) {
      if (replica.window_up[w] != 0) {
        any_up = true;
        break;
      }
    }
    if (any_up) {
      ++result.fleet_up_windows;
    } else {
      ++result.all_down_windows;
    }
  }
  result.fleet_availability = result.total_windows == 0
                                  ? 0.0
                                  : static_cast<double>(result.fleet_up_windows) /
                                        static_cast<double>(result.total_windows);
  return result;
}

std::string fleet_to_json(const FleetConfig& config, const FleetResult& result) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"benchmark\": \"fleet_correlated_faults\",\n";
  out << "  \"master_seed\": " << config.master_seed << ",\n";
  out << "  \"replicas\": " << config.replicas << ",\n";
  out << "  \"service\": \"" << config.service << "\",\n";
  out << "  \"fault_events\": " << config.fault_events << ",\n";
  out << "  \"burst\": " << config.burst << ",\n";
  out << "  \"share_prob\": " << fixed6(config.share_prob) << ",\n";
  out << "  \"correlation_window_us\": " << config.correlation_window << ",\n";
  out << "  \"horizon_us\": " << config.horizon << ",\n";
  out << "  \"probe_period_us\": " << config.probe_period << ",\n";
  out << "  \"backoff_jitter_pct\": " << config.backoff_jitter_pct << ",\n";
  out << "  \"total_windows\": " << result.total_windows << ",\n";
  out << "  \"fleet_availability\": " << fixed6(result.fleet_availability) << ",\n";
  out << "  \"mean_replica_availability\": " << fixed6(result.mean_replica_availability)
      << ",\n";
  out << "  \"all_down_windows\": " << result.all_down_windows << ",\n";
  out << "  \"total_holds\": " << result.total_holds << ",\n";
  out << "  \"distinct_hold_expiries\": " << result.distinct_hold_expiries << ",\n";
  out << "  \"herd_peak\": " << result.herd_peak << ",\n";
  out << "  \"replica_reports\": [\n";
  for (std::size_t r = 0; r < result.replicas.size(); ++r) {
    const ReplicaReport& replica = result.replicas[r];
    const double availability = result.total_windows == 0
                                    ? 0.0
                                    : static_cast<double>(replica.up_windows) /
                                          static_cast<double>(result.total_windows);
    out << "    {\"replica\": " << replica.index << ", \"availability\": "
        << fixed6(availability) << ", \"up_windows\": " << replica.up_windows
        << ", \"faults_injected\": " << replica.faults_injected
        << ", \"holds\": " << replica.hold_expiries.size()
        << ", \"quarantine_failfasts\": " << replica.quarantine_failfasts
        << ", \"crashed\": " << (replica.crashed ? "true" : "false")
        << ", \"quarantined\": " << (replica.quarantined ? "true" : "false") << "}"
        << (r + 1 < result.replicas.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.str();
}

std::string format_fleet(const FleetConfig& config, const FleetResult& result) {
  std::ostringstream out;
  TextTable table;
  table.add_row({"Replica", "Availability", "Up windows", "Faults", "Holds", "Fail-fasts",
                 "Crashed", "Quarantined"});
  for (const ReplicaReport& replica : result.replicas) {
    const double availability = result.total_windows == 0
                                    ? 0.0
                                    : static_cast<double>(replica.up_windows) /
                                          static_cast<double>(result.total_windows);
    char pct[16];
    std::snprintf(pct, sizeof pct, "%.2f%%", availability * 100.0);
    table.add_row({std::to_string(replica.index), pct, std::to_string(replica.up_windows),
                   std::to_string(replica.faults_injected),
                   std::to_string(replica.hold_expiries.size()),
                   std::to_string(replica.quarantine_failfasts),
                   replica.crashed ? "yes" : "no", replica.quarantined ? "yes" : "no"});
  }
  out << table.render();
  char line[160];
  std::snprintf(line, sizeof line,
                "fleet availability %.4f over %llu windows (%llu all-down); "
                "holds %d, distinct expiries %d, herd peak %d, jitter %d%%\n",
                result.fleet_availability,
                static_cast<unsigned long long>(result.total_windows),
                static_cast<unsigned long long>(result.all_down_windows), result.total_holds,
                result.distinct_hold_expiries, result.herd_peak, config.backoff_jitter_pct);
  out << line;
  return out.str();
}

}  // namespace sg::campaign
