#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "components/trace_check.hpp"
#include "supervisor/supervisor.hpp"

namespace sg::swifi {

/// The supervised stress campaigns (--mode= of bench_table2_swifi). Unlike
/// the Table II campaign -- one random bit flip per fresh machine -- these
/// modes hammer one machine with *correlated* fail-stop faults to exercise
/// the recovery supervisor's policies:
///   kCrashLoop       : repeated faults in one component until the escalation
///                      chain runs micro-reboot -> group reboot -> quarantine,
///                      then a manual readmit restores service.
///   kBurst           : back-to-back fault volleys into rotating services
///                      while workloads for all of them run concurrently.
///   kFaultInRecovery : a fault is injected *into the replay itself* (the
///                      eager descriptor sweep crashes the freshly rebooted
///                      server), exercising re-entrant recovery.
///   kIndependentBurst: simultaneous faults into components with *disjoint*
///                      dependency closures (lock and ramfs) at cores>=2, so
///                      their recovery domains are claimed and micro-rebooted
///                      concurrently while untouched services keep serving.
///                      The first three modes pin cores=1 for golden-trace
///                      determinism; this one exists to prove the concurrency.
enum class StressMode { kCrashLoop, kBurst, kFaultInRecovery, kIndependentBurst };

const char* to_string(StressMode mode);
/// Parses "crash-loop" / "burst" / "fault-in-recovery" / "independent-burst".
bool parse_stress_mode(const std::string& text, StressMode& mode);

struct StressConfig {
  std::uint64_t seed = 2016;
  /// Capture the run's event trace and check recovery invariants over it.
  bool trace = false;
  /// kIndependentBurst only: cores per episode (clamped to >= 2) and the
  /// number of fresh-machine episodes to aggregate.
  int cores = 4;
  int episodes = 6;
};

/// Everything a stress run observed; the supervisor tests assert on these
/// fields and bench_table2_swifi prints them.
struct StressReport {
  supervisor::Policy policy;            ///< Policy the run used.
  supervisor::Stats stats;              ///< Final supervisor counters.
  std::vector<supervisor::Event> events;
  int reentrant_reboots = 0;            ///< RecoveryCoordinator counter.
  int replay_restarts = 0;              ///< RecoveryCoordinator counter.
  int total_reboots = 0;
  int violations = 0;                   ///< Workload invariant violations.
  int quarantine_failfasts = 0;         ///< Calls rejected via QuarantinedError.
  int post_readmit_successes = 0;       ///< Successful calls after readmit().
  int server_allocs = 0;                ///< Target-server creation dispatches
                                        ///< (bounds replay duplication).
  bool completed = false;               ///< kernel.run() returned normally.
  bool escalation_in_order = false;     ///< Levels fired in monotone order.
  std::string crash;                    ///< Non-empty if a SystemCrash escaped.
  // kIndependentBurst only (aggregated across episodes):
  int episodes = 0;                     ///< Fresh-machine episodes run.
  int overlap_episodes = 0;             ///< Episodes whose kernel high-water
                                        ///< reached >= 2 concurrent recoveries.
  int max_concurrent_recoveries = 0;    ///< Kernel high-water across episodes.
  int trace_max_concurrent_domains = 0; ///< Trace-proven high-water (checker).
  int bystander_ops = 0;                ///< Untouched-service (evt) requests
                                        ///< completed over the whole run.
  int bystander_ops_during_recovery = 0;  ///< ...completed while at least one
                                          ///< recovery domain was in flight.
  // Captured only with StressConfig::trace (kIndependentBurst: episode 0's
  // events, truncated if any episode's log overflowed):
  components::TraceCapture trace;
  std::vector<std::string> trace_violations;  ///< Recovery-invariant breaks.
};

StressReport run_stress(StressMode mode, const StressConfig& config = {});

std::string format_stress_report(StressMode mode, const StressReport& report);

}  // namespace sg::swifi
