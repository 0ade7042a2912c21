#pragma once

#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernel/kernel.hpp"

namespace sg::supervisor {

/// Escalation chain of the recovery supervisor, applied per component in
/// order. Level 0 is the paper's transparent C3 recovery; levels 1 and 2 are
/// the system-level policies layered on top when micro-reboots alone fail to
/// clear the fault (a crash loop).
enum class Level {
  kMicroReboot = 0,  ///< Reboot just the faulty component (C3 default).
  kGroupReboot = 1,  ///< Reboot it together with its transitive dependents.
  kQuarantined = 2,  ///< Take it out of service; clients fail fast.
};

const char* to_string(Level level);

/// Tunables for crash-loop detection and escalation. The default policy is
/// *transparent*: loop_threshold == 0 disables detection entirely, so a
/// system without an explicit policy behaves exactly like plain C3 recovery
/// (every fault is a micro-reboot, no holds, no quarantine).
struct Policy {
  /// A crash loop trips when this many reboots of one component land within
  /// `loop_window` of virtual time. 0 disables detection (observe-only).
  int loop_threshold = 0;
  kernel::VirtualTime loop_window = 1000;

  /// Re-admission backoff after a crash-loop trip: clients of the component
  /// are held at the kernel's admission gate for backoff_initial * 2^(trip-1)
  /// virtual microseconds, capped at backoff_max.
  kernel::VirtualTime backoff_initial = 100;
  kernel::VirtualTime backoff_max = 10000;

  /// Crash-loop trips tolerated at one escalation level before moving to the
  /// next (micro-reboot -> group reboot -> quarantine).
  int trips_per_level = 2;

  /// Deterministic seeded jitter on the re-admission backoff, as a percent of
  /// the exponential hold (0 disables it and keeps holds exactly at
  /// backoff_initial * 2^(trip-1)). Fleet campaigns set this: replicas
  /// tripped by a correlated fault would otherwise all release their holds at
  /// the same virtual instant and readmit in lockstep — a thundering-herd
  /// recovery storm. The stretch for a given (component, trip) is drawn
  /// reproducibly from jitter_seed, so campaign runs stay seed-reproducible:
  /// same seed, same holds; different replica seeds, staggered holds.
  int backoff_jitter_pct = 0;
  std::uint64_t jitter_seed = 0;
};

/// Counters the SWIFI stress campaigns and benchmarks report.
struct Stats {
  int faults = 0;                  ///< Faults vectored to the supervisor.
  int micro_reboots = 0;           ///< Level-0 reboots performed.
  int group_reboots = 0;           ///< Level-1 group reboots performed.
  int group_members_rebooted = 0;  ///< Dependents rebooted inside groups.
  int quarantines = 0;             ///< Level-2 quarantine transitions.
  int readmits = 0;                ///< Manual readmit() calls.
  int crash_loop_trips = 0;        ///< Times the sliding window tripped.
  int backoff_holds = 0;           ///< Admission-gate holds applied.
  int faults_during_recovery = 0;  ///< Nested faults while recovery ran.
};

/// One entry in the supervisor's decision log; tests assert on the order of
/// escalation events rather than scraping log output.
struct Event {
  kernel::VirtualTime at;
  kernel::CompId comp;
  Level level;       ///< The component's level when the event fired.
  std::string what;  ///< "fault", "trip", "micro-reboot", "group-reboot",
                     ///< "quarantine", "readmit", "nested-fault", "hold".
  /// For "hold" events: the virtual time the admission gate reopens (the
  /// fleet campaign measures readmission lockstep across replicas from it).
  kernel::VirtualTime hold_until = 0;
};

/// The recovery supervisor (system-level fault-tolerance policy). It sits
/// between the kernel's fault vector and the booter: every fail-stop fault is
/// delivered to on_fault(), which keeps a sliding-window fault history per
/// component, detects crash loops, applies exponential re-admission backoff,
/// and escalates micro-reboot -> group reboot -> quarantine. The raw reboot
/// mechanism stays in the kernel/booter (perform_micro_reboot); the
/// supervisor only decides *what* to reboot and *when* to let clients back
/// in.
///
/// Faults that arrive while a recovery is already in progress (a replayed
/// invocation crashing the freshly rebooted server, or a group member
/// faulting during its own reboot) are handled re-entrantly: the nested
/// fault is charged to the component's history and cleared with a plain
/// micro-reboot immediately, but escalation decisions are deferred to the
/// next top-level fault so the outer recovery can finish unwinding first.
class Supervisor {
 public:
  Supervisor(kernel::Kernel& kernel, Policy policy);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Declares a D0/D1 dependency edge: `dependent` invokes (and caches state
  /// derived from) `on`. Group reboots of `on` walk these edges transitively.
  void add_dependency(kernel::CompId dependent, kernel::CompId on);

  /// The kernel's fault vector. Re-entrant-safe (see class comment).
  void on_fault(kernel::CompId comp);

  /// Manually readmits a quarantined component: resets its fault history and
  /// escalation level, lifts the kernel quarantine, and micro-reboots it so
  /// it restarts from the pristine image with a fresh fault epoch.
  void readmit(kernel::CompId comp);

  Level level_of(kernel::CompId comp) const;
  int trips_of(kernel::CompId comp) const;
  /// Reboot timestamps currently inside the sliding window for `comp`.
  int history_of(kernel::CompId comp) const;

  const Policy& policy() const { return policy_; }
  const Stats& stats() const { return stats_; }
  const std::vector<Event>& events() const { return events_; }

  /// Transitive dependents of `comp` (components whose state derives from
  /// it), in BFS order from the direct dependents outward.
  std::vector<kernel::CompId> dependents_of(kernel::CompId comp) const;

 private:
  struct Track {
    std::deque<kernel::VirtualTime> history;  ///< Reboots inside the window.
    Level level = Level::kMicroReboot;
    int trips_at_level = 0;
    int total_trips = 0;
  };

  void prune_window(Track& track, kernel::VirtualTime now);
  /// Appends to the decision log; requires mtx_ held.
  void note_locked(kernel::CompId comp, Level level, const char* what, kernel::VirtualTime at,
                   kernel::VirtualTime hold_until = 0);
  kernel::VirtualTime backoff_for(int trip) const;
  /// backoff_for plus the deterministic seeded jitter for (comp, trip).
  kernel::VirtualTime jittered_backoff(kernel::CompId comp, int trip) const;
  void reboot_at_level(kernel::CompId comp, Track& track);

  kernel::Kernel& kernel_;
  Policy policy_;
  Stats stats_;
  std::unordered_map<kernel::CompId, Track> tracks_;
  /// dependency edges: server -> components that depend on it.
  std::unordered_map<kernel::CompId, std::vector<kernel::CompId>> rdeps_;
  std::vector<Event> events_;
  /// Per-recovery-context re-entrancy depth, keyed by the kernel's
  /// recovery_owner_key (a single slot 0 at cores=1): >0 while a recovery
  /// initiated by that context's on_fault is running. Scoping the depth per
  /// domain means nested-fault handling in one recovery never mislabels a
  /// concurrent disjoint domain's top-level fault as nested.
  std::unordered_map<std::int64_t, int> depth_;
  /// Short-hold guard for tracks_/stats_/events_/depth_: concurrent
  /// recoveries of disjoint domains mutate them from different cores. Never
  /// held across a kernel reboot/quarantine/hold call.
  mutable std::mutex mtx_;
};

}  // namespace sg::supervisor
