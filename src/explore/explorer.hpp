#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <vector>

#include "explore/schedule.hpp"

namespace sg::explore {

/// Exploration bounds (docs/EXPLORER.md). The defaults are the CI smoke
/// bounds; the acceptance sweep uses d = 2 over all six service targets plus
/// storage.
struct Options {
  /// Workload from src/swifi/workloads.cpp driving the system under test.
  std::string service = "lock";
  /// Crash victim service (Schedule::target); empty = schedule-only search.
  std::string target;
  /// Preemption budget d: max pick deviations per schedule (context bound).
  int max_preemptions = 2;
  /// Max crash injections per schedule.
  int max_crashes = 1;
  /// Deviations are only attempted at pick points < pick_window and crash
  /// points < crash_window: an explicit, honest truncation of the horizon
  /// (reported via Report::window_clipped) instead of a silent one.
  std::uint64_t pick_window = 64;
  std::uint64_t crash_window = 48;
  /// Hard cap on executions; hitting it sets Report::truncated.
  std::size_t max_executions = 20000;
  /// Workload iterations per execution (keep small: every execution boots a
  /// fresh System).
  int iterations = 2;
  /// System seed; the sweep must be identical for identical seeds.
  std::uint64_t seed = 2016;
  /// Scheduling steps before the kernel declares the execution hung.
  std::uint64_t step_limit = 200000;
  /// Stop the sweep at the first failing execution (rediscovery mode); off
  /// for coverage sweeps.
  bool stop_at_first_failure = true;
  /// Capture the normalized event trace of each execution into
  /// Execution::trace (debugging repros; costs formatting time).
  bool capture_trace = false;
  /// Dynamic partial-order reduction: prune child schedules whose first
  /// deviation provably commutes with the parent's continuation (sleep
  /// sets over the commuting-invoke independence relation). Off = the
  /// exhaustive enumerator; the differential harness
  /// (tests/explore_dpor_test.cpp) asserts both find the same failures.
  bool dpor = true;
  /// Parallel frontier width: executions of one BFS wave are sharded over
  /// this many host threads by sg::parallel_for, each replayed in its own
  /// fresh System (cores pinned to 1 for per-execution determinism). Results
  /// are merged in canonical BFS order, so Report::explored is byte-identical
  /// for any worker count.
  int workers = 1;
};

/// Dependence footprint of the execution segment between two consecutive
/// choice points, derived from the trace events the run already emits. The
/// independence relation (docs/EXPLORER.md) judges a deviation redundant only
/// against this footprint — conservatively: anything unobservable counts as
/// dependent.
struct StepFootprint {
  /// Fault/recovery machinery fired inside the segment (fault vectoring,
  /// reboot, recovery walk, supervisor, storage substrate, cmon), or the
  /// segment could not be observed (log overflow, missing invoke-enter
  /// metadata). Nothing commutes across a barrier.
  bool barrier = true;
  /// The segment contains synchronization or scheduling freedom (block, wake,
  /// a pick choice point). Crash injections do not commute across these.
  bool sync = false;
  /// Components touched inside the segment (invocations, sigma transitions).
  std::vector<kernel::CompId> comps;
  /// Threads that acted or were woken inside the segment.
  std::vector<kernel::ThreadId> threads;

  bool touches_comp(kernel::CompId comp) const;
  bool touches_thread(kernel::ThreadId thd) const;
  void add_comp(kernel::CompId comp);
  void add_thread(kernel::ThreadId thd);
};

/// Outcome of replaying one schedule.
struct Execution {
  Schedule schedule;
  bool failed = false;
  bool crashed = false;           ///< kernel::SystemCrash escaped run().
  std::string reason;             ///< First failure cause, human-readable.
  std::vector<std::string> violations;  ///< Recovery-invariant violations.
  /// Observations for the enumerator: candidate count at each pick point
  /// reached, and the number of crash points reached.
  std::vector<std::size_t> pick_counts;
  std::uint64_t crash_points = 0;
  /// True when the run reached choice points beyond a deviation window —
  /// computed worker-side so the parallel frontier can OR-merge it into
  /// Report::window_clipped.
  bool clipped = false;
  /// Normalized event trace (only with Options::capture_trace).
  std::string trace;

  // --- DPOR commutation metadata (empty when the run failed/crashed: failing
  // executions are leaves and never extended) ------------------------------
  /// Candidates offered at each pick point reached (parallel to pick_counts).
  std::vector<std::vector<kernel::SchedulePolicy::Candidate>> pick_cands;
  /// Invocation boundary of each crash point reached.
  std::vector<CrashPointObs> crash_obs;
  /// pick_commutes[n][k]: deviating to candidate k at pick point n provably
  /// commutes with the parent execution — the deviated run is Mazurkiewicz-
  /// equivalent to this one, so the child is redundant (a sleep-set member).
  /// Derived from the trace: candidate k's next observed run is disjoint
  /// (components, threads, no recovery machinery) from everything executed
  /// between the pick point and that run's natural dispatch.
  std::vector<std::vector<bool>> pick_commutes;
  /// Footprint of the segment between crash points p and p + 1.
  std::vector<StepFootprint> crash_steps;
  /// Crash target / storage substrate component ids in the replayed System
  /// (stable across executions: construction order is deterministic).
  kernel::CompId target_comp = kernel::kNoComp;
  kernel::CompId storage_comp = kernel::kNoComp;
};

/// Result of a bounded sweep.
struct Report {
  std::size_t executions = 0;
  std::size_t failures = 0;
  bool truncated = false;       ///< Stopped at max_executions.
  bool window_clipped = false;  ///< Some run reached points beyond a window.
  /// Children pruned by the sleep-set test before replay, per dimension.
  /// Honest accounting: each pruned child counts exactly once — the subtree
  /// it would have spawned is *not* estimated, so naive_executions() is a
  /// lower bound on what the exhaustive enumerator replays.
  std::size_t pruned_picks = 0;
  std::size_t pruned_crashes = 0;
  /// Canonical schedule strings in BFS order — the explored-state set; two
  /// seeded runs must produce identical vectors, for any worker count.
  std::vector<std::string> explored;
  /// Failing executions, in discovery order.
  std::vector<Execution> failing;

  std::size_t pruned() const { return pruned_picks + pruned_crashes; }
  std::size_t naive_executions() const { return executions + pruned(); }
  double pruning_ratio() const {
    return executions == 0 ? 1.0
                           : static_cast<double>(naive_executions()) /
                                 static_cast<double>(executions);
  }
};

/// CHESS-style bounded schedule/crash-point explorer: breadth-first over
/// decision vectors, monotone extension per dimension, every execution
/// replayed in a fresh System under the workload oracle and the recovery
/// invariant checker. Dynamic partial-order reduction (sleep sets over a
/// trace-derived independence relation) prunes redundant interleavings, and
/// each BFS wave is replayed in parallel on sg::parallel_for.
/// Deterministic end to end: Report::explored is byte-identical across runs
/// and worker counts.
class Explorer {
 public:
  explicit Explorer(Options opts) : opts_(std::move(opts)) {}

  const Options& options() const { return opts_; }

  /// Replays one schedule in a fresh System and classifies the outcome.
  /// Thread-safe: concurrent calls replay in independent Systems.
  Execution run_one(const Schedule& schedule) const;

  /// Bounded BFS from the empty schedule.
  Report explore() const;

  /// Greedy delta-debugging: drops decisions one at a time while the
  /// execution still fails; returns the fixed point (a 1-minimal repro).
  /// An already-1-minimal schedule (including the empty one) is returned
  /// unchanged.
  Schedule shrink(const Schedule& failing) const;

  /// The independence tests behind Options::dpor, exposed for the
  /// differential harness. Both are conservative: they may answer "dependent"
  /// for commuting deviations, never the reverse (validated empirically by
  /// tests/explore_dpor_test.cpp).
  ///
  /// True when deviating to candidate `idx` at pick point `point` commutes
  /// with the segment the parent execution ran up to the next pick point.
  static bool pick_deviation_commutes(const Execution& ex, std::uint64_t point,
                                      std::size_t idx);
  /// True when crashing the target at point `point` is schedule-equivalent to
  /// crashing it at `point - 1` (the intervening segment commutes with the
  /// fault and its recovery).
  static bool crash_points_equivalent(const Execution& ex, std::uint64_t point);

 private:
  void extend(const Execution& ex, Report& report,
              std::set<std::string>& visited, std::deque<Schedule>& queue) const;

  Options opts_;
};

}  // namespace sg::explore
