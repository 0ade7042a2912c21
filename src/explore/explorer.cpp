#include "explore/explorer.hpp"

#include <algorithm>
#include <deque>
#include <set>
#include <utility>

#include "components/system.hpp"
#include "components/trace_check.hpp"
#include "swifi/workloads.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace sg::explore {

using components::System;
using components::SystemConfig;

// ---------------------------------------------------------------------------
// Dependence footprints (the independence relation's evidence)
// ---------------------------------------------------------------------------

bool StepFootprint::touches_comp(kernel::CompId comp) const {
  return std::find(comps.begin(), comps.end(), comp) != comps.end();
}

bool StepFootprint::touches_thread(kernel::ThreadId thd) const {
  return std::find(threads.begin(), threads.end(), thd) != threads.end();
}

void StepFootprint::add_comp(kernel::CompId comp) {
  if (comp != kernel::kNoComp && !touches_comp(comp)) comps.push_back(comp);
}

void StepFootprint::add_thread(kernel::ThreadId thd) {
  if (thd != kernel::kNoThread && !touches_thread(thd)) threads.push_back(thd);
}

namespace {

/// Fault/recovery machinery: nothing commutes across these — a crash or a
/// deviation moved past them could land in a different recovery phase.
bool is_barrier_event(trace::EventKind kind) {
  using trace::EventKind;
  switch (kind) {
    case EventKind::kFault:
    case EventKind::kMicroReboot:
    case EventKind::kQuarantine:
    case EventKind::kReadmit:
    case EventKind::kHold:
    case EventKind::kWalkBegin:
    case EventKind::kWalkStep:
    case EventKind::kWalkEnd:
    case EventKind::kWalkAbort:
    case EventKind::kMechanism:
    case EventKind::kSupFault:
    case EventKind::kSupNestedFault:
    case EventKind::kSupTrip:
    case EventKind::kSupEscalate:
    case EventKind::kSupGroupReboot:
    case EventKind::kSupGroupMember:
    case EventKind::kSupReadmit:
    case EventKind::kCmonDetect:
    case EventKind::kStorageEvict:
    case EventKind::kStorageScrub:
    case EventKind::kStorageRebuildBegin:
    case EventKind::kStorageRebuildEnd:
    case EventKind::kSchedCrash:
      return true;
    default:
      return false;
  }
}

void accumulate(StepFootprint& fp, const trace::Event& ev) {
  using trace::EventKind;
  fp.add_comp(ev.comp);
  fp.add_thread(ev.thd);
  if (is_barrier_event(ev.kind)) fp.barrier = true;
  if (ev.kind == EventKind::kBlock) fp.sync = true;
  if (ev.kind == EventKind::kWake) {
    fp.sync = true;
    fp.add_thread(static_cast<kernel::ThreadId>(ev.c));  // The woken thread.
  }
  if (ev.kind == EventKind::kSchedPick) {
    fp.sync = true;
    fp.add_thread(static_cast<kernel::ThreadId>(ev.c));  // The picked thread.
  }
}

/// The thread-next-step independence test behind pick pruning. Deviating to
/// candidate thread `thd` at the pick point whose kSchedPick event sits at
/// `evs[start]` reorders two blocks of the parent trace:
///
///   * pre — everything other threads ran between the pick point and the
///     moment `thd` was naturally dispatched, and
///   * sub — `thd`'s own next step: its contiguous run from that dispatch up
///     to its next scheduling decision.
///
/// The swap provably commutes when the blocks are disjoint: no shared
/// components, no shared threads (wake edges count — accumulate() folds the
/// woken/picked thread into the footprint), `thd` itself untouched by pre,
/// and no fault/recovery barrier anywhere in either block. Anything
/// unattributable (an event from outside the simulated-thread world) makes
/// the answer "dependent" — conservative by construction.
bool next_step_commutes(const std::vector<trace::Event>& evs, std::size_t start,
                        kernel::ThreadId thd) {
  using trace::EventKind;
  StepFootprint pre;
  pre.barrier = false;
  StepFootprint sub;
  sub.barrier = false;
  std::size_t i = start + 1;
  bool found = false;
  for (; i < evs.size(); ++i) {
    const trace::Event& ev = evs[i];
    if (ev.thd == thd) { found = true; break; }
    if (ev.kind == EventKind::kSchedPick &&
        static_cast<kernel::ThreadId>(ev.c) == thd) {
      // The scheduler dispatched `thd`; its step starts after this event.
      found = true;
      ++i;
      break;
    }
    if (ev.thd == kernel::kNoThread && ev.kind != EventKind::kSchedPick) {
      return false;  // Unattributable activity: cannot prove disjointness.
    }
    accumulate(pre, ev);
    if (pre.barrier) return false;
  }
  if (!found) return false;  // The candidate never ran again: no evidence.
  for (; i < evs.size(); ++i) {
    const trace::Event& ev = evs[i];
    if (ev.thd != thd) break;  // Another thread (or the scheduler) took over.
    accumulate(sub, ev);
    if (sub.barrier) return false;
  }
  if (pre.touches_thread(thd)) return false;
  for (const kernel::CompId comp : sub.comps) {
    if (pre.touches_comp(comp)) return false;
  }
  for (const kernel::ThreadId t : sub.threads) {
    if (pre.touches_thread(t)) return false;
  }
  return true;
}

/// Derives the DPOR metadata from one finished run's trace:
///
///   * crash segment p: [kInvokeEnter with d=p+1, next stamped kInvokeEnter)
///     accumulated into crash_steps[p] — the crash-equivalence evidence;
///   * pick_commutes[n][k]: the thread-next-step test for every deviating
///     candidate at every pick point a child could deviate at.
///
/// Conservative defaults: a segment never observed (its boundary event is
/// missing — e.g. the invocation was refused admission — or the ring
/// overflowed) keeps barrier=true / commutes=false and is treated as fully
/// dependent.
void derive_footprints(Execution& out, const trace::Tracer::Snapshot& snap,
                       const Options& opts) {
  out.crash_steps.assign(
      static_cast<std::size_t>(std::min<std::uint64_t>(
          out.crash_points, ReplayPolicy::kMaxRecorded)),
      StepFootprint{});
  out.pick_commutes.clear();
  if (snap.truncated()) return;  // Dropped events: nothing is trustworthy.

  const std::size_t pick_horizon = static_cast<std::size_t>(
      std::min<std::uint64_t>(out.pick_counts.size(), opts.pick_window));
  std::vector<std::ptrdiff_t> pick_pos(pick_horizon, -1);

  std::ptrdiff_t cur_crash = -1;
  for (std::size_t i = 0; i < snap.events.size(); ++i) {
    const trace::Event& ev = snap.events[i];
    if (ev.kind == trace::EventKind::kSchedPick) {
      if (ev.d >= 0 && static_cast<std::size_t>(ev.d) < pick_pos.size()) {
        pick_pos[static_cast<std::size_t>(ev.d)] = static_cast<std::ptrdiff_t>(i);
      }
    } else if (ev.kind == trace::EventKind::kInvokeEnter && ev.d > 0) {
      cur_crash = static_cast<std::ptrdiff_t>(ev.d - 1);
      if (static_cast<std::size_t>(cur_crash) < out.crash_steps.size()) {
        out.crash_steps[static_cast<std::size_t>(cur_crash)].barrier = false;
      }
    }
    if (cur_crash >= 0 && static_cast<std::size_t>(cur_crash) < out.crash_steps.size()) {
      accumulate(out.crash_steps[static_cast<std::size_t>(cur_crash)], ev);
    }
  }

  // Pick children only sprout while the preemption budget has headroom; the
  // per-candidate scans are bounded by the pick window, so this stays cheap.
  if (out.schedule.picks.size() >= static_cast<std::size_t>(opts.max_preemptions)) {
    return;
  }
  out.pick_commutes.assign(pick_horizon, {});
  for (std::size_t n = 0; n < pick_horizon; ++n) {
    const std::size_t count = out.pick_counts[n];
    out.pick_commutes[n].assign(count, false);
    if (pick_pos[n] < 0 || n >= out.pick_cands.size()) continue;
    for (std::size_t idx = 1; idx < count && idx < out.pick_cands[n].size(); ++idx) {
      out.pick_commutes[n][idx] = next_step_commutes(
          snap.events, static_cast<std::size_t>(pick_pos[n]),
          out.pick_cands[n][idx].thd);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Independence tests (sleep-set membership)
// ---------------------------------------------------------------------------

bool Explorer::pick_deviation_commutes(const Execution& ex, std::uint64_t point,
                                       std::size_t idx) {
  // Deviating to candidate `idx` runs its thread's next step *before*
  // everything the default execution ran between the pick point and that
  // thread's natural dispatch. The swap commutes — and the child is a
  // sleep-set member the parent's subtree already covers — when the two
  // blocks are disjoint (next_step_commutes, precomputed per finished run by
  // derive_footprints). If the candidate does interact with the intervening
  // activity, the test fails here and the interleaving is explored — and
  // monotone extension re-offers the deviation at every later pick point
  // (the sleep-set wakeup).
  if (point >= ex.pick_commutes.size()) return false;
  const auto& row = ex.pick_commutes[static_cast<std::size_t>(point)];
  if (idx == 0 || idx >= row.size()) return false;
  return row[idx];
}

bool Explorer::crash_points_equivalent(const Execution& ex, std::uint64_t point) {
  // Crashing the target at `point` is equivalent to crashing it at
  // `point - 1` when the fault (and the whole recovery it triggers) commutes
  // with the intervening segment: the segment touches neither the target nor
  // the storage substrate recovery reads, no fault/recovery machinery fired
  // in it — and neither boundary invocation involves the target itself (a
  // crash at the entry *into* the target unwinds the caller differently from
  // an asynchronous one). Synchronization among threads in the segment is
  // fine: those threads act on components disjoint from the target, so none
  // of them is blocked inside it, and the recovery machinery (T0 wakeups,
  // R0 walks, the substrate rebuild) only ever touches threads and records
  // parked in the target or the substrate.
  if (point == 0) return false;
  const std::uint64_t prev = point - 1;
  if (prev >= ex.crash_steps.size()) return false;
  if (point >= ex.crash_obs.size()) return false;
  if (ex.target_comp == kernel::kNoComp) return false;
  const StepFootprint& fp = ex.crash_steps[static_cast<std::size_t>(prev)];
  if (fp.barrier) return false;
  if (fp.touches_comp(ex.target_comp)) return false;
  if (ex.storage_comp != kernel::kNoComp && fp.touches_comp(ex.storage_comp)) return false;
  const CrashPointObs& a = ex.crash_obs[static_cast<std::size_t>(prev)];
  const CrashPointObs& b = ex.crash_obs[static_cast<std::size_t>(point)];
  if (a.server == ex.target_comp || b.server == ex.target_comp) return false;
  if (a.client == ex.target_comp || b.client == ex.target_comp) return false;
  return true;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

Execution Explorer::run_one(const Schedule& schedule) const {
  // Fresh machine per execution, exactly like a SWIFI episode: residual state
  // from a previous interleaving must not leak into the next one.
  SystemConfig cfg;
  cfg.seed = opts_.seed;
  cfg.cores = 1;  // Replayable schedules require the single-runner kernel.
  cfg.trace = true;
  System sys(cfg);

  swifi::WorkloadState state;
  state.target_iterations = opts_.iterations;
  swifi::install_workload(sys, opts_.service, state);

  auto& kern = sys.kernel();
  kernel::CompId target = kernel::kNoComp;
  if (!schedule.target.empty()) target = sys.service_component(schedule.target).id();
  ReplayPolicy policy(schedule, target);
  kern.set_policy_step_limit(opts_.step_limit);
  kern.set_schedule_policy(&policy);

  Execution out;
  out.schedule = schedule;
  out.target_comp = target;
  out.storage_comp = sys.service_component("storage").id();
  try {
    kern.run();
  } catch (const kernel::SystemCrash& crash) {
    out.failed = true;
    out.crashed = true;
    out.reason = std::string("system crash: ") + crash.what();
  }
  kern.set_schedule_policy(nullptr);

  out.pick_counts = policy.pick_counts();
  out.pick_cands = policy.pick_candidates();
  out.crash_points = policy.crash_points_seen();
  out.crash_obs = policy.crash_boundaries();
  out.clipped = out.crash_points > opts_.crash_window ||
                out.pick_counts.size() > opts_.pick_window;

  if (!out.failed && !state.correct) {
    out.failed = true;
    out.reason = std::string("workload: ") + state.fail_reason;
  }
  if (!out.failed && !state.done()) {
    out.failed = true;
    out.reason = "workload did not complete (lost wakeup?)";
  }
  if (opts_.capture_trace) out.trace = components::capture_trace(sys).normalized;
  // A crash stops the log mid-recovery; the invariants only promise anything
  // about runs the machine survived.
  if (out.crashed) return out;
  out.violations = components::check_recovery_invariants(sys);
  if (!out.failed && !out.violations.empty()) {
    out.failed = true;
    out.reason = "invariant: " + out.violations.front();
  }
  // Failing executions are leaves (never extended), so the commutation
  // metadata, which indexes the events, is only derived for runs the
  // enumerator will grow from.
  if (!out.failed) derive_footprints(out, kern.tracer().snapshot(), opts_);
  return out;
}

// ---------------------------------------------------------------------------
// Bounded BFS with sleep-set pruning
// ---------------------------------------------------------------------------

void Explorer::extend(const Execution& ex, Report& report,
                      std::set<std::string>& visited,
                      std::deque<Schedule>& queue) const {
  const Schedule& sched = ex.schedule;
  // Monotone extension: children deviate only at points strictly after the
  // parent's last decision in each dimension, so every decision *set* is
  // enumerated once per dimension interleaving (visited dedups the rest)
  // and BFS order doubles as iterative context bounding.
  if (!sched.target.empty() &&
      sched.crashes.size() < static_cast<std::size_t>(opts_.max_crashes)) {
    const std::uint64_t from = sched.crashes.empty() ? 0 : sched.crashes.back() + 1;
    const std::uint64_t to = std::min<std::uint64_t>(ex.crash_points, opts_.crash_window);
    for (std::uint64_t point = from; point < to; ++point) {
      // Sleep set, crash dimension: a crash point whose intervening segment
      // commutes with the fault is schedule-equivalent to its predecessor;
      // only the first point of each equivalence class is replayed.
      // Equivalence chains (p ~ p-1 ~ ... ~ rep), so testing the immediate
      // predecessor suffices even when it was itself pruned.
      if (opts_.dpor && point > from && crash_points_equivalent(ex, point)) {
        ++report.pruned_crashes;
        continue;
      }
      if (visited.size() >= opts_.max_executions) {
        report.truncated = true;  // Frontier capped: coverage is partial.
        break;
      }
      Schedule child = sched;
      child.crashes.push_back(point);
      if (visited.insert(child.str()).second) queue.push_back(child);
    }
  }
  if (sched.picks.size() < static_cast<std::size_t>(opts_.max_preemptions)) {
    const std::uint64_t from = sched.picks.empty() ? 0 : sched.picks.rbegin()->first + 1;
    const std::uint64_t to =
        std::min<std::uint64_t>(ex.pick_counts.size(), opts_.pick_window);
    for (std::uint64_t point = from; point < to; ++point) {
      for (std::size_t idx = 1; idx < ex.pick_counts[point]; ++idx) {
        // Sleep set, pick dimension: a deviation that commutes with the
        // parent's continuation reaches only states the parent's own subtree
        // covers with budget to spare.
        if (opts_.dpor && pick_deviation_commutes(ex, point, idx)) {
          ++report.pruned_picks;
          continue;
        }
        if (visited.size() >= opts_.max_executions) {
          report.truncated = true;  // Frontier capped: coverage is partial.
          break;
        }
        Schedule child = sched;
        child.picks[point] = idx;
        if (visited.insert(child.str()).second) queue.push_back(child);
      }
    }
  }
}

Report Explorer::explore() const {
  Report report;
  std::set<std::string> visited;
  std::deque<Schedule> queue;

  Schedule root;
  root.target = opts_.target;
  visited.insert(root.str());
  queue.push_back(root);

  const int workers = std::max(1, opts_.workers);
  bool stop = false;
  while (!queue.empty() && !stop) {
    if (report.executions >= opts_.max_executions) {
      report.truncated = true;
      break;
    }
    // One BFS wave: a batch off the queue front, replayed by the worker
    // pool (each execution in its own fresh System), then merged serially in
    // canonical order — so executions, explored, failures, truncation and
    // clipping are byte-identical to the single-worker sweep for any worker
    // count. The batch never exceeds the remaining execution budget (the
    // serial enumerator checks the cap before every replay).
    const std::size_t budget = opts_.max_executions - report.executions;
    const std::size_t chunk =
        workers == 1 ? 1 : static_cast<std::size_t>(workers) * 16;
    const std::size_t batch_n = std::min({queue.size(), budget, chunk});
    std::vector<Execution> results(batch_n);
    parallel_for(batch_n, workers, [&](int, std::size_t i) { results[i] = run_one(queue[i]); });
    queue.erase(queue.begin(), queue.begin() + static_cast<std::ptrdiff_t>(batch_n));

    for (Execution& ex : results) {
      ++report.executions;
      report.explored.push_back(ex.schedule.str());
      // Worker-local window flags OR-merge into the report: a clip observed
      // by any worker (including on a failing run) must survive the merge.
      report.window_clipped = report.window_clipped || ex.clipped;
      if (ex.failed) {
        ++report.failures;
        report.failing.push_back(std::move(ex));
        if (opts_.stop_at_first_failure) {
          stop = true;  // Executions already in flight are discarded unseen.
          break;
        }
        continue;  // Failing executions are leaves: don't extend a broken run.
      }
      extend(ex, report, visited, queue);
    }
  }
  return report;
}

Schedule Explorer::shrink(const Schedule& failing) const {
  Schedule best = failing;
  SG_ASSERT_MSG(run_one(best).failed, "shrink: schedule does not fail");
  bool improved = true;
  while (improved) {
    improved = false;
    for (std::size_t i = 0; i < best.crashes.size(); ++i) {
      Schedule cand = best;
      cand.crashes.erase(cand.crashes.begin() + static_cast<std::ptrdiff_t>(i));
      if (run_one(cand).failed) {
        best = std::move(cand);
        improved = true;
        break;
      }
    }
    if (improved) continue;
    for (const auto& [point, idx] : best.picks) {
      (void)idx;
      Schedule cand = best;
      cand.picks.erase(point);
      if (run_one(cand).failed) {
        best = std::move(cand);
        improved = true;
        break;
      }
    }
  }
  return best;
}

}  // namespace sg::explore
