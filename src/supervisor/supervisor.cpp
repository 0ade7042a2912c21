#include "supervisor/supervisor.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace sg::supervisor {

using kernel::CompId;
using kernel::VirtualTime;

const char* to_string(Level level) {
  switch (level) {
    case Level::kMicroReboot: return "micro-reboot";
    case Level::kGroupReboot: return "group-reboot";
    case Level::kQuarantined: return "quarantined";
  }
  return "?";
}

Supervisor::Supervisor(kernel::Kernel& kernel, Policy policy)
    : kernel_(kernel), policy_(policy) {
  kernel_.set_fault_supervisor([this](CompId comp) { on_fault(comp); });
}

Supervisor::~Supervisor() { kernel_.set_fault_supervisor(nullptr); }

void Supervisor::add_dependency(CompId dependent, CompId on) {
  // Edges are wired at System-build time only. Frozen-while-running is what
  // makes dependents_of a lock-free snapshot: group-reboot membership walks
  // rdeps_ from whichever core vectored the fault without any lock.
  SG_ASSERT_MSG(!kernel_.is_running(),
                "add_dependency while the kernel is running: rdeps_ must stay "
                "immutable so group-reboot membership is a lock-free snapshot");
  rdeps_[on].push_back(dependent);
}

std::vector<CompId> Supervisor::dependents_of(CompId comp) const {
  // Safe from any core without the scheduler lock: rdeps_ is frozen while
  // the kernel runs (asserted in add_dependency), so this BFS reads an
  // immutable snapshot. Membership decisions made from it (group reboots)
  // additionally run under the fault's recovery domain — asserted at the use
  // site. This closure is also exactly what the kernel's domain resolver
  // claims when a fault in `comp` is vectored.
  std::vector<CompId> order;
  std::unordered_set<CompId> seen{comp};
  std::deque<CompId> frontier{comp};
  while (!frontier.empty()) {
    const CompId cur = frontier.front();
    frontier.pop_front();
    auto it = rdeps_.find(cur);
    if (it == rdeps_.end()) continue;
    // Canonical CompId order per BFS level: group-reboot sweeps and schedule
    // replay (src/explore) need identical dependent ordering across runs,
    // independent of dependency-registration order.
    std::vector<CompId> level = it->second;
    std::sort(level.begin(), level.end());
    for (const CompId dep : level) {
      if (!seen.insert(dep).second) continue;
      order.push_back(dep);
      frontier.push_back(dep);
    }
  }
  return order;
}

void Supervisor::prune_window(Track& track, VirtualTime now) {
  const VirtualTime horizon = now >= policy_.loop_window ? now - policy_.loop_window : 0;
  while (!track.history.empty() && track.history.front() < horizon) {
    track.history.pop_front();
  }
}

void Supervisor::note_locked(CompId comp, Level level, const char* what, VirtualTime at,
                             VirtualTime hold_until) {
  events_.push_back(Event{at, comp, level, what, hold_until});
}

VirtualTime Supervisor::backoff_for(int trip) const {
  SG_ASSERT(trip >= 1);
  VirtualTime backoff = policy_.backoff_initial;
  for (int i = 1; i < trip; ++i) {
    if (backoff >= policy_.backoff_max / 2) return policy_.backoff_max;
    backoff *= 2;
  }
  return std::min(backoff, policy_.backoff_max);
}

VirtualTime Supervisor::jittered_backoff(CompId comp, int trip) const {
  const VirtualTime base = backoff_for(trip);
  if (policy_.backoff_jitter_pct <= 0) return base;
  // splitmix64 over (seed, comp, trip): a pure function of the policy seed,
  // so reruns with the same seed reproduce every hold exactly while replicas
  // seeded differently spread their holds across [base, base * (1 + pct)).
  const std::uint64_t x =
      splitmix64(policy_.jitter_seed ^ (static_cast<std::uint64_t>(comp) * kSplitMixGamma) ^
                 (static_cast<std::uint64_t>(trip) * 0xbf58476d1ce4e5b9ULL));
  const VirtualTime span = base * static_cast<VirtualTime>(policy_.backoff_jitter_pct) / 100;
  return base + (span > 0 ? x % span : 0);
}

void Supervisor::reboot_at_level(CompId comp, Track& track) {
  switch (track.level) {
    case Level::kMicroReboot:
      {
        std::lock_guard<std::mutex> lock(mtx_);
        ++stats_.micro_reboots;
        note_locked(comp, track.level, "micro-reboot", kernel_.now());
      }
      kernel_.perform_micro_reboot(comp);
      return;
    case Level::kGroupReboot: {
      // Membership + the member reboots must be atomic with respect to other
      // recoveries: the caller's domain (held since on_fault) covers the
      // group, and escalating to the machine guarantees no concurrent
      // recovery mutates quarantine state mid-sweep at cores>1.
      SG_ASSERT_MSG(kernel_.recovery_token_held_by_caller(),
                    "group reboot outside a recovery domain");
      kernel_.escalate_recovery_to_machine(kernel::Kernel::kEscalateGroupReboot);
      {
        std::lock_guard<std::mutex> lock(mtx_);
        ++stats_.group_reboots;
        note_locked(comp, track.level, "group-reboot", kernel_.now());
      }
      const std::vector<CompId> group = dependents_of(comp);
      kernel_.trace(trace::EventKind::kSupGroupReboot, comp,
                    static_cast<std::int32_t>(group.size()));
      kernel_.perform_micro_reboot(comp);
      for (const CompId dep : group) {
        if (kernel_.is_quarantined(dep)) continue;
        SG_DEBUG("supervisor", "group reboot of " << comp << " takes dependent " << dep);
        {
          std::lock_guard<std::mutex> lock(mtx_);
          ++stats_.group_members_rebooted;
        }
        kernel_.trace(trace::EventKind::kSupGroupMember, dep, 0, 0, 0,
                      static_cast<std::int64_t>(comp));
        kernel_.perform_micro_reboot(dep);
      }
      return;
    }
    case Level::kQuarantined:
      // Quarantine unwinds blocked threads machine-wide; take the machine so
      // no disjoint recovery is mid-walk through the threads being unwound.
      kernel_.escalate_recovery_to_machine(kernel::Kernel::kEscalateQuarantine);
      {
        std::lock_guard<std::mutex> lock(mtx_);
        ++stats_.quarantines;
        note_locked(comp, track.level, "quarantine", kernel_.now());
      }
      SG_DEBUG("supervisor", "quarantining comp " << comp);
      kernel_.quarantine(comp);
      return;
  }
}

void Supervisor::on_fault(CompId comp) {
  // The kernel vectors faults under a recovery domain covering this
  // component's closure (cores>1). Same-component recoveries are therefore
  // serialized, but disjoint domains run on_fault concurrently — mtx_
  // guards the shared maps with short holds, never across a kernel call
  // that can block (reboot, quarantine, hold).
  SG_ASSERT_MSG(kernel_.recovery_token_held_by_caller(),
                "on_fault outside a recovery domain");
  const std::int64_t owner = kernel_.recovery_owner_key();
  const VirtualTime now = kernel_.now();
  Track* track = nullptr;
  bool nested = false;
  Level level_at_fault = Level::kMicroReboot;
  {
    std::lock_guard<std::mutex> lock(mtx_);
    ++stats_.faults;
    track = &tracks_[comp];
    track->history.push_back(now);
    prune_window(*track, now);
    nested = depth_[owner] > 0;
    level_at_fault = track->level;
    if (nested) {
      ++stats_.faults_during_recovery;
      note_locked(comp, track->level, "nested-fault", now);
    }
  }

  if (nested) {
    // Fault during recovery: the replay (or a group member's reboot) crashed
    // the component again while the outer recovery is still unwinding.
    // Charge the history (so it counts toward the next crash-loop decision)
    // and clear the fault with a plain micro-reboot immediately -- the
    // client stub's bounded redo depends on the component coming back.
    // Escalation is deferred to the next top-level fault: escalating here
    // could quarantine a component the outer recovery is mid-replay against.
    kernel_.trace(trace::EventKind::kSupNestedFault, comp,
                  static_cast<std::int32_t>(level_at_fault));
    SG_DEBUG("supervisor", "nested fault in comp " << comp << " (owner " << owner << ")");
    kernel_.perform_micro_reboot(comp);
    return;
  }

  struct DepthGuard {
    Supervisor& sup;
    std::int64_t owner;
    DepthGuard(Supervisor& s, std::int64_t o) : sup(s), owner(o) {
      std::lock_guard<std::mutex> lock(sup.mtx_);
      ++sup.depth_[owner];
    }
    ~DepthGuard() {
      std::lock_guard<std::mutex> lock(sup.mtx_);
      --sup.depth_[owner];
    }
  } guard(*this, owner);

  bool tripped = false;
  int total_trips_now = 0;
  {
    std::lock_guard<std::mutex> lock(mtx_);
    note_locked(comp, track->level, "fault", now);
    kernel_.trace(trace::EventKind::kSupFault, comp, static_cast<std::int32_t>(track->level));
    tripped = policy_.loop_threshold > 0 &&
              static_cast<int>(track->history.size()) >= policy_.loop_threshold;
    if (tripped) {
      ++stats_.crash_loop_trips;
      ++track->total_trips;
      ++track->trips_at_level;
      total_trips_now = track->total_trips;
      track->history.clear();
      note_locked(comp, track->level, "trip", now);
      kernel_.trace(trace::EventKind::kSupTrip, comp, static_cast<std::int32_t>(track->level),
                    track->total_trips);
      SG_DEBUG("supervisor", "crash loop tripped for comp " << comp << " (trip "
                              << track->total_trips << ", level " << to_string(track->level)
                              << ")");
      if (track->trips_at_level >= policy_.trips_per_level &&
          track->level != Level::kQuarantined) {
        track->level = static_cast<Level>(static_cast<int>(track->level) + 1);
        track->trips_at_level = 0;
        kernel_.trace(trace::EventKind::kSupEscalate, comp,
                      static_cast<std::int32_t>(track->level));
      }
    }
  }

  // track stays valid across the unlock (map references are stable) and
  // track->level cannot change concurrently: only this domain recovers this
  // component while its closure is claimed.
  reboot_at_level(comp, *track);

  // Exponential re-admission backoff after every trip (quarantine makes a
  // hold moot: the gate fails fast instead of parking clients).
  if (tripped && track->level != Level::kQuarantined) {
    const VirtualTime backoff = jittered_backoff(comp, total_trips_now);
    SG_DEBUG("supervisor", "holding comp " << comp << " for " << backoff << "us");
    const VirtualTime until = kernel_.now() + backoff;
    {
      std::lock_guard<std::mutex> lock(mtx_);
      ++stats_.backoff_holds;
      note_locked(comp, track->level, "hold", kernel_.now(), until);
    }
    kernel_.hold_component(comp, until);
  }
}

void Supervisor::readmit(CompId comp) {
  // Manual readmission races concurrent fault vectoring at cores>1: take a
  // recovery domain over the component's closure for the whole
  // reset-and-reboot so a same-component on_fault never interleaves —
  // while readmission of one domain never holds up recovery (or
  // readmission) of a disjoint one.
  kernel::Kernel::DomainLock recovery(kernel_, comp);
  const std::int64_t owner = kernel_.recovery_owner_key();
  {
    std::lock_guard<std::mutex> lock(mtx_);
    SG_ASSERT(depth_[owner] == 0);
    ++stats_.readmits;
    tracks_[comp] = Track{};
    note_locked(comp, Level::kMicroReboot, "readmit", kernel_.now());
  }
  kernel_.trace(trace::EventKind::kSupReadmit, comp);
  kernel_.readmit(comp);
  // Fresh start from the pristine image: the epoch bump also re-marks every
  // cached descriptor faulty, so clients rebuild state on their next call.
  struct DepthGuard {
    Supervisor& sup;
    std::int64_t owner;
    DepthGuard(Supervisor& s, std::int64_t o) : sup(s), owner(o) {
      std::lock_guard<std::mutex> lock(sup.mtx_);
      ++sup.depth_[owner];
    }
    ~DepthGuard() {
      std::lock_guard<std::mutex> lock(sup.mtx_);
      --sup.depth_[owner];
    }
  } guard(*this, owner);
  kernel_.perform_micro_reboot(comp);
}

Level Supervisor::level_of(CompId comp) const {
  std::lock_guard<std::mutex> lock(mtx_);
  auto it = tracks_.find(comp);
  return it == tracks_.end() ? Level::kMicroReboot : it->second.level;
}

int Supervisor::trips_of(CompId comp) const {
  std::lock_guard<std::mutex> lock(mtx_);
  auto it = tracks_.find(comp);
  return it == tracks_.end() ? 0 : it->second.total_trips;
}

int Supervisor::history_of(CompId comp) const {
  std::lock_guard<std::mutex> lock(mtx_);
  auto it = tracks_.find(comp);
  return it == tracks_.end() ? 0 : static_cast<int>(it->second.history.size());
}

}  // namespace sg::supervisor
