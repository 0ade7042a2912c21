#include "trace/invariants.hpp"

#include <sstream>

namespace sg::trace {

namespace {
/// Exception unwinds (ServerRebooted through a client's outer frames,
/// shutdown) can abandon a walk without an end/abort event; leaked entries
/// are discarded when a later walk on the same thread completes. The cap
/// bounds pathological leakage.
constexpr std::size_t kMaxOpenWalksPerThread = 64;
}  // namespace

InvariantChecker::InvariantChecker(CheckerHooks hooks) : hooks_(std::move(hooks)) {}

void InvariantChecker::begin(bool truncated) {
  truncated_ = truncated;
  comps_.clear();
  walks_.clear();
  groups_.clear();
  domains_.clear();
  max_concurrent_domains_ = 0;
  violations_.clear();
  notices_.clear();
  if (truncated_) {
    notices_.push_back(
        "window truncated: log overflow dropped the oldest events; "
        "prefix-dependent checks are suppressed");
  }
}

void InvariantChecker::violation(const Event& ev, const std::string& what) {
  std::ostringstream oss;
  oss << "seq=" << ev.seq << " at=" << ev.at << " comp=" << ev.comp;
  if (ev.thd != kernel::kNoThread) oss << " thd=" << ev.thd;
  oss << ": " << what;
  violations_.push_back(oss.str());
}

InvariantChecker::OpenWalk* InvariantChecker::find_walk(kernel::ThreadId thd,
                                                        kernel::CompId comp,
                                                        std::int64_t vid) {
  auto it = walks_.find(thd);
  if (it == walks_.end()) return nullptr;
  for (auto walk = it->second.rbegin(); walk != it->second.rend(); ++walk) {
    if (walk->comp == comp && walk->vid == vid) return &*walk;
  }
  return nullptr;
}

void InvariantChecker::feed(const Event& ev) {
  switch (ev.kind) {
    case EventKind::kFault: {
      CompState& st = comps_[ev.comp];
      st.fault_pending = true;
      st.fault_seq = ev.seq;
      break;
    }
    case EventKind::kMicroReboot: {
      CompState& st = comps_[ev.comp];
      st.fault_pending = false;
      st.rebooted = true;
      break;
    }
    case EventKind::kQuarantine: {
      CompState& st = comps_[ev.comp];
      st.fault_pending = false;  // Quarantine resolves the fault (no reboot).
      st.quarantined = true;
      break;
    }
    case EventKind::kReadmit:
      comps_[ev.comp].quarantined = false;
      break;
    case EventKind::kInvokeEnter: {
      const CompState& st = comps_[ev.comp];
      if (st.quarantined) {
        violation(ev, "invariant 4: invocation entered a quarantined component "
                      "before readmit()");
      } else if (st.fault_pending) {
        violation(ev, "invariant 1: invocation entered the component between "
                      "fault (seq=" + std::to_string(st.fault_seq) +
                      ") and its micro-reboot");
      }
      break;
    }
    case EventKind::kWalkBegin: {
      auto& stack = walks_[ev.thd];
      if (stack.size() >= kMaxOpenWalksPerThread) {
        notices_.push_back("open-walk stack overflow on thread " + std::to_string(ev.thd) +
                           "; oldest leaked walk discarded");
        stack.erase(stack.begin());
      }
      OpenWalk walk;
      walk.comp = ev.comp;
      walk.vid = ev.c;
      walk.expected = ev.a;
      walk.land = ev.b;
      walk.chain = c3::kStateInitial;
      stack.push_back(walk);
      break;
    }
    case EventKind::kWalkStep: {
      OpenWalk* walk = find_walk(ev.thd, ev.comp, ev.c);
      if (walk == nullptr) {
        if (!truncated_) violation(ev, "invariant 2: walk step without walk-begin");
        break;
      }
      if (ev.a != walk->chain) {
        violation(ev, "invariant 2: walk step replays from state " + std::to_string(ev.a) +
                      " but the walk chain is at state " + std::to_string(walk->chain));
      }
      if (hooks_.sigma_valid &&
          hooks_.sigma_valid(ev.comp, ev.a, static_cast<c3::FnId>(ev.d)) == 0) {
        violation(ev, "invariant 2: walk replayed fn " + std::to_string(ev.d) +
                      " which is sigma-invalid from state " + std::to_string(ev.a));
      }
      walk->chain = ev.b;
      break;
    }
    case EventKind::kWalkEnd: {
      auto it = walks_.find(ev.thd);
      OpenWalk* walk = find_walk(ev.thd, ev.comp, ev.c);
      if (walk == nullptr) {
        if (!truncated_) violation(ev, "invariant 2: walk end without walk-begin");
        break;
      }
      if (ev.a != walk->land) {
        violation(ev, "invariant 2: walk landed in state " + std::to_string(ev.a) +
                      " but the pre-fault walk target was state " +
                      std::to_string(walk->land));
      }
      if (walk->chain != walk->land) {
        violation(ev, "invariant 2: walk chain stopped at state " +
                      std::to_string(walk->chain) + " short of its landing state " +
                      std::to_string(walk->land));
      }
      // Drop this walk and anything stacked above it (abandoned by unwinds).
      auto& stack = it->second;
      while (!stack.empty()) {
        const bool was_target = &stack.back() == walk;
        stack.pop_back();
        if (was_target) break;
      }
      break;
    }
    case EventKind::kWalkAbort: {
      auto it = walks_.find(ev.thd);
      OpenWalk* walk = find_walk(ev.thd, ev.comp, ev.c);
      if (walk == nullptr) break;  // Abort of an unseen walk: nothing to check.
      auto& stack = it->second;
      while (!stack.empty()) {
        const bool was_target = &stack.back() == walk;
        stack.pop_back();
        if (was_target) break;
      }
      break;
    }
    case EventKind::kSupGroupReboot: {
      if (!hooks_.dependents) break;
      OpenGroup& group = groups_[ev.comp];
      if (!group.expected.empty()) {
        std::ostringstream oss;
        oss << "invariant 3: previous group reboot left declared dependents unrebooted:";
        for (const kernel::CompId dep : group.expected) oss << " " << dep;
        violation(ev, oss.str());
      }
      group.expected.clear();
      for (const kernel::CompId dep : hooks_.dependents(ev.comp)) {
        auto dep_state = comps_.find(dep);
        const bool quarantined_in_window =
            dep_state != comps_.end() && dep_state->second.quarantined;
        // The is_quarantined hook reflects *end-of-run* state; it is only a
        // usable approximation when the window lost its prefix (a quarantine
        // event may have been evicted). A complete window is authoritative.
        const bool quarantined_before_window =
            truncated_ && hooks_.is_quarantined && hooks_.is_quarantined(dep);
        if (quarantined_in_window || quarantined_before_window) continue;
        group.expected.insert(dep);
      }
      break;
    }
    case EventKind::kSupGroupMember: {
      if (!hooks_.dependents) break;
      const auto root = static_cast<kernel::CompId>(ev.d);
      auto it = groups_.find(root);
      if (it == groups_.end()) {
        if (!truncated_) {
          violation(ev, "invariant 3: group-member reboot without a group reboot of root " +
                        std::to_string(root));
        }
        break;
      }
      if (it->second.expected.erase(ev.comp) == 0 && !truncated_) {
        violation(ev, "invariant 3: group reboot of root " + std::to_string(root) +
                      " rebooted a component that is not a declared dependent");
      }
      break;
    }
    case EventKind::kStorageRebuildBegin: {
      CompState& st = comps_[ev.comp];
      if (st.fault_pending) {
        violation(ev, "invariant 5: storage rebuild began while the component's fault "
                      "(seq=" + std::to_string(st.fault_seq) + ") had no micro-reboot yet");
      }
      if (!st.rebooted && !truncated_) {
        violation(ev, "invariant 5: storage rebuild began without a preceding micro-reboot "
                      "of the storage component");
      }
      if (st.rebuild_open) {
        violation(ev, "invariant 5: storage rebuild began while a previous rebuild of the "
                      "same component was still open (rebuilds must not nest)");
      }
      st.rebuild_open = true;
      break;
    }
    case EventKind::kDomainAcquire: {
      const std::int64_t owner = ev.c;
      OpenDomain dom;
      dom.root = ev.comp;
      dom.machine = (ev.a == 0);
      if (!dom.machine && ev.comp != kernel::kNoComp && hooks_.dependents) {
        dom.comps.insert(ev.comp);
        for (const kernel::CompId dep : hooks_.dependents(ev.comp)) dom.comps.insert(dep);
      }
      if (domains_.count(owner) != 0) {
        violation(ev, "invariant 6: owner " + std::to_string(owner) +
                      " acquired a second recovery domain without releasing the first");
      }
      for (const auto& [other_owner, other] : domains_) {
        if (other_owner == owner) continue;
        bool overlaps = dom.machine || other.machine;
        if (!overlaps && !dom.comps.empty() && !other.comps.empty()) {
          for (const kernel::CompId comp : dom.comps) {
            if (other.comps.count(comp) != 0) {
              overlaps = true;
              break;
            }
          }
        }
        if (overlaps) {
          violation(ev, "invariant 6: recovery domain rooted at comp " +
                        std::to_string(ev.comp) + " overlaps the open domain of owner " +
                        std::to_string(other_owner) + " (rooted at comp " +
                        std::to_string(other.root) + ")");
        }
      }
      domains_[owner] = std::move(dom);
      if (static_cast<int>(domains_.size()) > max_concurrent_domains_) {
        max_concurrent_domains_ = static_cast<int>(domains_.size());
      }
      break;
    }
    case EventKind::kDomainRelease: {
      auto it = domains_.find(ev.c);
      if (it == domains_.end()) {
        if (!truncated_) {
          violation(ev, "invariant 6: recovery-domain release without a matching acquire");
        }
        break;
      }
      domains_.erase(it);
      break;
    }
    case EventKind::kStorageRebuildEnd: {
      CompState& st = comps_[ev.comp];
      if (!st.rebuild_open) {
        if (!truncated_) {
          violation(ev, "invariant 5: storage rebuild end without a rebuild begin");
        }
        break;
      }
      st.rebuild_open = false;
      break;
    }
    default:
      break;
  }
}

void InvariantChecker::finish() {
  if (truncated_) return;  // The window may end mid-recovery legitimately
                           // only when it also lost its prefix; a complete
                           // log is expected to close its groups.
  for (const auto& [root, group] : groups_) {
    if (group.expected.empty()) continue;
    std::ostringstream oss;
    oss << "invariant 3: group reboot of root " << root
        << " never rebooted declared dependents:";
    for (const kernel::CompId dep : group.expected) oss << " " << dep;
    violations_.push_back(oss.str());
  }
  for (const auto& [comp, st] : comps_) {
    if (!st.rebuild_open) continue;
    violations_.push_back("invariant 5: storage rebuild of comp " + std::to_string(comp) +
                          " began but never ended");
  }
  for (const auto& [owner, dom] : domains_) {
    violations_.push_back("invariant 6: recovery domain of owner " + std::to_string(owner) +
                          " (rooted at comp " + std::to_string(dom.root) +
                          ") was acquired but never released");
  }
}

std::vector<std::string> InvariantChecker::check(const Tracer& tracer) {
  begin(tracer.dropped() != 0);
  tracer.for_each([this](const Event& ev) { feed(ev); });
  finish();
  return violations_;
}

}  // namespace sg::trace
