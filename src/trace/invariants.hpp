#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "c3/ids.hpp"
#include "trace/trace.hpp"

namespace sg::trace {

/// Model knowledge the checker needs but must not link against (the trace
/// library sits below c3/supervisor in the layering). The test harness wires
/// these from the RecoveryCoordinator's compiled specs and the Supervisor's
/// dependency graph; absent hooks disable the corresponding checks.
struct CheckerHooks {
  /// σ-validity of `fn` out of `state` for `comp`'s interface.
  /// Return 1 = valid, 0 = invalid, -1 = unknown component (skip the check).
  std::function<int(kernel::CompId, c3::StateId, c3::FnId)> sigma_valid;
  /// Declared transitive dependents of `comp` (the D0/D1 group-reboot set).
  std::function<std::vector<kernel::CompId>(kernel::CompId)> dependents;
  /// True if `comp` was quarantined at the time of the query; used to trim
  /// the expected group-reboot membership like the supervisor does. The
  /// checker tracks quarantine from the stream itself, so this is optional
  /// and only consulted for components quarantined before the window began.
  std::function<bool(kernel::CompId)> is_quarantined;
};

/// Streaming checker for the recovery invariants over an event log:
///   1. every fault is followed by a reboot (or quarantine) of that component
///      before any new invocation enters it;
///   2. every completed replay walk is a valid σ-path starting at s0 and
///      ending in the walk's declared landing (pre-fault) state;
///   3. a group reboot takes exactly the declared (non-quarantined)
///      dependents of the faulting component — no more, no fewer;
///   4. a quarantined component receives no invocations until readmit();
///   5. storage-rebuild ordering: a storage rebuild begins only after a
///      micro-reboot of that component (never while its fault is still
///      pending), rebuilds never nest, and every begun rebuild ends.
///   6. recovery-domain containment (cores>1 streams only): concurrently
///      open domains never overlap (closure membership reconstructed from
///      the dependents hook), a whole-machine acquisition happens only with
///      no scoped domain open, every release matches an acquire, and a
///      complete window closes every domain it opened.
///
/// Truncation soundness: when the log overflowed (Tracer::dropped() > 0), the
/// window may start mid-recovery, so orphan walk events and
/// already-pending faults are *not* violations. begin(truncated=true) makes
/// the checker report "window truncated" in notices() and suppress every
/// check that needs the missing prefix, instead of raising false positives.
class InvariantChecker {
 public:
  explicit InvariantChecker(CheckerHooks hooks = {});

  void begin(bool truncated);
  void feed(const Event& event);
  void finish();

  /// Convenience: begin + feed every event `tracer` keeps, walked in place
  /// (Tracer::for_each) + finish. An overflowed log is a truncated window.
  std::vector<std::string> check(const Tracer& tracer);

  const std::vector<std::string>& violations() const { return violations_; }
  /// Non-violation diagnostics ("window truncated", ...).
  const std::vector<std::string>& notices() const { return notices_; }
  bool window_truncated() const { return truncated_; }

  /// Trace-proven high-water mark of simultaneously open recovery domains
  /// (kDomainAcquire/kDomainRelease bracket counting). 0 on a cores=1 stream
  /// (those events are never emitted there); >= 2 proves overlapping
  /// micro-reboots actually happened in the window.
  int max_concurrent_domains() const { return max_concurrent_domains_; }

 private:
  struct CompState {
    bool fault_pending = false;
    std::uint64_t fault_seq = 0;
    bool quarantined = false;
    bool rebooted = false;      ///< A micro-reboot was seen in the window.
    bool rebuild_open = false;  ///< Between storage-rebuild begin and end.
  };
  struct OpenWalk {
    kernel::CompId comp = kernel::kNoComp;
    std::int64_t vid = 0;
    c3::StateId expected = c3::kNoState;
    c3::StateId land = c3::kNoState;
    c3::StateId chain = c3::kStateInitial;  ///< State after the last step.
  };
  struct OpenGroup {
    std::set<kernel::CompId> expected;  ///< Declared members not yet rebooted.
  };
  struct OpenDomain {
    kernel::CompId root = kernel::kNoComp;
    std::set<kernel::CompId> comps;  ///< Reconstructed closure; empty when
                                     ///< the dependents hook is absent.
    bool machine = false;            ///< Whole-machine acquisition (a == 0).
  };

  void violation(const Event& event, const std::string& what);
  OpenWalk* find_walk(kernel::ThreadId thd, kernel::CompId comp, std::int64_t vid);

  CheckerHooks hooks_;
  bool truncated_ = false;
  std::map<kernel::CompId, CompState> comps_;
  std::map<kernel::ThreadId, std::vector<OpenWalk>> walks_;
  std::map<kernel::CompId, OpenGroup> groups_;  ///< Keyed by group root.
  std::map<std::int64_t, OpenDomain> domains_;  ///< Keyed by owner id (ev.c).
  int max_concurrent_domains_ = 0;
  std::vector<std::string> violations_;
  std::vector<std::string> notices_;
};

}  // namespace sg::trace
