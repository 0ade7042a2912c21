#pragma once

#include <map>

#include "c3/invoker.hpp"
#include "c3/storage.hpp"
#include "kernel/component.hpp"
#include "kernel/kernel.hpp"
#include "kernel/regops.hpp"
#include "util/rng.hpp"

namespace sg::components {

/// The event-notification component — the interface of Fig 3. Event ids are
/// *global* descriptors (G_dr): the waiter and the triggerer are different
/// components sharing one id namespace (the shaded oval of Fig 2(c)). Events
/// form cross-component groups via parent ids (P_dr = XCParent). Pending
/// trigger counts are resource data redundantly kept in the storage
/// component (G1), so triggers survive a micro-reboot.
///
/// Interface (service "evt"):
///   evt_split(compid, parent_evtid, grp [,hint]) -> evtid   [creation]
///   evt_wait(compid, evtid) -> pending-count                [blocking, consume]
///   evt_trigger(compid, evtid)                              [wakeup]
///   evt_free(compid, evtid)                                 [terminal]
class EventMgrComponent final : public kernel::Component {
 public:
  EventMgrComponent(kernel::Kernel& kernel, kernel::CompId sched, c3::StorageComponent& storage,
                    kernel::FaultProfile profile, std::uint64_t seed);

  void reset_state() override;

  std::size_t event_count() const { return events_.size(); }
  bool event_exists(kernel::Value evtid) const { return events_.count(evtid) != 0; }
  kernel::Value pending_of(kernel::Value evtid) const;

 private:
  struct Event {
    kernel::CompId creator = kernel::kNoComp;
    kernel::Value parent = 0;
    kernel::Value grp = 0;
    kernel::Value pending = 0;
    kernel::ThreadId waiter = kernel::kNoThread;
  };

  kernel::Value split(kernel::CallCtx& ctx, const kernel::Args& args);
  kernel::Value wait(kernel::CallCtx& ctx, const kernel::Args& args);
  kernel::Value trigger(kernel::CallCtx& ctx, const kernel::Args& args);
  kernel::Value free_fn(kernel::CallCtx& ctx, const kernel::Args& args);

  /// Lazy G1 repopulation after a storage micro-reboot (see RamFsComponent::
  /// resync_storage): re-store every live event's pending count.
  void resync_storage();

  std::map<kernel::Value, Event> events_;
  kernel::Value next_id_ = 1;
  int storage_epoch_ = 0;  ///< Storage fault epoch last synced to.
  kernel::CompId sched_;
  c3::StorageComponent& storage_;
  c3::NsId ns_ = c3::kNoNs;  ///< The "evt" storage namespace, interned once.
  kernel::FaultProfile profile_;
  Rng rng_;
};

/// Typed client API.
class EvtClient {
 public:
  explicit EvtClient(c3::Invoker& stub)
      : stub_(stub),
        split_(stub.resolve("evt_split")),
        wait_(stub.resolve("evt_wait")),
        trigger_(stub.resolve("evt_trigger")),
        free_(stub.resolve("evt_free")) {}

  kernel::Value split(kernel::CompId self, kernel::Value parent_evtid = 0,
                      kernel::Value grp = 0) {
    return stub_.call_id(split_, {self, parent_evtid, grp});
  }
  kernel::Value wait(kernel::CompId self, kernel::Value evtid) {
    return stub_.call_id(wait_, {self, evtid});
  }
  kernel::Value trigger(kernel::CompId self, kernel::Value evtid) {
    return stub_.call_id(trigger_, {self, evtid});
  }
  kernel::Value free(kernel::CompId self, kernel::Value evtid) {
    return stub_.call_id(free_, {self, evtid});
  }

 private:
  c3::Invoker& stub_;
  c3::FnId split_, wait_, trigger_, free_;
};

}  // namespace sg::components
