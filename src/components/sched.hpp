#pragma once

#include <set>
#include <unordered_map>

#include "c3/invoker.hpp"
#include "kernel/component.hpp"
#include "kernel/kernel.hpp"
#include "kernel/regops.hpp"
#include "util/rng.hpp"

namespace sg::components {

/// The scheduler component: the user-level service other components (and
/// applications) block and wake threads through, layered over the kernel's
/// dispatching primitives exactly as in COMPOSITE (§II-B). Its private state
/// — per-thread records and pending wakeups — is wiped by a micro-reboot and
/// rebuilt by *reflecting on kernel data structures* (§II-F) in on_reboot().
///
/// Interface (service "sched", descriptor = thread id):
///   sched_setup(compid, prio [,hint]) -> tid     [creation]
///   sched_blk(compid, tid)                       [blocking]
///   sched_wakeup(compid, tid)                    [wakeup]
///   sched_exit(compid, tid)                      [terminal]
///
/// Raw entry points for *system* components (the component-kernel interface,
/// not part of the recoverable descriptor interface):
///   sched_block_raw(tid), sched_block_timed_raw(tid, deadline),
///   sched_wakeup_raw(tid)
class SchedComponent final : public kernel::Component {
 public:
  SchedComponent(kernel::Kernel& kernel, kernel::FaultProfile profile, std::uint64_t seed);

  void reset_state() override;
  void on_reboot(kernel::CallCtx& ctx) override;

  bool knows_thread(kernel::ThreadId tid) const { return records_.count(tid) != 0; }

 private:
  struct ThdRec {
    kernel::ThreadId tid;
    kernel::Priority prio;
    bool blocked;
  };

  kernel::Value setup(kernel::CallCtx& ctx, const kernel::Args& args);
  kernel::Value blk(kernel::CallCtx& ctx, const kernel::Args& args);
  kernel::Value wakeup_fn(kernel::CallCtx& ctx, const kernel::Args& args);
  kernel::Value exit_fn(kernel::CallCtx& ctx, const kernel::Args& args);

  /// Returns true if the block consumed a genuine wakeup.
  bool do_block(kernel::CallCtx& ctx, kernel::ThreadId tid);
  void do_wakeup(kernel::ThreadId tid);

  std::unordered_map<kernel::ThreadId, ThdRec> records_;
  kernel::FaultProfile profile_;
  Rng rng_;
};

/// Typed client API over any stub implementation (passthrough / C3 / SuperGlue).
/// Fn names are resolved to interned ids once at construction; every call is
/// then an id-indexed dispatch with no string lookups.
class SchedClient {
 public:
  explicit SchedClient(c3::Invoker& stub)
      : stub_(stub),
        setup_(stub.resolve("sched_setup")),
        blk_(stub.resolve("sched_blk")),
        wakeup_(stub.resolve("sched_wakeup")),
        exit_(stub.resolve("sched_exit")) {}

  /// Registers the calling thread with the scheduler; returns its tid.
  kernel::Value setup(kernel::CompId self, kernel::Priority prio) {
    return stub_.call_id(setup_, {self, prio});
  }
  kernel::Value blk(kernel::CompId self, kernel::Value tid) {
    return stub_.call_id(blk_, {self, tid});
  }
  kernel::Value wakeup(kernel::CompId self, kernel::Value tid) {
    return stub_.call_id(wakeup_, {self, tid});
  }
  kernel::Value exit(kernel::CompId self, kernel::Value tid) {
    return stub_.call_id(exit_, {self, tid});
  }

 private:
  c3::Invoker& stub_;
  c3::FnId setup_, blk_, wakeup_, exit_;
};

}  // namespace sg::components
