#pragma once

#include <map>

#include "c3/invoker.hpp"
#include "kernel/component.hpp"
#include "kernel/kernel.hpp"
#include "kernel/regops.hpp"
#include "util/rng.hpp"

namespace sg::components {

/// The timer manager: periodic blocking for time-driven threads ("a thread
/// wakes up, then blocks for a certain amount of time periodically", §V-B).
/// Deadlines are computed in kernel virtual time; blocking goes through the
/// scheduler component's timed-block entry point.
///
/// Interface (service "tmr"):
///   tmr_setup(compid, period_us [,hint]) -> tmid   [creation]
///   tmr_block(compid, tmid) -> 0 timeout / 1 woken [blocking]
///   tmr_cancel(compid, tmid)                       [wakeup]
///   tmr_free(compid, tmid)                         [terminal]
class TimerMgrComponent final : public kernel::Component {
 public:
  TimerMgrComponent(kernel::Kernel& kernel, kernel::CompId sched, kernel::FaultProfile profile,
                    std::uint64_t seed);

  void reset_state() override;

 private:
  struct Timer {
    kernel::Value period_us = 0;
    kernel::VirtualTime next_deadline = 0;
    kernel::ThreadId waiter = kernel::kNoThread;
  };

  kernel::Value setup(kernel::CallCtx& ctx, const kernel::Args& args);
  kernel::Value block(kernel::CallCtx& ctx, const kernel::Args& args);
  kernel::Value cancel(kernel::CallCtx& ctx, const kernel::Args& args);
  kernel::Value free_fn(kernel::CallCtx& ctx, const kernel::Args& args);

  std::map<kernel::Value, Timer> timers_;
  kernel::Value next_id_ = 1;
  kernel::CompId sched_;
  kernel::FaultProfile profile_;
  Rng rng_;
};

/// Typed client API.
class TimerClient {
 public:
  explicit TimerClient(c3::Invoker& stub)
      : stub_(stub),
        setup_(stub.resolve("tmr_setup")),
        block_(stub.resolve("tmr_block")),
        cancel_(stub.resolve("tmr_cancel")),
        free_(stub.resolve("tmr_free")) {}

  kernel::Value setup(kernel::CompId self, kernel::Value period_us) {
    return stub_.call_id(setup_, {self, period_us});
  }
  kernel::Value block(kernel::CompId self, kernel::Value tmid) {
    return stub_.call_id(block_, {self, tmid});
  }
  kernel::Value cancel(kernel::CompId self, kernel::Value tmid) {
    return stub_.call_id(cancel_, {self, tmid});
  }
  kernel::Value free(kernel::CompId self, kernel::Value tmid) {
    return stub_.call_id(free_, {self, tmid});
  }

 private:
  c3::Invoker& stub_;
  c3::FnId setup_, block_, cancel_, free_;
};

}  // namespace sg::components
