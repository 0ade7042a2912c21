// Deeper kernel-semantics tests: wakeup banking/latching across faults,
// preemption rules, virtual-time behaviour, and the booter protocol.

#include <gtest/gtest.h>

#include "kernel/booter.hpp"
#include "kernel/fault.hpp"
#include "kernel/kernel.hpp"

namespace sg {
namespace {

using kernel::Args;
using kernel::CallCtx;
using kernel::Value;

// --- wakeup latching -----------------------------------------------------------

TEST(WakeupSemanticsTest, WakeupBeforeBlockIsLatched) {
  kernel::Kernel kern;
  bool woke_instantly = false;
  const auto sleeper = kern.thd_create("sleeper", 10, [&] {
    const auto before = kern.now();
    const bool consumed = kern.block_current();  // Latch pending: must not sleep.
    woke_instantly = consumed && (kern.now() - before < 3);
  });
  // Higher priority: runs to completion before the sleeper starts.
  kern.thd_create("waker", 5, [&] {
    kern.wakeup(sleeper);  // Sleeper is Ready, not blocked: latch it.
  });
  kern.run();
  EXPECT_TRUE(woke_instantly);
}

TEST(WakeupSemanticsTest, RecoveryWakeIsNeverLatched) {
  kernel::Kernel kern;
  bool blocked_for_real = false;
  const auto sleeper = kern.thd_create("sleeper", 10, [&] {
    // The recovery wake happened while we were Ready; it must NOT have been
    // latched, so this timed block really sleeps until its deadline.
    const auto before = kern.now();
    kern.block_current_until(kern.now() + 500);
    blocked_for_real = (kern.now() - before) >= 500;
  });
  kern.thd_create("recovery-waker", 5, [&] {
    kern.wakeup(sleeper, /*recovery_wake=*/true);  // Spurious by design.
  });
  kern.run();
  EXPECT_TRUE(blocked_for_real);
}

TEST(WakeupSemanticsTest, RecoveryWakeOfTimedBlockedThreadReblocks) {
  // A T0 recovery wake delivered to a thread sleeping in block_current_until
  // is spurious by design (recovery sweeps every thread whose stack touches
  // the rebooted component). Like block_current, the timed variant must mask
  // it and re-block until the original deadline instead of returning early.
  kernel::Kernel kern;
  kernel::VirtualTime slept = 0;
  bool consumed = false;
  const auto sleeper = kern.thd_create("sleeper", 10, [&] {
    const auto before = kern.now();
    consumed = kern.block_current_until(before + 500);
    slept = kern.now() - before;
  });
  // Lower priority: runs only once the sleeper is actually timed-blocked.
  kern.thd_create("t0-sweep", 20, [&] {
    kern.wakeup(sleeper, /*recovery_wake=*/true);
  });
  kern.run();
  EXPECT_GE(slept, 500u) << "recovery wake ended the timed block early";
  EXPECT_FALSE(consumed) << "recovery wake must not count as a genuine wakeup";
}

TEST(PreemptionTest, RaisingReadyThreadPriorityPreempts) {
  // set_thread_priority must reschedule when it lifts a ready thread above
  // the running one — recovery's priority inheritance relies on the boosted
  // sweep running immediately, not at the next incidental scheduling point.
  kernel::Kernel kern;
  std::vector<std::string> order;
  kernel::ThreadId raised = kernel::kNoThread;
  kern.thd_create("raiser", 10, [&] {
    order.push_back("raiser-before");
    kern.set_thread_priority(raised, 5);  // Beats us: must switch right here.
    order.push_back("raiser-after");
  });
  raised = kern.thd_create("raised", 20, [&] { order.push_back("raised"); });
  kern.run();
  EXPECT_EQ(order, (std::vector<std::string>{"raiser-before", "raised", "raiser-after"}));
}

TEST(WakeupSemanticsTest, GenuineWakeupSurvivesUnwoundBlock) {
  // The lost-wakeup scenario behind the Sched campaign fix: a thread's block
  // consumes a genuine wakeup, then the server it blocked in is rebooted
  // before the blocking call completes server-side work; the unwound call's
  // redo must find the wakeup banked, not sleep forever.
  kernel::Kernel kern;
  kernel::Booter booter(kern);

  class Blocker final : public kernel::Component {
   public:
    explicit Blocker(kernel::Kernel& kernel) : Component(kernel, "blocker") {
      export_fn("nap", [this](CallCtx&, const Args&) -> Value {
        const bool consumed = kernel_.block_current();
        if (explode_after_wake_) {
          explode_after_wake_ = false;
          if (consumed) kernel_.bank_wakeup(kernel_.current_thread());
          throw kernel::ComponentFault(id(), kernel::FaultKind::kInjected, "post-block fault");
        }
        return kernel::kOk;
      });
      export_fn("arm", [this](CallCtx&, const Args&) -> Value {
        explode_after_wake_ = true;
        return kernel::kOk;
      });
    }
    void reset_state() override { explode_after_wake_ = false; }

   private:
    bool explode_after_wake_ = false;
  } blocker(kern);
  booter.capture_image(blocker);

  int redos = 0;
  bool completed = false;
  const auto napper = kern.thd_create("napper", 10, [&] {
    kern.invoke(kernel::kNoComp, blocker.id(), "arm", {});
    for (int redo = 0; redo < 4; ++redo) {
      const auto res = kern.invoke(kernel::kNoComp, blocker.id(), "nap", {});
      if (!res.fault) {
        completed = true;
        return;
      }
      ++redos;  // Redo: the banked wakeup must let this complete instantly.
    }
  });
  kern.thd_create("waker", 11, [&] {
    kern.wakeup(napper);  // The one-and-only genuine wakeup.
  });
  kern.run();
  EXPECT_TRUE(completed);
  EXPECT_EQ(redos, 1);
}

TEST(WakeupSemanticsTest, ParksBankAWakeupForTheNextBlock) {
  // park_tick and the admission gate's backoff hold wait without consuming a
  // wakeup: one delivered while the thread is parked belongs to the next
  // blocking call. Two wakeups for two blocks, each sent during a park; a
  // park that swallowed one would leave the last block asleep (deadlock).
  kernel::Kernel kern;
  class Noop final : public kernel::Component {
   public:
    explicit Noop(kernel::Kernel& kernel) : Component(kernel, "noop") {
      export_fn("op", [](CallCtx&, const Args&) -> Value { return 0; });
    }
    void reset_state() override {}
  } noop(kern);

  bool tick_wake_kept = false;
  bool hold_wake_kept = false;
  const auto parker = kern.thd_create("parker", 10, [&] {
    kern.park_tick(100);  // The first wakeup lands here...
    tick_wake_kept = kern.block_current();  // ...and is consumed here.
    kern.hold_component(noop.id(), kern.now() + 100);
    kern.invoke(kernel::kNoComp, noop.id(), "op", {});  // Parks at the gate: second wakeup.
    hold_wake_kept = kern.block_current();
  });
  // Lower priority: each wakeup runs only once the parker is parked, and
  // preempts back to it.
  kern.thd_create("waker", 20, [&] {
    kern.wakeup(parker);
    kern.wakeup(parker);
  });
  EXPECT_NO_THROW(kern.run());
  EXPECT_TRUE(tick_wake_kept);
  EXPECT_TRUE(hold_wake_kept);
}

// --- preemption -------------------------------------------------------------------

TEST(PreemptionTest, HigherPriorityWakeupPreemptsImmediately) {
  kernel::Kernel kern;
  std::vector<int> order;
  const auto urgent = kern.thd_create("urgent", 1, [&] {
    order.push_back(1);
    kern.block_current();
    order.push_back(2);  // Must run before the waker's next line.
  });
  kern.thd_create("background", 10, [&] {
    order.push_back(10);
    kern.wakeup(urgent);
    order.push_back(11);
  });
  kern.run();
  EXPECT_EQ(order, (std::vector<int>{1, 10, 2, 11}));
}

TEST(PreemptionTest, TimerExpiryPreemptsAtInvocationBoundary) {
  kernel::Kernel kern;
  class Noop final : public kernel::Component {
   public:
    explicit Noop(kernel::Kernel& kernel) : Component(kernel, "noop") {
      export_fn("op", [](CallCtx&, const Args&) -> Value { return 0; });
    }
    void reset_state() override {}
  } noop(kern);

  std::vector<std::string> order;
  kern.thd_create("high-periodic", 1, [&] {
    kern.block_current_until(kern.now() + 50);
    order.push_back("high");
  });
  kern.thd_create("busy", 10, [&] {
    for (int i = 0; i < 200; ++i) {
      kern.invoke(kernel::kNoComp, noop.id(), "op", {});  // Ticks virtual time.
    }
    order.push_back("busy-done");
  });
  kern.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "high");  // The busy loop could not starve the timer.
}

// --- virtual time ------------------------------------------------------------------

TEST(VirtualTimeTest, IdleJumpsToNextDeadline) {
  kernel::Kernel kern;
  kernel::VirtualTime woke_at = 0;
  kern.thd_create("only", 10, [&] {
    kern.block_current_until(kern.now() + 100000);
    woke_at = kern.now();
  });
  kern.run();  // No busy work: the clock must jump, not spin.
  EXPECT_GE(woke_at, 100000u);
}

TEST(VirtualTimeTest, TickPerInvocationIsConfigurable) {
  kernel::Kernel kern;
  kern.set_tick_per_invocation(10);
  class Noop final : public kernel::Component {
   public:
    explicit Noop(kernel::Kernel& kernel) : Component(kernel, "noop") {
      export_fn("op", [](CallCtx&, const Args&) -> Value { return 0; });
    }
    void reset_state() override {}
  } noop(kern);
  kern.thd_create("t", 10, [&] {
    const auto before = kern.now();
    for (int i = 0; i < 5; ++i) kern.invoke(kernel::kNoComp, noop.id(), "op", {});
    EXPECT_EQ(kern.now() - before, 50u);
  });
  kern.run();
}

// --- booter -------------------------------------------------------------------------

TEST(BooterTest, CopiesImageBytesPerReboot) {
  kernel::Kernel kern;
  kernel::Booter booter(kern);
  class Big final : public kernel::Component {
   public:
    explicit Big(kernel::Kernel& kernel) : Component(kernel, "big", /*image_bytes=*/128 * 1024) {}
    void reset_state() override {}
  } big(kern);
  booter.capture_image(big);
  kern.inject_crash(big.id());
  kern.inject_crash(big.id());
  EXPECT_EQ(booter.reboots(), 2);
  EXPECT_EQ(booter.bytes_copied(), 2u * 128 * 1024);
}

TEST(BooterTest, RebootCallsResetAndOnReboot) {
  kernel::Kernel kern;
  kernel::Booter booter(kern);
  class Probe final : public kernel::Component {
   public:
    explicit Probe(kernel::Kernel& kernel) : Component(kernel, "probe") {}
    void reset_state() override { ++resets; }
    void on_reboot(CallCtx&) override {
      EXPECT_GT(resets, 0);  // Ordering: wipe first, then re-init (steps 3-4).
      ++reinits;
    }
    int resets = 0;
    int reinits = 0;
  } probe(kern);
  kern.inject_crash(probe.id());
  EXPECT_EQ(probe.resets, 1);
  EXPECT_EQ(probe.reinits, 1);
}

TEST(BooterTest, FirstRebootCapturesImageLazily) {
  kernel::Kernel kern;
  kernel::Booter booter(kern);
  class Lazy final : public kernel::Component {
   public:
    explicit Lazy(kernel::Kernel& kernel) : Component(kernel, "lazy", 4096) {}
    void reset_state() override {}
  } lazy(kern);
  // No capture_image call: the booter must self-serve on first fault.
  kern.inject_crash(lazy.id());
  EXPECT_EQ(booter.reboots(), 1);
  EXPECT_EQ(booter.bytes_copied(), 4096u);
}

}  // namespace
}  // namespace sg
