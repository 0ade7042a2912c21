#include <atomic>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "components/system.hpp"
#include "util/assert.hpp"
#include "kernel/booter.hpp"
#include "kernel/fault.hpp"
#include "kernel/kernel.hpp"
#include "tests/test_util.hpp"
#include "util/parallel.hpp"

namespace sg {
namespace {

using kernel::Args;
using kernel::CallCtx;
using kernel::Value;

class EchoComponent final : public kernel::Component {
 public:
  explicit EchoComponent(kernel::Kernel& kernel) : Component(kernel, "echo") {
    export_fn("echo", [](CallCtx&, const Args& args) -> Value { return args.at(0); });
    export_fn("boom", [this](CallCtx&, const Args&) -> Value {
      throw kernel::ComponentFault(id(), kernel::FaultKind::kInjected, "test");
    });
    export_fn("state_set", [this](CallCtx&, const Args& args) -> Value {
      state_ = args.at(0);
      return kernel::kOk;
    });
    export_fn("state_get", [this](CallCtx&, const Args&) -> Value { return state_; });
  }
  void reset_state() override { state_ = 0; }

 private:
  Value state_ = 0;
};

TEST(KernelTest, ThreadsRunInPriorityOrder) {
  kernel::Kernel kern;
  std::vector<int> order;
  kern.thd_create("low", 20, [&] { order.push_back(20); });
  kern.thd_create("high", 5, [&] { order.push_back(5); });
  kern.thd_create("mid", 10, [&] { order.push_back(10); });
  kern.run();
  EXPECT_EQ(order, (std::vector<int>{5, 10, 20}));
}

TEST(KernelTest, BlockAndWakeupHandOff) {
  kernel::Kernel kern;
  std::vector<std::string> events;
  const kernel::ThreadId sleeper = kern.thd_create("sleeper", 5, [&] {
    events.push_back("sleep");
    kern.block_current();
    events.push_back("woke");
  });
  kern.thd_create("waker", 10, [&] {
    events.push_back("wake-him");
    kern.wakeup(sleeper);  // Higher-priority sleeper preempts us immediately.
    events.push_back("waker-done");
  });
  kern.run();
  EXPECT_EQ(events, (std::vector<std::string>{"sleep", "wake-him", "woke", "waker-done"}));
}

TEST(KernelTest, TimedBlockAdvancesVirtualTime) {
  kernel::Kernel kern;
  bool woke_by_timeout = false;
  kern.thd_create("timer", 5, [&] {
    const kernel::VirtualTime before = kern.now();
    const bool woken = kern.block_current_until(before + 500);
    woke_by_timeout = !woken;
    EXPECT_GE(kern.now(), before + 500);
  });
  kern.run();
  EXPECT_TRUE(woke_by_timeout);
}

TEST(KernelTest, DeadlockIsDetectedAsCrash) {
  kernel::Kernel kern;
  kern.thd_create("stuck", 5, [&] { kern.block_current(); });
  EXPECT_THROW(kern.run(), kernel::SystemCrash);
}

TEST(KernelTest, InvocationReturnsValue) {
  kernel::Kernel kern;
  EchoComponent echo(kern);
  Value got = 0;
  kern.thd_create("caller", 5, [&] {
    got = kern.invoke(kernel::kNoComp, echo.id(), "echo", {1234}).ret;
  });
  kern.run();
  EXPECT_EQ(got, 1234);
}

TEST(KernelTest, FaultTriggersMicroRebootAndFaultFlag) {
  kernel::Kernel kern;
  kernel::Booter booter(kern);
  EchoComponent echo(kern);
  booter.capture_image(echo);

  bool fault_seen = false;
  Value state_after = -1;
  kern.thd_create("caller", 5, [&] {
    kern.invoke(kernel::kNoComp, echo.id(), "state_set", {77});
    const auto res = kern.invoke(kernel::kNoComp, echo.id(), "boom", {});
    fault_seen = res.fault;
    state_after = kern.invoke(kernel::kNoComp, echo.id(), "state_get", {}).ret;
  });
  kern.run();
  EXPECT_TRUE(fault_seen);
  EXPECT_EQ(state_after, 0);  // Micro-reboot wiped the component state.
  EXPECT_EQ(kern.fault_epoch(echo.id()), 1);
  EXPECT_EQ(booter.reboots(), 1);
}

TEST(BooterTest, PristineImageIsWriteOnceAndSurvivesReboots) {
  kernel::Kernel kern;
  kernel::Booter booter(kern);
  EchoComponent echo(kern);
  booter.capture_image(echo);
  EXPECT_TRUE(booter.has_image(echo.id()));
  EXPECT_EQ(booter.captures(), 1);

  kern.thd_create("caller", 5, [&] {
    kern.invoke(kernel::kNoComp, echo.id(), "state_set", {77});
    // A re-capture attempt after the component has mutated its state must be
    // a no-op: silently re-baselining here would bake the (possibly
    // corrupted) live state into every future reboot.
    booter.capture_image(echo);
    EXPECT_EQ(booter.captures(), 1);
    kern.inject_crash(echo.id());
    // The reboot restored the *initial* state, not the pre-crash one.
    EXPECT_EQ(kern.invoke(kernel::kNoComp, echo.id(), "state_get", {}).ret, 0);
    // And the image survives any number of reboots without re-capturing.
    kern.inject_crash(echo.id());
    kern.inject_crash(echo.id());
    EXPECT_EQ(booter.captures(), 1);
  });
  kern.run();
  EXPECT_EQ(booter.reboots(), 3);
}

TEST(BooterTest, RefreshImageIsTheExplicitRebaseline) {
  kernel::Kernel kern;
  kernel::Booter booter(kern);
  EchoComponent echo(kern);
  booter.capture_image(echo);
  booter.capture_image(echo);  // No-op.
  EXPECT_EQ(booter.captures(), 1);
  booter.refresh_image(echo);  // The only sanctioned overwrite.
  EXPECT_EQ(booter.captures(), 2);
}

TEST(KernelTest, BlockedThreadUnwindsWhenServerRebooted) {
  kernel::Kernel kern;
  kernel::Booter booter(kern);

  // A component whose handler blocks the calling thread.
  class Blocker final : public kernel::Component {
   public:
    explicit Blocker(kernel::Kernel& kernel) : Component(kernel, "blocker") {
      export_fn("nap", [this](CallCtx&, const Args&) -> Value {
        kernel_.block_current();  // Throws ServerRebooted if we get rebooted.
        return kernel::kOk;
      });
    }
    void reset_state() override {}
  } blocker(kern);
  booter.capture_image(blocker);

  bool fault_flag = false;
  const kernel::ThreadId napper = kern.thd_create("napper", 5, [&] {
    const auto res = kern.invoke(kernel::kNoComp, blocker.id(), "nap", {});
    fault_flag = res.fault;
  });
  kern.thd_create("crasher", 10, [&] {
    kern.inject_crash(blocker.id());
    kern.wakeup(napper);
  });
  kern.run();
  EXPECT_TRUE(fault_flag);  // ServerRebooted surfaced as a fault to the stub layer.
}

TEST(KernelTest, CapabilityDenialIsAnError) {
  kernel::Kernel kern;
  EchoComponent echo(kern);
  EchoComponent client(kern);
  kern.set_default_allow(false);
  bool threw = false;
  kern.thd_create("caller", 5, [&] {
    try {
      kern.invoke(client.id(), echo.id(), "echo", {1});
    } catch (const AssertionError&) {
      threw = true;
    }
    kern.grant_cap(client.id(), echo.id());
    EXPECT_EQ(kern.invoke(client.id(), echo.id(), "echo", {7}).ret, 7);
  });
  kern.run();
  EXPECT_TRUE(threw);
}

TEST(KernelTest, ShutdownUnwindsAllThreads) {
  kernel::Kernel kern;
  int progressed = 0;
  kern.thd_create("sleepers", 5, [&] { kern.block_current(); ++progressed; });
  kern.thd_create("controller", 10, [&] { kern.shutdown(); });
  kern.run();  // Must terminate; blocked thread unwinds without running on.
  EXPECT_EQ(progressed, 0);
}

// Threads that have never been dispatched are still parked in the
// trampoline when another thread crashes the machine: run() must rethrow the
// crash once every one of them has exited.
TEST(KernelTest, CrashReturnsWhileThreadsWaitToStart) {
  kernel::Kernel kern;
  int progressed = 0;
  std::vector<kernel::ThreadId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(kern.thd_create("late" + std::to_string(i), 20, [&] {
      kern.yield();  // Unwinds: the machine is already down.
      ++progressed;
    }));
  }
  ids.push_back(kern.thd_create("crasher", 5, [] {
    throw kernel::SystemCrash(kernel::CrashKind::kHang, kernel::kNoComp, "test crash");
  }));
  EXPECT_THROW(kern.run(), kernel::SystemCrash);
  EXPECT_EQ(progressed, 0);
  for (const kernel::ThreadId id : ids) {
    EXPECT_EQ(kern.thread_state(id), kernel::ThreadState::kExited) << "thread " << id;
  }
}

// A handler may switch away inside its catch block (StorageComponent runs a
// whole recovery inside one). The caught-exception state belongs to the
// simulated thread: when `first` resumes, std::current_exception() and a
// bare throw must still name its own exception, not the one `second` caught
// in the meantime.
TEST(KernelTest, CatchHandlerSurvivesASwitch) {
  kernel::Kernel kern;
  std::string current;
  std::string rethrown;
  const kernel::ThreadId first = kern.thd_create("first", 10, [&] {
    try {
      throw std::runtime_error("first");
    } catch (const std::exception&) {
      kern.block_current();
      try {
        std::rethrow_exception(std::current_exception());
      } catch (const std::exception& e) {
        current = e.what();
      }
      try {
        throw;
      } catch (const std::exception& e) {
        rethrown = e.what();
      }
    }
  });
  kern.thd_create("second", 10, [&] {
    try {
      throw std::logic_error("second");
    } catch (const std::exception&) {
      kern.wakeup(first);
      kern.yield();
    }
  });
  kern.run();
  EXPECT_EQ(current, "first");
  EXPECT_EQ(rethrown, "first");
}

// At cores == 1 a System's simulated threads run on the host thread that
// called run(). Twelve Kernels run back to back on four workers, so each
// worker's Kernels also reuse one another's fiber stacks.
TEST(KernelTest, CoresOneRunsOnTheCallersHostThread) {
  constexpr std::size_t kKernels = 12;
  constexpr int kThreads = 3;
  constexpr int kSteps = 5;
  std::atomic<int> steps{0};
  std::atomic<int> foreign{0};
  parallel_for(kKernels, /*workers=*/4, [&](int, std::size_t) {
    const std::thread::id caller = std::this_thread::get_id();
    kernel::Kernel kern;
    for (int t = 0; t < kThreads; ++t) {
      kern.thd_create("stepper" + std::to_string(t), 10, [&] {
        for (int step = 0; step < kSteps; ++step) {
          steps.fetch_add(1);
          if (std::this_thread::get_id() != caller) foreign.fetch_add(1);
          kern.yield();
        }
      });
    }
    kern.run();
  });
  EXPECT_EQ(steps.load(), static_cast<int>(kKernels) * kThreads * kSteps);
  EXPECT_EQ(foreign.load(), 0);
}

// Eight equal-priority threads pass a token round a ring with
// block_current/wakeup. Each handoff must reach exactly the next thread, so
// the visits come out 0..7 in every lap; at cores>1 the woken thread is
// dispatched onto an idle core by the waker.
class TokenRing : public ::testing::TestWithParam<int> {};

TEST_P(TokenRing, EveryHandoffReachesExactlyItsTarget) {
  constexpr int kThreads = 8;
  constexpr int kLaps = 200;
  kernel::Kernel kern;
  kern.set_cores(GetParam());
  std::atomic<int> token{0};
  std::vector<int> visits;
  std::vector<kernel::ThreadId> ids(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    ids[static_cast<std::size_t>(i)] = kern.thd_create("ring" + std::to_string(i), 10, [&, i] {
      const int next = (i + 1) % kThreads;
      for (int lap = 0; lap < kLaps; ++lap) {
        while (token.load() != i) kern.block_current();
        visits.push_back(i);
        token.store(next);
        kern.wakeup(ids[static_cast<std::size_t>(next)]);
      }
    });
  }
  kern.run();
  ASSERT_EQ(visits.size(), static_cast<std::size_t>(kThreads * kLaps));
  for (std::size_t v = 0; v < visits.size(); ++v) {
    ASSERT_EQ(visits[v], static_cast<int>(v % kThreads)) << "visit " << v;
  }
  for (const kernel::ThreadId id : ids) {
    EXPECT_EQ(kern.thread_state(id), kernel::ThreadState::kExited);
  }
}

INSTANTIATE_TEST_SUITE_P(Cores, TokenRing, ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace sg
