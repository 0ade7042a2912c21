#pragma once

#include <deque>
#include <map>

#include "c3/invoker.hpp"
#include "kernel/component.hpp"
#include "kernel/kernel.hpp"
#include "kernel/regops.hpp"
#include "util/rng.hpp"

namespace sg::components {

/// The mutual-exclusion lock component (the worked example of §II-C). Blocks
/// contending threads through the scheduler component. After a micro-reboot,
/// client stubs regenerate its state by re-creating, re-acquiring, or
/// re-contending locks.
///
/// Interface (service "lock", descriptor = lock id):
///   lock_alloc(compid [,hint]) -> lockid   [creation]
///   lock_take(compid, lockid)              [blocking]
///   lock_release(compid, lockid)           [wakeup]
///   lock_free(compid, lockid)              [terminal]
class LockComponent final : public kernel::Component {
 public:
  LockComponent(kernel::Kernel& kernel, kernel::CompId sched, kernel::FaultProfile profile,
                std::uint64_t seed);

  void reset_state() override;

  std::size_t lock_count() const { return locks_.size(); }
  kernel::ThreadId owner_of(kernel::Value lockid) const;

 private:
  struct Lock {
    kernel::ThreadId owner = kernel::kNoThread;
    kernel::CompId owner_comp = kernel::kNoComp;
    std::deque<kernel::ThreadId> waiters;
  };

  kernel::Value alloc(kernel::CallCtx& ctx, const kernel::Args& args);
  kernel::Value take(kernel::CallCtx& ctx, const kernel::Args& args);
  kernel::Value release(kernel::CallCtx& ctx, const kernel::Args& args);
  kernel::Value free_fn(kernel::CallCtx& ctx, const kernel::Args& args);

  std::map<kernel::Value, Lock> locks_;
  kernel::Value next_id_ = 1;
  kernel::CompId sched_;
  kernel::FaultProfile profile_;
  Rng rng_;
};

/// Typed client API. Carries the kernel reference so lock_take can name the
/// acquiring thread (tracked as descriptor data for ownership-correct
/// recovery).
class LockClient {
 public:
  LockClient(c3::Invoker& stub, kernel::Kernel& kernel)
      : stub_(stub),
        kernel_(kernel),
        alloc_(stub.resolve("lock_alloc")),
        take_(stub.resolve("lock_take")),
        release_(stub.resolve("lock_release")),
        free_(stub.resolve("lock_free")) {}

  kernel::Value alloc(kernel::CompId self) { return stub_.call_id(alloc_, {self}); }
  kernel::Value take(kernel::CompId self, kernel::Value lockid) {
    return stub_.call_id(take_, {self, lockid, kernel_.current_thread()});
  }
  kernel::Value release(kernel::CompId self, kernel::Value lockid) {
    return stub_.call_id(release_, {self, lockid});
  }
  kernel::Value free(kernel::CompId self, kernel::Value lockid) {
    return stub_.call_id(free_, {self, lockid});
  }

 private:
  c3::Invoker& stub_;
  kernel::Kernel& kernel_;
  c3::FnId alloc_, take_, release_, free_;
};

}  // namespace sg::components
