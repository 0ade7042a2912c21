#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "c3/client_stub.hpp"
#include "c3/interface_spec.hpp"
#include "c3/server_stub.hpp"
#include "c3/storage.hpp"
#include "kernel/component.hpp"
#include "kernel/kernel.hpp"

namespace sg::c3 {

/// When descriptors are walked back from s_f (§II-C).
enum class RecoveryPolicy {
  kOnDemand,  ///< T1: at first touch, at the touching thread's priority (default).
  kEager,     ///< All descriptors of all clients immediately at fault time.
};

/// Wakes one thread that was blocked inside a rebooted component. Supplied
/// per service because the I_wakeup function lives in the recovering
/// server's *server* (the scheduler component for most services; the kernel
/// for the scheduler itself).
using WakeupFn = std::function<void(kernel::ThreadId)>;

/// Glues the pieces of interface-driven recovery together: it owns the
/// compiled InterfaceSpecs, hands out per-client stubs, wraps G0 servers
/// with server stubs, and — installed as the kernel's reboot hook — performs
/// step (5) of §III-D: eager (T0) wakeup of blocked threads at the inherited
/// priority, immediately after the booter micro-reboots a component.
class RecoveryCoordinator {
 public:
  RecoveryCoordinator(kernel::Kernel& kernel, StorageComponent& storage);

  RecoveryCoordinator(const RecoveryCoordinator&) = delete;
  RecoveryCoordinator& operator=(const RecoveryCoordinator&) = delete;

  /// Registers a system service: its server component, its interface spec,
  /// and its wakeup adapter. The spec arrives validated and compiled; the
  /// coordinator only reads it, so one spec can serve every System in the
  /// process. Creates the server-side stub when the interface is global (G0).
  void register_service(kernel::Component& server, std::shared_ptr<const InterfaceSpec> spec,
                        WakeupFn wakeup);

  /// Get-or-create the client stub for (client, service).
  ClientStub& client_stub(kernel::Component& client, const std::string& service);

  const InterfaceSpec& spec(const std::string& service) const;
  const InterfaceSpec* find_spec_by_comp(kernel::CompId comp) const;
  kernel::CompId server_of(const std::string& service) const;

  void set_policy(RecoveryPolicy policy) { policy_ = policy; }
  RecoveryPolicy policy() const { return policy_; }

  int reboots_handled() const { return reboots_handled_.load(std::memory_order_relaxed); }
  int t0_wakeups() const { return t0_wakeups_.load(std::memory_order_relaxed); }

  /// Storage-component reboots handled by re-materializing G0 from the
  /// client stubs' tracked state (G1 repopulates lazily at its publishers).
  int storage_rebuilds() const { return storage_rebuilds_.load(std::memory_order_relaxed); }

  /// Degraded recovery (§graceful degradation, docs/STORAGE.md): recovery
  /// completed but leaned on a fallback because the substrate lost state —
  /// a checksum eviction, a G0 record whose recreation upcall failed, or a
  /// resource whose G1 copy was gone. Sticky until clear_degraded().
  bool degraded() const { return degraded_.load(std::memory_order_relaxed); }
  std::uint64_t degraded_events() const {
    return degraded_events_.load(std::memory_order_relaxed);
  }
  void clear_degraded() { degraded_.store(false, std::memory_order_relaxed); }
  /// Raise the degraded flag; components report their own fallbacks here.
  void note_degraded(const char* why);

  /// Reboots that arrived while another reboot was still being handled (a
  /// fault during recovery). They are queued and processed after the outer
  /// recovery unwinds, so on_reboot is safe to re-enter.
  int reentrant_reboots() const { return reentrant_reboots_.load(std::memory_order_relaxed); }
  /// Eager (T0) descriptor sweeps that were aborted and restarted because a
  /// nested reboot invalidated descriptors mid-sweep.
  int replay_restarts() const { return replay_restarts_.load(std::memory_order_relaxed); }

 private:
  struct Service {
    kernel::Component* server = nullptr;
    std::shared_ptr<const InterfaceSpec> spec;
    WakeupFn wakeup;
    std::unique_ptr<ServerStub> server_stub;
    /// Keyed by client component id.
    std::map<kernel::CompId, std::unique_ptr<ClientStub>> client_stubs;
  };

  /// Kernel reboot hook. Re-entrant-safe: a reboot arriving while another is
  /// being handled (a fault *during* recovery) is queued and drained after
  /// the outer recovery finishes, and it bumps `generation_` so an in-flight
  /// eager sweep aborts and restarts against the new fault epoch.
  void on_reboot(kernel::CompId comp);

  /// The actual recovery work for one reboot: restartable eager descriptor
  /// sweep (kEager policy) + T0 wakeups of blocked threads. Idempotent --
  /// recover_all skips descriptors that are not marked faulty.
  void process_reboot(kernel::CompId comp);

  Service* find_service_by_comp(kernel::CompId comp);

  /// Tentpole: the storage component itself rebooted (its contents are
  /// gone). Re-materialize every service's G0 creator records from the
  /// client stubs' own tracked descriptor state, bracketed by the
  /// kStorageRebuildBegin/End trace events the invariant checker audits.
  void rebuild_storage();

  /// Per-recovery-context re-entrancy state. At cores=1 every reboot lands in
  /// slot 0 (the kernel's recovery_owner_key degenerates), reproducing the
  /// old single-slot behavior exactly; at cores>1 each concurrent recovery
  /// domain gets its own depth/generation/pending so a nested fault in one
  /// domain never defers or aborts an unrelated domain's recovery work.
  struct Reentrancy {
    int depth = 0;                       ///< >0 while on_reboot is running.
    std::uint64_t generation = 0;        ///< Bumped by every nested reboot.
    std::deque<kernel::CompId> pending;  ///< Reboots deferred by re-entrancy.
  };
  /// reent_[owner].generation under reent_mu_.
  std::uint64_t generation_of(std::int64_t owner);

  kernel::Kernel& kernel_;
  StorageComponent& storage_;
  /// Guards the client_stubs maps' get-or-create against concurrent first
  /// touches at cores>1 (stub *use* is serialized by the client component's
  /// occupancy; only map insertion needs the lock).
  std::mutex stub_mu_;
  std::map<std::string, Service> services_;
  RecoveryPolicy policy_ = RecoveryPolicy::kOnDemand;
  /// Atomics: counters are bumped from whichever core runs a recovery while
  /// readers poll from the campaign driver; degraded flags additionally fire
  /// from eviction hooks.
  std::atomic<int> reboots_handled_{0};
  std::atomic<int> t0_wakeups_{0};
  std::atomic<int> reentrant_reboots_{0};
  std::atomic<int> replay_restarts_{0};
  std::atomic<int> storage_rebuilds_{0};
  std::atomic<bool> degraded_{false};
  std::atomic<std::uint64_t> degraded_events_{0};
  /// Keyed by the kernel's recovery_owner_key. Guarded by reent_mu_ (short
  /// holds only — never across process_reboot or any kernel call); the state
  /// *within* one slot is still serialized by that owner's recovery domain.
  std::unordered_map<std::int64_t, Reentrancy> reent_;
  std::mutex reent_mu_;
};

}  // namespace sg::c3
