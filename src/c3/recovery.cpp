#include "c3/recovery.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace sg::c3 {

using kernel::CompId;
using kernel::ThreadId;

RecoveryCoordinator::RecoveryCoordinator(kernel::Kernel& kernel, StorageComponent& storage)
    : kernel_(kernel), storage_(storage) {
  kernel_.add_reboot_hook([this](CompId comp) { on_reboot(comp); });
  // Integrity: every checksum eviction means the substrate silently lost a
  // record; whatever recovery that record would have served now takes the
  // fallback path, so the episode is degraded.
  storage_.set_eviction_hook([this](bool is_data, NsId, kernel::Value) {
    note_degraded(is_data ? "G1 record evicted by checksum" : "G0 record evicted by checksum");
  });
}

void RecoveryCoordinator::note_degraded(const char* why) {
  degraded_.store(true, std::memory_order_relaxed);
  degraded_events_.fetch_add(1, std::memory_order_relaxed);
  SG_DEBUG("recovery", "degraded recovery: " << why);
}

void RecoveryCoordinator::register_service(kernel::Component& server,
                                           std::shared_ptr<const InterfaceSpec> spec,
                                           WakeupFn wakeup) {
  SG_ASSERT(spec != nullptr);
  const std::string& service = spec->service;
  SG_ASSERT_MSG(services_.count(service) == 0, "service registered twice: " + service);
  Service& svc = services_[service];
  svc.server = &server;
  svc.spec = std::move(spec);
  svc.wakeup = std::move(wakeup);
  if (svc.spec->desc_is_global || svc.spec->parent == ParentKind::kXCParent) {
    svc.server_stub = std::make_unique<ServerStub>(kernel_, server, *svc.spec, storage_);
    svc.server_stub->set_degraded_hook(
        [this](const char*) { note_degraded("G0 record found but recreation upcall failed"); });
  }
}

ClientStub& RecoveryCoordinator::client_stub(kernel::Component& client,
                                             const std::string& service) {
  auto it = services_.find(service);
  SG_ASSERT_MSG(it != services_.end(), "unknown service: " + service);
  Service& svc = it->second;
  std::lock_guard<std::mutex> guard(stub_mu_);
  auto& slot = svc.client_stubs[client.id()];
  if (!slot) {
    slot = std::make_unique<ClientStub>(kernel_, client, svc.server->id(), *svc.spec, &storage_);
  }
  return *slot;
}

const InterfaceSpec& RecoveryCoordinator::spec(const std::string& service) const {
  auto it = services_.find(service);
  SG_ASSERT_MSG(it != services_.end(), "unknown service: " + service);
  return *it->second.spec;
}

const InterfaceSpec* RecoveryCoordinator::find_spec_by_comp(CompId comp) const {
  for (const auto& [name, svc] : services_) {
    if (svc.server->id() == comp) return svc.spec.get();
  }
  return nullptr;
}

kernel::CompId RecoveryCoordinator::server_of(const std::string& service) const {
  auto it = services_.find(service);
  SG_ASSERT_MSG(it != services_.end(), "unknown service: " + service);
  return it->second.server->id();
}

RecoveryCoordinator::Service* RecoveryCoordinator::find_service_by_comp(CompId comp) {
  for (auto& [name, svc] : services_) {
    if (svc.server->id() == comp) return &svc;
  }
  return nullptr;
}

std::uint64_t RecoveryCoordinator::generation_of(std::int64_t owner) {
  std::lock_guard<std::mutex> lock(reent_mu_);
  return reent_[owner].generation;
}

void RecoveryCoordinator::on_reboot(CompId comp) {
  // Reboot hooks run inside a recovery domain (cores>1) or on the single
  // runner (cores==1); either way the owner's Reentrancy slot below is
  // serialized by that domain — reent_mu_ only guards the *map* against
  // concurrent disjoint-domain recoveries touching their own slots.
  SG_ASSERT_MSG(kernel_.recovery_token_held_by_caller(),
                "on_reboot outside a recovery domain");
  const std::int64_t owner = kernel_.recovery_owner_key();
  {
    std::lock_guard<std::mutex> lock(reent_mu_);
    Reentrancy& re = reent_[owner];
    if (re.depth > 0) {
      // Fault during recovery: a replayed invocation (or a group member's
      // reboot) faulted while this coordinator was already handling a reboot
      // in the same domain. The raw micro-reboot (image restore + epoch
      // bump) has already run in the kernel; only *our* recovery work is
      // deferred until the outer recovery unwinds, so the coordinator never
      // recurses. The generation bump tells this domain's in-flight eager
      // sweep its descriptors just went stale.
      reentrant_reboots_.fetch_add(1, std::memory_order_relaxed);
      ++re.generation;
      re.pending.push_back(comp);
      SG_DEBUG("recovery", "reboot of comp " << comp << " deferred (depth " << re.depth << ")");
      return;
    }
  }

  struct DepthGuard {
    RecoveryCoordinator& co;
    std::int64_t owner;
    DepthGuard(RecoveryCoordinator& c, std::int64_t o) : co(c), owner(o) {
      std::lock_guard<std::mutex> lock(co.reent_mu_);
      ++co.reent_[owner].depth;
    }
    ~DepthGuard() {
      std::lock_guard<std::mutex> lock(co.reent_mu_);
      --co.reent_[owner].depth;
    }
  } guard(*this, owner);

  process_reboot(comp);
  int drained = 0;
  for (;;) {
    CompId next = kernel::kNoComp;
    {
      std::lock_guard<std::mutex> lock(reent_mu_);
      std::deque<CompId>& pending = reent_[owner].pending;
      if (pending.empty()) break;
      next = pending.front();
      pending.pop_front();
    }
    SG_ASSERT_MSG(++drained <= 64, "deferred-reboot queue is not converging");
    process_reboot(next);
  }
}

void RecoveryCoordinator::process_reboot(CompId comp) {
  if (comp == storage_.id()) {
    rebuild_storage();
    return;
  }
  Service* svc = find_service_by_comp(comp);
  if (svc == nullptr) return;  // Not a recovery-managed component.
  reboots_handled_.fetch_add(1, std::memory_order_relaxed);
  SG_DEBUG("recovery", "handling reboot of " << svc->spec->service);

  if (policy_ == RecoveryPolicy::kEager) {
    // C3's eager mode: rebuild every client's descriptors right now, at the
    // faulting thread's (boosted) priority. The sweep is restartable: if a
    // nested reboot lands mid-sweep (this domain's generation changes),
    // descriptors rebuilt so far are stale again, so abort and start over.
    // Safe because recover_all only touches descriptors still marked faulty.
    // A concurrent disjoint domain bumps only its *own* generation, so it
    // never aborts this sweep.
    const std::int64_t owner = kernel_.recovery_owner_key();
    for (int attempt = 0;; ++attempt) {
      SG_ASSERT_MSG(attempt < 8, "eager recovery sweep is not converging");
      const std::uint64_t gen = generation_of(owner);
      bool aborted = false;
      for (auto& [client_id, stub] : svc->client_stubs) {
        stub->recover_all();
        if (generation_of(owner) != gen) {
          aborted = true;
          break;
        }
      }
      if (!aborted) break;
      replay_restarts_.fetch_add(1, std::memory_order_relaxed);
      SG_DEBUG("recovery", "eager sweep for " << svc->spec->service << " restarted");
    }
  }

  if (!svc->spec->desc_block) return;

  // T0: wake every thread blocked inside the rebooted component, inheriting
  // the highest priority among them so recovery does not invert priorities.
  std::vector<ThreadId> blocked;
  kernel::Priority top_prio = 1 << 30;
  for (const auto& info : kernel_.reflect_blocked_threads()) {
    const auto stack = kernel_.thread_invocation_stack(info.thd);
    if (std::find(stack.begin(), stack.end(), comp) == stack.end()) continue;
    blocked.push_back(info.thd);
    top_prio = std::min(top_prio, info.prio);
  }
  if (blocked.empty()) return;

  const ThreadId self = kernel_.current_thread();
  kernel::Priority saved_prio = 0;
  const bool boost = (self != kernel::kNoThread);
  if (boost) {
    saved_prio = kernel_.thread_priority(self);
    kernel_.set_thread_priority(self, std::min(saved_prio, top_prio));
  }
  // The service wake adapter delivers through component invokes *from this
  // thread*. If this thread's own invocation stack still holds a frame of
  // the component being rebooted, every such invoke unwinds at entry (the
  // stale-epoch check) before the wake is delivered — and T0 wakes are
  // one-shot: the waiters' registrations died with the server, so a dropped
  // wake is a thread blocked forever. Deliver directly through the kernel in
  // that case; the woken thread unwinds its own stale frames and redoes the
  // blocking call, rebuilding any server-side bookkeeping on the way.
  bool deliver_direct = (self == kernel::kNoThread);
  if (!deliver_direct) {
    const auto stack = kernel_.thread_invocation_stack(self);
    deliver_direct = std::find(stack.begin(), stack.end(), comp) != stack.end();
  }
  std::exception_ptr unwind;
  for (const ThreadId thd : blocked) {
    t0_wakeups_.fetch_add(1, std::memory_order_relaxed);
    kernel_.trace(trace::EventKind::kMechanism, comp,
                  static_cast<std::int32_t>(trace::Mechanism::kT0), 0,
                  static_cast<std::int64_t>(thd));
    if (deliver_direct) {
      kernel_.wakeup(thd, /*recovery_wake=*/true);
      continue;
    }
    try {
      svc->wakeup(thd);
    } catch (const kernel::ServerRebooted&) {
      // A concurrent reboot left another stale frame on our stack and the
      // wake invoke unwound before delivering. Finish the sweep directly —
      // losing the rest of the wakes is never acceptable — then let the
      // unwind continue from here.
      unwind = std::current_exception();
      deliver_direct = true;
      kernel_.wakeup(thd, /*recovery_wake=*/true);
    }
  }
  if (boost) kernel_.set_thread_priority(self, saved_prio);
  if (unwind) std::rethrow_exception(unwind);
}

void RecoveryCoordinator::rebuild_storage() {
  // The republish sweep below touches *every* service's client stubs —
  // state well outside the storage component's own dependency closure — so a
  // scoped recovery domain is not containment enough. Widen to the whole
  // machine first (a no-op at cores==1 and when the domain already escalated);
  // concurrent disjoint recoveries drain before the sweep starts.
  kernel_.escalate_recovery_to_machine(kernel::Kernel::kEscalateStorageRebuild);
  storage_rebuilds_.fetch_add(1, std::memory_order_relaxed);
  const int epoch = kernel_.fault_epoch(storage_.id());
  kernel_.trace(trace::EventKind::kStorageRebuildBegin, storage_.id(), epoch);
  SG_DEBUG("recovery", "storage component rebooted (epoch " << epoch
                       << "): re-materializing G0 from client stubs");
  // G0: every client stub that keeps creator records pushes them back from
  // its own tracked-descriptor state. The stubs are the authoritative copy —
  // the point of G0 is that storage is *redundant* bookkeeping.
  //
  // The record_desc calls below re-enter storage entry points; the armed
  // flip that felled storage has been consumed, so they cannot re-fault. A
  // *fresh* flip landing here defers through on_reboot's pending queue like
  // any other nested fault, and the rebuild restarts when it drains.
  std::size_t republished = 0;
  for (auto& [name, svc] : services_) {
    for (auto& [client_id, stub] : svc.client_stubs) {
      republished += stub->republish_creators();
    }
  }
  // G1 repopulates lazily: its publishers (RamFS file contents, event
  // manager pending counts) notice the storage fault-epoch change at their
  // next handler entry and re-store what they hold in memory. A resource
  // whose in-memory copy is *also* gone surfaces as a degraded fallback at
  // its owner, not here.
  kernel_.trace(trace::EventKind::kStorageRebuildEnd, storage_.id(),
                static_cast<std::int32_t>(republished));
  SG_DEBUG("recovery", "storage rebuild done: " << republished << " creator records");
}

}  // namespace sg::c3
