#include "components/system.hpp"

#include <cstdlib>

#include "components/fault_profiles.hpp"
#include "components/sys_util.hpp"
#include "idl/gen_api.hpp"
#include "util/assert.hpp"

namespace sg::components {

using kernel::CompId;
using kernel::ThreadId;

int SystemConfig::env_cores() {
  const char* env = std::getenv("SG_CORES");
  if (env == nullptr || *env == '\0') return 1;
  const long n = std::strtol(env, nullptr, 10);
  if (n < 1) return 1;
  if (n > 64) return 64;
  return static_cast<int>(n);
}

namespace {

using SpecPtr = std::shared_ptr<const c3::InterfaceSpec>;

/// The IDL compiler's output for idl/<service>.sgidl (§IV), built (which
/// validates and compiles it) when the first System boots, then shared
/// read-only by every System in the process, as SuperGlue's stubs are
/// compiled once at build time.
struct GeneratedSpecs {
  SpecPtr sched = std::make_shared<const c3::InterfaceSpec>(gen::make_sched_spec());
  SpecPtr lock = std::make_shared<const c3::InterfaceSpec>(gen::make_lock_spec());
  SpecPtr mman = std::make_shared<const c3::InterfaceSpec>(gen::make_mman_spec());
  SpecPtr ramfs = std::make_shared<const c3::InterfaceSpec>(gen::make_ramfs_spec());
  SpecPtr evt = std::make_shared<const c3::InterfaceSpec>(gen::make_evt_spec());
  SpecPtr tmr = std::make_shared<const c3::InterfaceSpec>(gen::make_tmr_spec());
};

}  // namespace

const char* to_string(FtMode mode) {
  switch (mode) {
    case FtMode::kNone: return "COMPOSITE";
    case FtMode::kC3: return "COMPOSITE+C3";
    case FtMode::kSuperGlue: return "COMPOSITE+SuperGlue";
  }
  return "?";
}

System::System(SystemConfig config) : config_(std::move(config)) {
  kernel_ = std::make_unique<kernel::Kernel>();
  kernel_->set_cores(config_.cores);
  kernel_->tracer().set_enabled(config_.trace);
  booter_ = std::make_unique<kernel::Booter>(*kernel_);
  cbufs_ = std::make_unique<c3::CbufManager>(*kernel_);
  storage_ = std::make_unique<c3::StorageComponent>(*kernel_, *cbufs_);
  coordinator_ = std::make_unique<c3::RecoveryCoordinator>(*kernel_, *storage_);
  coordinator_->set_policy(config_.policy);
  supervisor_ = std::make_unique<supervisor::Supervisor>(*kernel_, config_.supervision);

  const std::uint64_t seed = config_.seed;
  sched_ = std::make_unique<SchedComponent>(*kernel_, sched_profile(), seed ^ 0x5c4ed);
  lock_ = std::make_unique<LockComponent>(*kernel_, sched_->id(), lock_profile(), seed ^ 0x10c4);
  mman_ = std::make_unique<MemMgrComponent>(*kernel_, mm_profile(), seed ^ 0x3a3a);
  ramfs_ = std::make_unique<RamFsComponent>(*kernel_, *cbufs_, *storage_, fs_profile(),
                                            seed ^ 0xf5f5);
  evt_ = std::make_unique<EventMgrComponent>(*kernel_, sched_->id(), *storage_, event_profile(),
                                             seed ^ 0xe117);
  tmr_ = std::make_unique<TimerMgrComponent>(*kernel_, sched_->id(), timer_profile(),
                                             seed ^ 0x7135);

  // The recovery substrate is itself a fault target (docs/STORAGE.md).
  storage_->enable_fault_injection(storage_profile(), seed ^ 0x570a);

  // Pre-capture boot images so the first micro-reboot does not pay the
  // allocation (embedded systems preallocate). Storage is included: a fault
  // in it micro-reboots like any component (the coordinator then rebuilds
  // its G0 contents from the client stubs).
  for (const kernel::Component* comp :
       {static_cast<kernel::Component*>(sched_.get()), static_cast<kernel::Component*>(lock_.get()),
        static_cast<kernel::Component*>(mman_.get()), static_cast<kernel::Component*>(ramfs_.get()),
        static_cast<kernel::Component*>(evt_.get()), static_cast<kernel::Component*>(tmr_.get()),
        static_cast<kernel::Component*>(storage_.get())}) {
    booter_->capture_image(*comp);
  }

  // Register the six services with the recovery coordinator. Each service's
  // T0 wakeup function lives in the recovering server's *server*: the kernel
  // for the scheduler, the scheduler component for everything else (§III-C).
  kernel::Kernel& kern = *kernel_;
  auto sched_wakeup = [&kern, this](ThreadId thd) {
    sys_invoke(kern, sched_->id(), sched_->id(), "sched_wakeup_recovery_raw", {thd});
  };
  auto kernel_wakeup = [&kern](ThreadId thd) { kern.wakeup(thd, /*recovery_wake=*/true); };

  static const GeneratedSpecs specs;
  coordinator_->register_service(*sched_, specs.sched, kernel_wakeup);
  coordinator_->register_service(*lock_, specs.lock, sched_wakeup);
  coordinator_->register_service(*mman_, specs.mman, {});
  coordinator_->register_service(*ramfs_, specs.ramfs, {});
  coordinator_->register_service(*evt_, specs.evt, sched_wakeup);
  coordinator_->register_service(*tmr_, specs.tmr, sched_wakeup);

  // Graceful-degradation plumbing: a ramfs file lost from both its map and
  // the G1 store is an explicit degraded outcome, not silent data loss.
  ramfs_->set_degraded_hook([this] { coordinator_->note_degraded("ramfs G1 file copy lost"); });

  // D0/D1 dependency edges for the supervisor's group reboots: the blocking
  // services cache scheduler-derived state (their block/wakeup plumbing runs
  // through sched), so a crash-looping scheduler takes them down with it.
  supervisor_->add_dependency(lock_->id(), sched_->id());
  supervisor_->add_dependency(evt_->id(), sched_->id());
  supervisor_->add_dependency(tmr_->id(), sched_->id());
  // ramfs keeps its file payloads in cbufs handed out against mman-backed
  // memory; rebooting mman as a group takes ramfs with it.
  supervisor_->add_dependency(ramfs_->id(), mman_->id());

  // Recovery domains are scoped to the same D0/D1 closure the supervisor's
  // group reboots walk: a fault in `comp` claims {comp} + dependents_of(comp)
  // so disjoint closures recover concurrently at cores>1. Safe without a
  // lock: rdeps_ edges are frozen once the system is wired.
  kernel_->set_domain_resolver(
      [sup = supervisor_.get()](kernel::CompId comp) { return sup->dependents_of(comp); });

  if (config_.enforce_caps) {
    // Grant exactly the system-internal invocation edges this constructor
    // wired: blocking services call into the scheduler (including the
    // scheduler's own T0 wakeup adapter). Services reach storage by direct
    // calls, not kernel invocations, so they need no capability to it.
    kernel_->set_default_allow(false);
    for (const kernel::Component* client :
         {static_cast<kernel::Component*>(lock_.get()),
          static_cast<kernel::Component*>(evt_.get()),
          static_cast<kernel::Component*>(tmr_.get()),
          static_cast<kernel::Component*>(sched_.get())}) {
      kernel_->grant_cap(client->id(), sched_->id());
    }
  }
}

System::~System() = default;

const std::vector<std::string>& System::service_names() const {
  static const std::vector<std::string> kNames = {"sched", "mman", "ramfs",
                                                  "lock",  "evt",  "tmr"};
  return kNames;
}

kernel::Component& System::service_component(const std::string& service) {
  if (service == "storage") return *storage_;  // SWIFI target, not a service.
  if (service == "sched") return *sched_;
  if (service == "lock") return *lock_;
  if (service == "mman") return *mman_;
  if (service == "ramfs") return *ramfs_;
  if (service == "evt") return *evt_;
  if (service == "tmr") return *tmr_;
  SG_ASSERT_MSG(false, "unknown service: " + service);
  __builtin_unreachable();
}

AppComponent& System::create_app(const std::string& name) {
  apps_.push_back(std::make_unique<AppComponent>(*kernel_, name));
  return *apps_.back();
}

c3::Invoker& System::invoker(kernel::Component& app, const std::string& service) {
  if (config_.enforce_caps) {
    // Client -> server for the invocations, server -> client for the G0/U0
    // recreation upcalls the stubs may issue.
    kernel_->grant_cap(app.id(), service_component(service).id());
    kernel_->grant_cap(service_component(service).id(), app.id());
  }
  switch (config_.mode) {
    case FtMode::kSuperGlue:
      return coordinator_->client_stub(app, service);
    case FtMode::kNone: {
      auto& slot = invokers_[{app.id(), service}];
      if (!slot) {
        slot = std::make_unique<c3::PassthroughInvoker>(*kernel_, app.id(),
                                                        service_component(service).id());
      }
      return *slot;
    }
    case FtMode::kC3: {
      auto& slot = invokers_[{app.id(), service}];
      if (!slot) {
        SG_ASSERT_MSG(c3_factory_, "FtMode::kC3 requires c3stubs::install_c3_stubs(system)");
        slot = c3_factory_(app, service);
      }
      return *slot;
    }
  }
  SG_ASSERT_MSG(false, "bad FtMode");
  __builtin_unreachable();
}

}  // namespace sg::components
