#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "c3/cbuf.hpp"
#include "c3/invoker.hpp"
#include "c3/recovery.hpp"
#include "c3/storage.hpp"
#include "components/event_mgr.hpp"
#include "components/lock.hpp"
#include "components/mem_mgr.hpp"
#include "components/ramfs.hpp"
#include "components/sched.hpp"
#include "components/timer_mgr.hpp"
#include "kernel/booter.hpp"
#include "kernel/kernel.hpp"
#include "supervisor/supervisor.hpp"

namespace sg::components {

/// Which fault-tolerance variant application components talk through —
/// the three systems compared throughout §V.
enum class FtMode {
  kNone,       ///< Base COMPOSITE: plain invocations, no recovery.
  kC3,         ///< Hand-written C3 stubs (install_c3_stubs must be called).
  kSuperGlue,  ///< SuperGlue stubs driven by compiled InterfaceSpecs.
};

const char* to_string(FtMode mode);

struct SystemConfig {
  std::uint64_t seed = 42;
  FtMode mode = FtMode::kSuperGlue;
  c3::RecoveryPolicy policy = c3::RecoveryPolicy::kOnDemand;
  /// Enforce capability-based access control on every invocation edge
  /// (COMPOSITE's model): the System grants exactly the edges it wires —
  /// system-service dependencies, client->service edges as invokers are
  /// created, and server->client upcall edges as stubs are created.
  bool enforce_caps = false;
  /// Recovery-supervisor policy (crash-loop detection, escalation,
  /// quarantine). The default is transparent (loop_threshold == 0): faults
  /// behave exactly like plain C3 micro-reboots.
  supervisor::Policy supervision;
  /// Start the machine with event tracing enabled (the SG_TRACE runtime
  /// toggle: SG_TRACE=1 in the environment turns it on everywhere).
  bool trace = trace::Tracer::env_enabled();
  /// Number of kernel cores (parallel simulated-thread slots). Defaults to
  /// the SG_CORES environment variable, or 1 — which reproduces the
  /// single-runner kernel bit-for-bit (docs/KERNEL.md). Deterministic
  /// harnesses (explorer, campaign shards, golden traces) pin this to 1.
  int cores = env_cores();

  /// SG_CORES from the environment, clamped to [1, 64]; 1 when unset.
  static int env_cores();
};

/// A plain application component: client-side protection domain with no
/// system state of its own (applications are outside SuperGlue's fault
/// scope, §II-E).
class AppComponent final : public kernel::Component {
 public:
  AppComponent(kernel::Kernel& kernel, std::string name)
      : Component(kernel, std::move(name), 8 * 1024) {}
  void reset_state() override {}
};

/// Builds and owns a complete simulated COMPOSITE machine: kernel, booter,
/// trusted cbuf + storage components, the recovery coordinator, and the six
/// system services, wired per §III-D. One System == one "machine"; the
/// fault-injection campaign constructs a fresh one after every whole-system
/// crash ("the system is rebooted", §V-D).
class System {
 public:
  explicit System(SystemConfig config = {});
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  kernel::Kernel& kernel() { return *kernel_; }
  kernel::Booter& booter() { return *booter_; }
  c3::CbufManager& cbufs() { return *cbufs_; }
  c3::StorageComponent& storage() { return *storage_; }
  c3::RecoveryCoordinator& coordinator() { return *coordinator_; }
  supervisor::Supervisor& supervision() { return *supervisor_; }

  SchedComponent& sched() { return *sched_; }
  LockComponent& lock() { return *lock_; }
  MemMgrComponent& mman() { return *mman_; }
  RamFsComponent& ramfs() { return *ramfs_; }
  EventMgrComponent& evt() { return *evt_; }
  TimerMgrComponent& tmr() { return *tmr_; }

  const SystemConfig& config() const { return config_; }

  /// The six fault-injection target components, keyed by service name.
  const std::vector<std::string>& service_names() const;
  kernel::Component& service_component(const std::string& service);

  /// Creates an application (client) component owned by the System.
  AppComponent& create_app(const std::string& name);

  /// Invoker for (app, service) according to the configured FtMode.
  /// Owned by the System; stable for its lifetime.
  c3::Invoker& invoker(kernel::Component& app, const std::string& service);

  /// C3-mode hook: c3stubs::install_c3_stubs(system) sets this factory.
  using InvokerFactory =
      std::function<std::unique_ptr<c3::Invoker>(kernel::Component&, const std::string&)>;
  void set_c3_factory(InvokerFactory factory) { c3_factory_ = std::move(factory); }

 private:
  SystemConfig config_;
  std::unique_ptr<kernel::Kernel> kernel_;
  std::unique_ptr<kernel::Booter> booter_;
  std::unique_ptr<c3::CbufManager> cbufs_;
  std::unique_ptr<c3::StorageComponent> storage_;
  std::unique_ptr<c3::RecoveryCoordinator> coordinator_;
  std::unique_ptr<supervisor::Supervisor> supervisor_;
  std::unique_ptr<SchedComponent> sched_;
  std::unique_ptr<LockComponent> lock_;
  std::unique_ptr<MemMgrComponent> mman_;
  std::unique_ptr<RamFsComponent> ramfs_;
  std::unique_ptr<EventMgrComponent> evt_;
  std::unique_ptr<TimerMgrComponent> tmr_;
  std::vector<std::unique_ptr<AppComponent>> apps_;
  /// Passthrough/C3 invokers owned here, keyed by (comp id, service).
  std::map<std::pair<kernel::CompId, std::string>, std::unique_ptr<c3::Invoker>> invokers_;
  InvokerFactory c3_factory_;
};

}  // namespace sg::components
