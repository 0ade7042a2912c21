#include "swifi/stress.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "components/event_mgr.hpp"
#include "components/lock.hpp"
#include "components/mem_mgr.hpp"
#include "components/ramfs.hpp"
#include "components/system.hpp"
#include "components/trace_check.hpp"
#include "kernel/fault.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace sg::swifi {

using components::System;
using components::SystemConfig;
using kernel::CompId;
using kernel::Value;

const char* to_string(StressMode mode) {
  switch (mode) {
    case StressMode::kCrashLoop: return "crash-loop";
    case StressMode::kBurst: return "burst";
    case StressMode::kFaultInRecovery: return "fault-in-recovery";
    case StressMode::kIndependentBurst: return "independent-burst";
  }
  return "?";
}

bool parse_stress_mode(const std::string& text, StressMode& mode) {
  if (text == "crash-loop") { mode = StressMode::kCrashLoop; return true; }
  if (text == "burst") { mode = StressMode::kBurst; return true; }
  if (text == "fault-in-recovery") { mode = StressMode::kFaultInRecovery; return true; }
  if (text == "independent-burst") { mode = StressMode::kIndependentBurst; return true; }
  return false;
}

namespace {

/// Copies the end-of-run observables out of the system into the report.
void finalize(System& sys, CompId escalation_comp, StressReport& report) {
  if (sys.config().trace) {
    const trace::Tracer::Snapshot snap = sys.kernel().tracer().snapshot();
    const trace::NameFn names = components::comp_namer(sys);
    report.trace_normalized = trace::format_normalized(snap.events, names);
    std::ostringstream json;
    trace::write_chrome_trace(json, snap, names);
    report.trace_chrome_json = json.str();
    report.trace_truncated = snap.truncated();
    if (report.crash.empty()) {
      trace::InvariantChecker checker(components::checker_hooks(sys));
      report.trace_violations = checker.check(sys.kernel().tracer());
      report.trace_max_concurrent_domains = checker.max_concurrent_domains();
    }
  }
  report.max_concurrent_recoveries = sys.kernel().max_concurrent_recoveries();
  report.stats = sys.supervision().stats();
  report.events = sys.supervision().events();
  report.reentrant_reboots = sys.coordinator().reentrant_reboots();
  report.replay_restarts = sys.coordinator().replay_restarts();
  report.total_reboots = sys.kernel().total_reboots();

  // The escalation chain fired in order iff the reboot-action events of the
  // target component never step *down* a level before the first readmit.
  report.escalation_in_order = true;
  int last_level = 0;
  for (const auto& event : report.events) {
    if (event.comp != escalation_comp) continue;
    if (event.what == "readmit") break;
    if (event.what != "micro-reboot" && event.what != "group-reboot" &&
        event.what != "quarantine") {
      continue;
    }
    const int level = static_cast<int>(event.level);
    if (level < last_level) report.escalation_in_order = false;
    last_level = level;
  }
}

/// crash-loop: hammer the memory manager until it is quarantined, watch
/// clients fail fast, then readmit and verify service resumes. mman is the
/// target because ramfs is registered as its dependent, so the group-reboot
/// stage of the chain actually reboots a group.
StressReport run_crash_loop(const StressConfig& config) {
  StressReport report;
  SystemConfig sys_config;
  sys_config.cores = 1;  // Golden-trace determinism.
  sys_config.seed = config.seed;
  sys_config.trace = config.trace || sys_config.trace;
  sys_config.supervision.loop_threshold = 3;
  sys_config.supervision.loop_window = 1'000'000;
  sys_config.supervision.backoff_initial = 50;
  sys_config.supervision.backoff_max = 400;
  sys_config.supervision.trips_per_level = 2;
  report.policy = sys_config.supervision;

  System sys(sys_config);
  auto& kern = sys.kernel();
  auto& mm_app = sys.create_app("mm-app");
  auto& fs_app = sys.create_app("fs-app");
  const CompId target = sys.service_component("mman").id();

  bool readmitted = false;
  bool finished = false;

  // The client whose service crash-loops: get/release page cycles. Once the
  // supervisor quarantines mman every call fails fast with QuarantinedError
  // (graceful degradation); after the manual readmit the calls succeed again.
  kern.thd_create("mm-client", 10, [&] {
    components::MmClient mm(sys.invoker(mm_app, "mman"));
    while (!finished) {
      try {
        const Value root = mm.get_page(mm_app.id(), 0x400000);
        if (root <= 0) ++report.violations;
        if (mm.release_page(mm_app.id(), root) != kernel::kOk) ++report.violations;
        if (readmitted && ++report.post_readmit_successes >= 5) finished = true;
      } catch (const kernel::QuarantinedError&) {
        ++report.quarantine_failfasts;
      }
      kern.block_current_until(kern.clock().now() + 8);
    }
  });

  // An innocent bystander on the dependent service: group reboots of mman
  // take ramfs down too; the workload must stay correct throughout.
  kern.thd_create("fs-client", 10, [&] {
    components::FsClient fs(sys.invoker(fs_app, "ramfs"), sys.cbufs(), fs_app.id());
    for (int round = 0; !finished; ++round) {
      const Value fd = fs.open(900 + round % 4);
      const std::string chunk = "r" + std::to_string(round) + ";";
      if (fs.write(fd, chunk) != static_cast<Value>(chunk.size())) ++report.violations;
      fs.lseek(fd, 0);
      if (fs.read(fd, 64).substr(0, chunk.size()) != chunk) ++report.violations;
      fs.close(fd);
      kern.block_current_until(kern.clock().now() + 6);
    }
  });

  // The adversary: inject fail-stop faults into mman until the escalation
  // chain quarantines it, wait for the client to rack up fail-fasts, then
  // readmit.
  kern.thd_create("adversary", 5, [&] {
    Rng rng(config.seed ^ 0xad5e);
    while (sys.supervision().level_of(target) != supervisor::Level::kQuarantined) {
      kern.block_current_until(kern.clock().now() + 15 + rng.next_below(15));
      kern.inject_crash(target);
    }
    while (report.quarantine_failfasts < 3) kern.block_current_until(kern.clock().now() + 20);
    sys.supervision().readmit(target);
    readmitted = true;
  });

  try {
    kern.run();
    report.completed = true;
  } catch (const kernel::SystemCrash& crash) {
    report.crash = crash.what();
  }
  finalize(sys, target, report);
  return report;
}

/// burst: volleys of back-to-back faults (three in the same virtual instant)
/// into a rotating target while lock/event/file workloads for all of them
/// run. Every volley trips the crash-loop detector (threshold 3), so the run
/// exercises backoff holds and, on the second volley per service, the group
/// reboot level -- but never quarantine (two trips per service).
StressReport run_burst(const StressConfig& config) {
  StressReport report;
  SystemConfig sys_config;
  sys_config.cores = 1;  // Golden-trace determinism.
  sys_config.seed = config.seed;
  sys_config.trace = config.trace || sys_config.trace;
  sys_config.supervision.loop_threshold = 3;
  sys_config.supervision.loop_window = 200;
  sys_config.supervision.backoff_initial = 40;
  sys_config.supervision.backoff_max = 320;
  sys_config.supervision.trips_per_level = 2;
  report.policy = sys_config.supervision;

  System sys(sys_config);
  auto& kern = sys.kernel();
  auto& lock_app = sys.create_app("lock-app");
  auto& evt_app_a = sys.create_app("evt-a");
  auto& evt_app_b = sys.create_app("evt-b");
  auto& fs_app = sys.create_app("fs-app");

  constexpr int kRounds = 150;
  int active_workers = 5;

  // Lock pair: mutual exclusion must hold across every volley.
  auto lock = std::make_shared<components::LockClient>(sys.invoker(lock_app, "lock"), kern);
  auto lock_id = std::make_shared<Value>(0);
  auto in_critical = std::make_shared<int>(0);
  for (int worker = 0; worker < 2; ++worker) {
    kern.thd_create("lock-worker", 10, [&, worker] {
      if (worker == 0) *lock_id = lock->alloc(lock_app.id());
      for (int round = 0; round < kRounds; ++round) {
        if (*lock_id <= 0) {
          kern.yield();
          continue;
        }
        if (lock->take(lock_app.id(), *lock_id) != kernel::kOk) ++report.violations;
        if (++*in_critical != 1) ++report.violations;
        kern.yield();
        --*in_critical;
        if (lock->release(lock_app.id(), *lock_id) != kernel::kOk) ++report.violations;
        kern.yield();
      }
      --active_workers;
    });
  }

  // Event pipeline: exact trigger accounting.
  auto evtid = std::make_shared<Value>(0);
  kern.thd_create("evt-waiter", 10, [&] {
    components::EvtClient evt(sys.invoker(evt_app_a, "evt"));
    *evtid = evt.split(evt_app_a.id());
    Value total = 0;
    while (total < kRounds) {
      const Value got = evt.wait(evt_app_a.id(), *evtid);
      if (got < 0) {
        ++report.violations;
        break;
      }
      total += got;
    }
    if (total != kRounds) ++report.violations;
    --active_workers;
  });
  kern.thd_create("evt-trigger", 11, [&] {
    components::EvtClient evt(sys.invoker(evt_app_b, "evt"));
    kern.yield();
    for (int round = 0; round < kRounds; ++round) {
      if (evt.trigger(evt_app_b.id(), *evtid) != kernel::kOk) ++report.violations;
      kern.yield();
    }
    --active_workers;
  });

  // File worker: write/readback cycles.
  kern.thd_create("fs-worker", 10, [&] {
    components::FsClient fs(sys.invoker(fs_app, "ramfs"), sys.cbufs(), fs_app.id());
    for (int round = 0; round < kRounds; ++round) {
      const Value fd = fs.open(700 + round % 4);
      const std::string chunk = "b" + std::to_string(round) + ";";
      if (fs.write(fd, chunk) != static_cast<Value>(chunk.size())) ++report.violations;
      fs.lseek(fd, 0);
      if (fs.read(fd, 64).substr(0, chunk.size()) != chunk) ++report.violations;
      fs.close(fd);
      kern.yield();
    }
    --active_workers;
  });

  // The adversary fires volleys of three back-to-back crashes into one
  // service at a time (no virtual time passes inside a volley).
  kern.thd_create("adversary", 5, [&] {
    Rng rng(config.seed ^ 0xb0b5);
    const char* targets[] = {"lock", "evt", "ramfs"};
    for (int volley = 0; volley < 6 && active_workers > 0; ++volley) {
      kern.block_current_until(kern.clock().now() + 300 + rng.next_below(150));
      if (active_workers == 0) break;
      const CompId target = sys.service_component(targets[volley % 3]).id();
      for (int shot = 0; shot < 3; ++shot) kern.inject_crash(target);
    }
  });

  try {
    kern.run();
    report.completed = true;
  } catch (const kernel::SystemCrash& crash) {
    report.crash = crash.what();
  }
  finalize(sys, sys.service_component("lock").id(), report);
  return report;
}

/// fault-in-recovery: with the eager (T0) recovery policy, an interposer on
/// the lock component's creation entry point throws a fail-stop fault the
/// next time it is dispatched *after the adversary arms it* -- which is
/// exactly the eager descriptor replay running on behalf of the previous
/// fault. The supervisor charges it as a fault during recovery and reboots
/// again; the coordinator defers the nested reboot and restarts its sweep.
StressReport run_fault_in_recovery(const StressConfig& config) {
  StressReport report;
  SystemConfig sys_config;
  sys_config.cores = 1;  // Golden-trace determinism.
  sys_config.seed = config.seed;
  sys_config.trace = config.trace || sys_config.trace;
  sys_config.policy = c3::RecoveryPolicy::kEager;
  report.policy = sys_config.supervision;  // Transparent: plain C3 reboots.

  System sys(sys_config);
  auto& kern = sys.kernel();
  auto& app_a = sys.create_app("lock-a");
  auto& app_b = sys.create_app("lock-b");
  auto& lock_comp = sys.lock();
  const CompId target = lock_comp.id();

  auto armed = std::make_shared<bool>(false);
  auto fired = std::make_shared<bool>(false);
  auto allocs = std::make_shared<int>(0);
  auto prev = std::make_shared<kernel::Component::Handler>();
  *prev = lock_comp.replace_fn(
      "lock_alloc", [armed, fired, allocs, target, prev](kernel::CallCtx& ctx,
                                                         const kernel::Args& args) -> Value {
        ++*allocs;
        if (*armed && !*fired) {
          *fired = true;
          throw kernel::ComponentFault(target, kernel::FaultKind::kInjected,
                                       "injected fault during descriptor replay");
        }
        return (*prev)(ctx, args);
      });

  constexpr int kRounds = 60;
  int done_workers = 0;
  for (int worker = 0; worker < 2; ++worker) {
    auto& app = worker == 0 ? app_a : app_b;
    kern.thd_create("lock-worker", 10, [&, worker] {
      components::LockClient lock(sys.invoker(app, "lock"), kern);
      // Two descriptors per client so the eager sweep has real replay work.
      // Each worker cycles its own lock (no cross-worker contention: the
      // check here is that every take/release succeeds across the nested
      // fault, i.e. replay reconstructed both apps' descriptors).
      const Value own = lock.alloc(app.id());
      const Value spare = lock.alloc(app.id());
      if (own <= 0 || spare <= 0) ++report.violations;
      for (int round = 0; round < kRounds; ++round) {
        if (lock.take(app.id(), own) != kernel::kOk) ++report.violations;
        kern.yield();
        if (lock.release(app.id(), own) != kernel::kOk) ++report.violations;
        kern.yield();
      }
      ++done_workers;
    });
  }

  kern.thd_create("adversary", 5, [&] {
    kern.block_current_until(kern.clock().now() + 150);
    *armed = true;  // The next lock_alloc dispatch is the eager replay.
    kern.inject_crash(target);
    // A later plain fault confirms recovery still works after the nested one.
    kern.block_current_until(kern.clock().now() + 120);
    if (done_workers < 2) kern.inject_crash(target);
  });

  try {
    kern.run();
    report.completed = true;
  } catch (const kernel::SystemCrash& crash) {
    report.crash = crash.what();
  }
  report.server_allocs = *allocs;
  finalize(sys, target, report);
  return report;
}

/// Field-wise sum for aggregating supervisor stats across episodes.
void add_stats(supervisor::Stats& into, const supervisor::Stats& from) {
  into.faults += from.faults;
  into.micro_reboots += from.micro_reboots;
  into.group_reboots += from.group_reboots;
  into.group_members_rebooted += from.group_members_rebooted;
  into.quarantines += from.quarantines;
  into.readmits += from.readmits;
  into.crash_loop_trips += from.crash_loop_trips;
  into.backoff_holds += from.backoff_holds;
  into.faults_during_recovery += from.faults_during_recovery;
}

/// independent-burst: every episode is a fresh cores>=2 machine where an
/// adversary fires simultaneous faults into lock and ramfs — two components
/// whose dependency closures are disjoint — while an untouched event-manager
/// workload keeps serving. A reboot-hook barrier stretches the first
/// recovery until the second one lands (bounded by a host timeout), so the
/// episode reliably exercises two concurrently held recovery domains; the
/// kernel's max_concurrent_recoveries high-water and the trace checker's
/// domain bracket count both prove the overlap.
StressReport run_independent_burst(const StressConfig& config) {
  StressReport report;
  report.policy = supervisor::Policy{};  // Transparent: plain C3 micro-reboots.
  report.completed = true;
  report.escalation_in_order = true;

  const int cores = std::max(2, config.cores);
  const int episodes = std::max(1, config.episodes);
  for (int ep = 0; ep < episodes; ++ep) {
    StressReport ep_report;
    SystemConfig sys_config;
    sys_config.cores = cores;
    sys_config.seed = config.seed + static_cast<std::uint64_t>(ep) * 0x9e3779b9u;
    sys_config.trace = config.trace || sys_config.trace;
    System sys(sys_config);
    auto& kern = sys.kernel();
    auto& lock_app = sys.create_app("lock-app");
    auto& fs_app = sys.create_app("fs-app");
    auto& evt_app_a = sys.create_app("evt-a");
    auto& evt_app_b = sys.create_app("evt-b");
    const CompId lock_id = sys.service_component("lock").id();
    const CompId ramfs_id = sys.service_component("ramfs").id();

    // Episode-shared state. Everything touched from more than one sim thread
    // is atomic (sim threads are host threads on distinct cores here) or
    // guarded by `mu`.
    auto mu = std::make_shared<std::mutex>();
    auto cv = std::make_shared<std::condition_variable>();
    auto in_recovery = std::make_shared<int>(0);  // Under mu.
    auto done = std::make_shared<std::atomic<bool>>(false);
    auto waiter_done = std::make_shared<std::atomic<bool>>(false);
    auto violations = std::make_shared<std::atomic<int>>(0);
    auto bystander_ops = std::make_shared<std::atomic<int>>(0);
    auto bystander_during = std::make_shared<std::atomic<int>>(0);

    // The overlap barrier: the first of the pair of recoveries dwells in its
    // reboot hook until the second arrives (its domain is disjoint, so the
    // kernel admits it concurrently). The timeout keeps a volley whose
    // partner fault never fired from stalling the episode, and the short
    // post-barrier dwell widens the window the bystander availability
    // counter samples.
    kern.add_reboot_hook([mu, cv, in_recovery, lock_id, ramfs_id](CompId comp) {
      if (comp != lock_id && comp != ramfs_id) return;
      std::unique_lock<std::mutex> hold(*mu);
      ++*in_recovery;
      if (*in_recovery >= 2) {
        cv->notify_all();
      } else {
        cv->wait_for(hold, std::chrono::milliseconds(250),
                     [&] { return *in_recovery >= 2; });
      }
      hold.unlock();
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
      hold.lock();
      --*in_recovery;
    });

    // Hammer workers on the two fault targets. Yield-driven (no virtual-time
    // blocking): a thread dwelling in the barrier above pins its core, so
    // the clock's idle-jump consensus never fires mid-volley; runnable
    // threads must not depend on time advancing to reach their target.
    kern.thd_create("lock-worker", 10, [&, violations, done] {
      components::LockClient lock(sys.invoker(lock_app, "lock"), kern);
      const Value id = lock.alloc(lock_app.id());
      if (id <= 0) violations->fetch_add(1);
      while (!done->load()) {
        if (lock.take(lock_app.id(), id) != kernel::kOk) violations->fetch_add(1);
        if (lock.release(lock_app.id(), id) != kernel::kOk) violations->fetch_add(1);
        kern.yield();
      }
    });
    kern.thd_create("fs-worker", 10, [&, violations, done] {
      components::FsClient fs(sys.invoker(fs_app, "ramfs"), sys.cbufs(), fs_app.id());
      for (int round = 0; !done->load(); ++round) {
        const Value fd = fs.open(800 + round % 4);
        const std::string chunk = "i" + std::to_string(round % 100) + ";";
        if (fs.write(fd, chunk) != static_cast<Value>(chunk.size())) violations->fetch_add(1);
        fs.lseek(fd, 0);
        if (fs.read(fd, 64).substr(0, chunk.size()) != chunk) violations->fetch_add(1);
        fs.close(fd);
        kern.yield();
      }
    });

    // The untouched bystander: an event-manager ping-pong whose components
    // (evt, sched) are outside both fault closures, so its requests must
    // keep completing while lock and ramfs recover. Ops that complete while
    // a recovery dwells in the barrier count as served-during-recovery.
    auto evtid = std::make_shared<std::atomic<Value>>(0);
    kern.thd_create("evt-waiter", 10, [&, violations, done, waiter_done, bystander_ops,
                                       bystander_during, in_recovery, mu, evtid] {
      components::EvtClient evt(sys.invoker(evt_app_a, "evt"));
      evtid->store(evt.split(evt_app_a.id()));
      while (!done->load()) {
        const Value got = evt.wait(evt_app_a.id(), evtid->load());
        if (got < 0) {
          violations->fetch_add(1);
          break;
        }
        bystander_ops->fetch_add(1);
        bool recovering;
        {
          std::lock_guard<std::mutex> guard(*mu);
          recovering = *in_recovery > 0;
        }
        if (recovering) bystander_during->fetch_add(1);
      }
      waiter_done->store(true);
    });
    kern.thd_create("evt-trigger", 10, [&, violations, waiter_done, evtid] {
      components::EvtClient evt(sys.invoker(evt_app_b, "evt"));
      kern.yield();
      // Keep feeding until the waiter has actually left its loop, so the
      // final wait is always released and the episode can drain.
      while (!waiter_done->load()) {
        const Value id = evtid->load();
        if (id > 0 && evt.trigger(evt_app_b.id(), id) != kernel::kOk) {
          violations->fetch_add(1);
        }
        kern.yield();
      }
    });

    // The adversaries: inject_crash vectors the fault *on the calling
    // thread* (the injector runs the whole recovery), so simultaneous
    // independent faults need one injector per target, released in lockstep
    // by a pacer. Each volley both injectors fire within a few host
    // microseconds of each other on different cores; the disjoint closures
    // mean the kernel admits both recoveries concurrently and the reboot-
    // hook barrier above makes them meet.
    constexpr int kVolleys = 4;
    auto volley = std::make_shared<std::atomic<int>>(0);
    auto acks = std::make_shared<std::atomic<int>>(0);
    for (const CompId target : {lock_id, ramfs_id}) {
      // Same priority as the workloads: every thread in this episode is
      // yield-driven, and the strict-priority scheduler would let a hotter-
      // priority spinner starve the bystander pipeline entirely.
      kern.thd_create("adversary", 10, [&, done, volley, acks, target] {
        int seen = 0;
        while (!done->load() && seen < kVolleys) {
          const int cur = volley->load();
          if (cur <= seen) {
            kern.yield();
            continue;
          }
          seen = cur;
          kern.inject_crash(target);
          acks->fetch_add(1);
        }
      });
    }
    kern.thd_create("pacer", 10, [&, done, volley, acks] {
      for (int round = 1; round <= kVolleys; ++round) {
        for (int spin = 0; spin < 120; ++spin) kern.yield();
        volley->store(round);
        while (acks->load() < 2 * round && !done->load()) kern.yield();
      }
      for (int spin = 0; spin < 200; ++spin) kern.yield();
      done->store(true);
    });

    try {
      kern.run();
      ep_report.completed = true;
    } catch (const kernel::SystemCrash& crash) {
      ep_report.crash = crash.what();
    }
    ep_report.violations = violations->load();
    finalize(sys, lock_id, ep_report);

    // Merge the episode into the aggregate report.
    ++report.episodes;
    if (ep_report.max_concurrent_recoveries >= 2) ++report.overlap_episodes;
    report.max_concurrent_recoveries =
        std::max(report.max_concurrent_recoveries, ep_report.max_concurrent_recoveries);
    report.trace_max_concurrent_domains =
        std::max(report.trace_max_concurrent_domains, ep_report.trace_max_concurrent_domains);
    report.bystander_ops += bystander_ops->load();
    report.bystander_ops_during_recovery += bystander_during->load();
    report.violations += ep_report.violations;
    add_stats(report.stats, ep_report.stats);
    report.reentrant_reboots += ep_report.reentrant_reboots;
    report.replay_restarts += ep_report.replay_restarts;
    report.total_reboots += ep_report.total_reboots;
    for (const std::string& violation : ep_report.trace_violations) {
      report.trace_violations.push_back("episode " + std::to_string(ep) + ": " + violation);
    }
    report.trace_truncated = report.trace_truncated || ep_report.trace_truncated;
    if (ep == 0) {
      report.trace_normalized = ep_report.trace_normalized;
      report.trace_chrome_json = ep_report.trace_chrome_json;
      report.events = ep_report.events;
    }
    if (!ep_report.completed) {
      report.completed = false;
      if (report.crash.empty()) {
        report.crash = "episode " + std::to_string(ep) + ": " + ep_report.crash;
      }
    }
  }
  return report;
}

}  // namespace

StressReport run_stress(StressMode mode, const StressConfig& config) {
  switch (mode) {
    case StressMode::kCrashLoop: return run_crash_loop(config);
    case StressMode::kBurst: return run_burst(config);
    case StressMode::kFaultInRecovery: return run_fault_in_recovery(config);
    case StressMode::kIndependentBurst: return run_independent_burst(config);
  }
  return {};
}

std::string format_stress_report(StressMode mode, const StressReport& report) {
  std::ostringstream oss;
  oss << "stress mode: " << to_string(mode) << "\n";
  TextTable table;
  table.add_row({"Counter", "Value"});
  const auto& stats = report.stats;
  table.add_row({"faults vectored", std::to_string(stats.faults)});
  table.add_row({"level-0 micro-reboots", std::to_string(stats.micro_reboots)});
  table.add_row({"level-1 group reboots", std::to_string(stats.group_reboots)});
  table.add_row({"  dependents in groups", std::to_string(stats.group_members_rebooted)});
  table.add_row({"level-2 quarantines", std::to_string(stats.quarantines)});
  table.add_row({"readmits", std::to_string(stats.readmits)});
  table.add_row({"crash-loop trips", std::to_string(stats.crash_loop_trips)});
  table.add_row({"backoff holds", std::to_string(stats.backoff_holds)});
  table.add_row({"faults during recovery", std::to_string(stats.faults_during_recovery)});
  table.add_row({"re-entrant reboots (coord)", std::to_string(report.reentrant_reboots)});
  table.add_row({"replay sweep restarts", std::to_string(report.replay_restarts)});
  table.add_row({"total micro-reboots", std::to_string(report.total_reboots)});
  table.add_row({"quarantine fail-fasts", std::to_string(report.quarantine_failfasts)});
  table.add_row({"post-readmit successes", std::to_string(report.post_readmit_successes)});
  table.add_row({"workload violations", std::to_string(report.violations)});
  if (mode == StressMode::kIndependentBurst) {
    table.add_row({"episodes", std::to_string(report.episodes)});
    table.add_row({"episodes with overlap", std::to_string(report.overlap_episodes)});
    table.add_row({"max concurrent recoveries", std::to_string(report.max_concurrent_recoveries)});
    table.add_row({"trace-proven concurrent domains",
                   std::to_string(report.trace_max_concurrent_domains)});
    table.add_row({"bystander ops served", std::to_string(report.bystander_ops)});
    table.add_row({"  ...during a recovery", std::to_string(report.bystander_ops_during_recovery)});
  }
  oss << table.render();
  oss << "escalation in order: " << (report.escalation_in_order ? "yes" : "NO") << "\n";
  oss << "completed: " << (report.completed ? "yes" : ("NO -- " + report.crash)) << "\n";
  return oss.str();
}

}  // namespace sg::swifi
