// Recovery-supervision benchmark: recovery latency (wall-clock cost of the
// fault-handling path on the host) and client-visible downtime (virtual
// microseconds between the fault and the client's next successful call) for
// each level of the supervisor's escalation chain:
//   level 0  micro-reboot       (transparent C3 recovery)
//   level 1  group reboot       (faulty component + transitive dependents,
//                                plus the crash-loop backoff hold)
//   level 2  quarantine         (fail-fast latency + readmit-to-service time)
// plus a partial-availability measurement: requests served by non-faulting
// components *during* another component's recovery window, with the cores=1
// serialized-recovery kernel as the baseline against cores>=2 recovery
// domains. Prints a table and a machine-readable JSON summary.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <algorithm>

#include "bench/bench_common.hpp"
#include "components/event_mgr.hpp"
#include "components/lock.hpp"
#include "components/system.hpp"
#include "components/trace_check.hpp"
#include "kernel/fault.hpp"
#include "supervisor/supervisor.hpp"
#include "trace/trace.hpp"

using sg::components::System;
using sg::components::SystemConfig;
using sg::kernel::Value;

namespace {

/// --trace=FILE: each escalation level runs on its own System, so each dumps
/// its own Chrome trace; the level name is spliced in before the extension
/// (out.json -> out.micro-reboot.json).
std::string g_trace_file;

void dump_level_trace(System& sys, const std::string& level) {
  if (g_trace_file.empty()) return;
  std::string path = g_trace_file;
  const auto dot = path.rfind('.');
  const std::string tag = "." + level;
  if (dot == std::string::npos) {
    path += tag;
  } else {
    path.insert(dot, tag);
  }
  sg::bench::write_trace_file(path, sg::components::capture_trace(sys).chrome_json);
}

struct LevelResult {
  std::string level;
  std::vector<double> recovery_wall_us;    ///< Host cost of the fault path.
  std::vector<double> downtime_virtual_us; ///< Fault -> next successful call.
};

sg::supervisor::Policy escalate_fast() {
  sg::supervisor::Policy policy;
  policy.loop_threshold = 1;  // Every fault trips...
  policy.trips_per_level = 1; // ...and every trip escalates one level.
  policy.loop_window = 1'000'000;
  policy.backoff_initial = 100;
  policy.backoff_max = 400;
  return policy;
}

/// Level 0: transparent supervision, repeated micro-reboots of the lock
/// service with a client redoing around each.
LevelResult bench_micro_reboot(int reps) {
  LevelResult result{"micro-reboot", {}, {}};
  SystemConfig config;  // Default policy: observe-only, plain C3 reboots.
  config.trace = !g_trace_file.empty();
  System sys(config);
  auto& kern = sys.kernel();
  auto& app = sys.create_app("app");
  kern.thd_create("client", 10, [&] {
    sg::components::LockClient lock(sys.invoker(app, "lock"), kern);
    const Value id = lock.alloc(app.id());
    for (int rep = 0; rep < reps; ++rep) {
      lock.take(app.id(), id);
      lock.release(app.id(), id);
      const sg::kernel::VirtualTime fault_at = kern.now();
      result.recovery_wall_us.push_back(
          sg::bench::time_us([&] { kern.inject_crash(sys.lock().id()); }));
      lock.take(app.id(), id);  // On-demand replay rebuilds the descriptor.
      lock.release(app.id(), id);
      result.downtime_virtual_us.push_back(static_cast<double>(kern.now() - fault_at));
    }
  });
  kern.run();
  dump_level_trace(sys, result.level);
  return result;
}

/// Level 1: one fault trips straight to a group reboot of mman + its
/// dependent ramfs; downtime includes the crash-loop backoff hold.
LevelResult bench_group_reboot(int reps) {
  LevelResult result{"group-reboot", {}, {}};
  for (int rep = 0; rep < reps; ++rep) {
    SystemConfig config;
    config.supervision = escalate_fast();
    config.trace = !g_trace_file.empty();
    System sys(config);
    auto& kern = sys.kernel();
    auto& app = sys.create_app("app");
    kern.thd_create("client", 10, [&] {
      sg::components::MmClient mm(sys.invoker(app, "mman"));
      const Value warm = mm.get_page(app.id(), 0x400000);
      mm.release_page(app.id(), warm);
      const sg::kernel::VirtualTime fault_at = kern.now();
      result.recovery_wall_us.push_back(
          sg::bench::time_us([&] { kern.inject_crash(sys.mman().id()); }));
      const Value page = mm.get_page(app.id(), 0x401000);  // Parks on the hold.
      mm.release_page(app.id(), page);
      result.downtime_virtual_us.push_back(static_cast<double>(kern.now() - fault_at));
    });
    kern.run();
    if (rep == reps - 1) dump_level_trace(sys, result.level);
  }
  return result;
}

/// Level 2: two faults quarantine the lock service. Recovery latency is the
/// fail-fast path (QuarantinedError instead of a parked client); downtime is
/// readmit() to the first successful call.
LevelResult bench_quarantine(int reps) {
  LevelResult result{"quarantine", {}, {}};
  for (int rep = 0; rep < reps; ++rep) {
    SystemConfig config;
    config.supervision = escalate_fast();
    config.trace = !g_trace_file.empty();
    System sys(config);
    auto& kern = sys.kernel();
    auto& app = sys.create_app("app");
    kern.thd_create("client", 10, [&] {
      sg::components::LockClient lock(sys.invoker(app, "lock"), kern);
      const Value id = lock.alloc(app.id());
      kern.inject_crash(sys.lock().id());  // Trip 1: group level.
      kern.inject_crash(sys.lock().id());  // Trip 2: quarantined.
      result.recovery_wall_us.push_back(sg::bench::time_us([&] {
        try {
          lock.take(app.id(), id);
        } catch (const sg::kernel::QuarantinedError&) {
          // Degraded mode: the client learns in one bounced call.
        }
      }));
      const sg::kernel::VirtualTime readmit_at = kern.now();
      sys.supervision().readmit(sys.lock().id());
      lock.take(app.id(), id);
      lock.release(app.id(), id);
      result.downtime_virtual_us.push_back(static_cast<double>(kern.now() - readmit_at));
    });
    kern.run();
    if (rep == reps - 1) dump_level_trace(sys, result.level);
  }
  return result;
}

struct AvailabilityResult {
  int cores = 1;
  int faults = 0;
  int bystander_ops = 0;     ///< Event-manager requests completed overall.
  int bystander_during = 0;  ///< ...completed inside a recovery window.
};

/// Partial availability: an injector crash-loops the lock service while an
/// untouched event-manager ping-pong runs beside it; a reboot-hook dwell
/// widens each recovery window enough to sample. At cores=1 recovery runs to
/// completion on the single runner — the serialized baseline where bystander
/// requests served during a window are zero by construction. At cores>=2 the
/// victim's recovery domain covers only its own closure, so the bystander
/// keeps completing requests mid-recovery.
AvailabilityResult bench_partial_availability(int cores, int faults) {
  AvailabilityResult result;
  result.cores = cores;
  result.faults = faults;
  SystemConfig config;
  config.cores = cores;
  System sys(config);
  auto& kern = sys.kernel();
  auto& lock_app = sys.create_app("lock-app");
  auto& evt_app_a = sys.create_app("evt-a");
  auto& evt_app_b = sys.create_app("evt-b");
  const sg::kernel::CompId victim = sys.lock().id();

  auto mu = std::make_shared<std::mutex>();
  auto in_recovery = std::make_shared<int>(0);
  auto done = std::make_shared<std::atomic<bool>>(false);
  auto waiter_done = std::make_shared<std::atomic<bool>>(false);
  auto ops = std::make_shared<std::atomic<int>>(0);
  auto during = std::make_shared<std::atomic<int>>(0);

  kern.add_reboot_hook([mu, in_recovery, victim](sg::kernel::CompId comp) {
    if (comp != victim) return;
    {
      std::lock_guard<std::mutex> hold(*mu);
      ++*in_recovery;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::lock_guard<std::mutex> hold(*mu);
    --*in_recovery;
  });

  // The victim's own client: keeps descriptors live so every reboot has real
  // replay work. Yield-driven, like everything here: a thread dwelling in
  // the hook pins its core, so nothing may depend on virtual time advancing.
  kern.thd_create("victim-client", 10, [&, done] {
    sg::components::LockClient lock(sys.invoker(lock_app, "lock"), kern);
    const Value id = lock.alloc(lock_app.id());
    while (!done->load()) {
      lock.take(lock_app.id(), id);
      lock.release(lock_app.id(), id);
      kern.yield();
    }
  });

  auto evtid = std::make_shared<std::atomic<Value>>(0);
  kern.thd_create("evt-waiter", 10, [&, done, waiter_done, ops, during, in_recovery, mu,
                                     evtid] {
    sg::components::EvtClient evt(sys.invoker(evt_app_a, "evt"));
    evtid->store(evt.split(evt_app_a.id()));
    while (!done->load()) {
      if (evt.wait(evt_app_a.id(), evtid->load()) < 0) break;
      ops->fetch_add(1);
      bool recovering;
      {
        std::lock_guard<std::mutex> hold(*mu);
        recovering = *in_recovery > 0;
      }
      if (recovering) during->fetch_add(1);
    }
    waiter_done->store(true);
  });
  kern.thd_create("evt-trigger", 10, [&, waiter_done, evtid] {
    sg::components::EvtClient evt(sys.invoker(evt_app_b, "evt"));
    kern.yield();
    while (!waiter_done->load()) {
      const Value id = evtid->load();
      if (id > 0) evt.trigger(evt_app_b.id(), id);
      kern.yield();
    }
  });

  kern.thd_create("injector", 10, [&, done, faults] {
    for (int fault = 0; fault < faults; ++fault) {
      for (int spin = 0; spin < 60; ++spin) kern.yield();
      kern.inject_crash(victim);
    }
    for (int spin = 0; spin < 120; ++spin) kern.yield();
    done->store(true);
  });

  kern.run();
  result.bystander_ops = ops->load();
  result.bystander_during = during->load();
  return result;
}

void print_json(const std::vector<LevelResult>& levels, int reps,
                const std::vector<AvailabilityResult>& availability) {
  std::printf("{\"bench\": \"recovery_supervision\", \"reps\": %d, \"levels\": [", reps);
  for (std::size_t i = 0; i < levels.size(); ++i) {
    double wall_mean, wall_stdev, down_mean, down_stdev;
    sg::bench::trimmed_stats(levels[i].recovery_wall_us, &wall_mean, &wall_stdev);
    sg::bench::trimmed_stats(levels[i].downtime_virtual_us, &down_mean, &down_stdev);
    std::printf("%s{\"level\": \"%s\", "
                "\"recovery_wall_us\": {\"mean\": %.3f, \"stdev\": %.3f}, "
                "\"client_downtime_virtual_us\": {\"mean\": %.2f, \"stdev\": %.2f}}",
                i == 0 ? "" : ", ", levels[i].level.c_str(), wall_mean, wall_stdev,
                down_mean, down_stdev);
  }
  std::printf("], \"partial_availability\": [");
  for (std::size_t i = 0; i < availability.size(); ++i) {
    const AvailabilityResult& avail = availability[i];
    std::printf("%s{\"cores\": %d, \"faults\": %d, \"bystander_ops\": %d, "
                "\"served_during_recovery\": %d}",
                i == 0 ? "" : ", ", avail.cores, avail.faults, avail.bystander_ops,
                avail.bystander_during);
  }
  std::printf("]}\n");
}

}  // namespace

int main(int argc, char** argv) {
  for (int arg = 1; arg < argc; ++arg) {
    if (std::strncmp(argv[arg], "--trace=", 8) == 0) g_trace_file = argv[arg] + 8;
  }
  sg::bench::banner("Recovery latency and client-visible downtime per escalation level",
                    "the supervision extension; see docs/SUPERVISION.md");
  const int reps = sg::bench::env_int("SG_REPS", 40);
  std::printf("reps per level: %d (override with SG_REPS)\n\n", reps);

  std::vector<LevelResult> levels;
  levels.push_back(bench_micro_reboot(reps));
  levels.push_back(bench_group_reboot(reps));
  levels.push_back(bench_quarantine(reps));

  std::printf("%-14s %26s %34s\n", "level", "recovery wall us (mean/sd)",
              "client downtime virtual us (mean/sd)");
  for (const auto& level : levels) {
    double wall_mean, wall_stdev, down_mean, down_stdev;
    sg::bench::trimmed_stats(level.recovery_wall_us, &wall_mean, &wall_stdev);
    sg::bench::trimmed_stats(level.downtime_virtual_us, &down_mean, &down_stdev);
    std::printf("%-14s %18.3f / %.3f %26.2f / %.2f\n", level.level.c_str(), wall_mean,
                wall_stdev, down_mean, down_stdev);
  }
  std::printf("\n(level-1 downtime includes the crash-loop backoff hold; level-2 recovery\n"
              "latency is the fail-fast bounce, downtime is readmit-to-first-success.)\n\n");

  // Partial availability: the serialized cores=1 baseline vs recovery
  // domains at cores>=2 (the same injected fault count and hook dwell).
  const int avail_faults = std::min(10, std::max(1, reps / 4));
  const int domain_cores = std::max(2, sg::bench::env_int("SG_CORES", 4));
  std::vector<AvailabilityResult> availability;
  availability.push_back(bench_partial_availability(1, avail_faults));
  availability.push_back(bench_partial_availability(domain_cores, avail_faults));
  std::printf("%-26s %10s %16s %22s\n", "partial availability", "faults", "bystander ops",
              "served during recovery");
  for (const auto& avail : availability) {
    const std::string label = avail.cores == 1 ? "cores=1 (serialized)"
                                               : "cores=" + std::to_string(avail.cores) +
                                                     " (recovery domains)";
    std::printf("%-26s %10d %16d %22d\n", label.c_str(), avail.faults, avail.bystander_ops,
                avail.bystander_during);
  }
  std::printf("\n(bystander = event-manager ping-pong outside the victim's dependency\n"
              "closure; 'during recovery' counts its requests completed while the lock\n"
              "service's recovery window was open.)\n\n");
  print_json(levels, reps, availability);
  return 0;
}
