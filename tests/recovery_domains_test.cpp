// Recovery-domain tests: scoped fault containment at cores>1. A fault claims
// the D0/D1 dependency closure of the faulting component ({comp} union
// dependents_of(comp)); faults whose closures are disjoint are detected,
// contained and micro-rebooted *concurrently* on different cores while
// components outside every active domain keep serving. Overlapping closures,
// group reboots and storage rebuilds escalate to the whole machine. At
// cores=1 the domains degenerate to the global recovery token, so seeded
// runs stay bit-identical to the single-runner kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "components/event_mgr.hpp"
#include "components/lock.hpp"
#include "components/ramfs.hpp"
#include "components/system.hpp"
#include "swifi/stress.hpp"
#include "swifi/swifi.hpp"
#include "test_util.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace sg {
namespace {

using components::System;
using components::SystemConfig;
using kernel::CompId;
using kernel::Value;

std::set<CompId> as_set(const std::vector<CompId>& ids) {
  return std::set<CompId>(ids.begin(), ids.end());
}

// --- closure computation ----------------------------------------------------

// The supervisor's dependents_of is the domain resolver the System wires into
// the kernel, so the claimed closure is exactly {comp} + dependents_of(comp).
// Pin the shape of the reference machine's graph: the blocking services hang
// off sched, ramfs hangs off mman, and leaves have singleton closures.
TEST(RecoveryDomains, ClosureMatchesDependencyGraph) {
  SystemConfig config;
  config.cores = 1;
  System sys(config);
  auto& sup = sys.supervision();

  const CompId sched = sys.service_component("sched").id();
  const CompId lock = sys.service_component("lock").id();
  const CompId mman = sys.service_component("mman").id();
  const CompId ramfs = sys.service_component("ramfs").id();
  const CompId evt = sys.service_component("evt").id();
  const CompId tmr = sys.service_component("tmr").id();

  EXPECT_EQ(as_set(sup.dependents_of(sched)), (std::set<CompId>{lock, evt, tmr}));
  EXPECT_EQ(as_set(sup.dependents_of(mman)), (std::set<CompId>{ramfs}));
  for (const CompId leaf : {lock, ramfs, evt, tmr}) {
    EXPECT_TRUE(sup.dependents_of(leaf).empty()) << "leaf " << leaf;
  }

  // Disjointness the concurrency tests rely on: closure(lock) and
  // closure(ramfs) share no component.
  std::set<CompId> lock_closure = as_set(sup.dependents_of(lock));
  lock_closure.insert(lock);
  std::set<CompId> ramfs_closure = as_set(sup.dependents_of(ramfs));
  ramfs_closure.insert(ramfs);
  std::vector<CompId> shared;
  std::set_intersection(lock_closure.begin(), lock_closure.end(), ramfs_closure.begin(),
                        ramfs_closure.end(), std::back_inserter(shared));
  EXPECT_TRUE(shared.empty());
}

// The kernel-side closure (the kDomainAcquire event's `a` payload is the
// claimed closure size) must agree with the supervisor graph: sched claims
// itself + its three dependents, a leaf claims only itself.
TEST(RecoveryDomains, TraceReportsClosureSize) {
  for (const auto& [service, want_size] :
       std::vector<std::pair<std::string, int>>{{"sched", 4}, {"mman", 2}, {"lock", 1}}) {
    SystemConfig config;
    config.cores = 2;
    config.trace = true;
    System sys(config);
    auto& kern = sys.kernel();
    const CompId target = sys.service_component(service).id();
    kern.thd_create("injector", 10, [&] { kern.inject_crash(target); });
    kern.run();

    const auto acquires = kern.tracer().snapshot().of_kind(trace::EventKind::kDomainAcquire);
    ASSERT_FALSE(acquires.empty()) << service;
    EXPECT_EQ(acquires.front().comp, target) << service;
    EXPECT_EQ(acquires.front().a, want_size) << service;
    const auto releases = kern.tracer().snapshot().of_kind(trace::EventKind::kDomainRelease);
    EXPECT_EQ(acquires.size(), releases.size()) << service;
  }
}

// --- ordered acquisition: no deadlock under adversarial overlap -------------

// Several injector threads hammer components whose closures all overlap
// (sched's closure covers lock/evt/tmr; mman's covers ramfs). Every claim
// either wins the whole closure or escalates to the machine — there is no
// hold-and-wait, so the storm must terminate with every fault recovered and
// the trace invariants clean.
TEST(RecoveryDomains, AdversarialOverlapDoesNotDeadlock) {
  SystemConfig config;
  config.cores = 4;
  config.seed = 2016;
  System sys(config);
  test::TraceCheck trace_check(sys, "domains_adversarial_overlap");
  auto& kern = sys.kernel();

  constexpr int kRounds = 5;
  const std::vector<std::vector<std::string>> plans = {
      {"sched", "lock"}, {"lock", "sched"}, {"mman", "ramfs"}, {"ramfs", "evt"}};
  auto started = std::make_shared<std::atomic<int>>(0);
  for (const auto& plan : plans) {
    std::vector<CompId> targets;
    for (const auto& service : plan) targets.push_back(sys.service_component(service).id());
    kern.thd_create("overlap-adversary", 10, [&kern, targets, started] {
      started->fetch_add(1);
      // Rough start barrier so the volleys actually contend.
      while (started->load() < 4) kern.yield();
      for (int round = 0; round < kRounds; ++round) {
        for (const CompId target : targets) {
          kern.inject_crash(target);
          kern.yield();
        }
      }
    });
  }
  kern.run();

  EXPECT_GE(kern.total_reboots(), static_cast<int>(plans.size()) * kRounds);
}

// --- escalation to the whole machine ----------------------------------------

// A fresh fault whose closure overlaps an already-claimed domain must not
// carve out a partial claim: it escalates (kDomainEscalate reason=overlap,
// seq=0 because nothing was acquired yet) and then recovers under the whole
// machine. The first recovery dwells in its reboot hook so the second fault
// reliably lands while the domain is held.
TEST(RecoveryDomains, OverlappingClosureEscalatesToMachine) {
  SystemConfig config;
  config.cores = 2;
  config.trace = true;
  System sys(config);
  auto& kern = sys.kernel();
  const CompId mman = sys.service_component("mman").id();
  const CompId ramfs = sys.service_component("ramfs").id();

  auto first_held = std::make_shared<std::atomic<bool>>(false);
  auto second_done = std::make_shared<std::atomic<bool>>(false);
  kern.add_reboot_hook([mman, first_held, second_done](CompId comp) {
    if (comp != mman) return;
    first_held->store(true);
    // Dwell while the overlapping fault arrives; bounded so a missed rendez-
    // vous cannot hang the test.
    for (int spin = 0; spin < 200 && !second_done->load(); ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  kern.thd_create("first-fault", 10, [&kern, mman] { kern.inject_crash(mman); });
  kern.thd_create("second-fault", 10, [&kern, ramfs, first_held, second_done] {
    while (!first_held->load()) kern.yield();
    kern.inject_crash(ramfs);  // closure(ramfs) is inside closure(mman): overlap.
    second_done->store(true);
  });
  kern.run();

  const auto snap = kern.tracer().snapshot();
  const auto escalations = snap.of_kind(trace::EventKind::kDomainEscalate);
  bool saw_overlap = false;
  for (const auto& ev : escalations) {
    if (ev.a == kernel::Kernel::kEscalateOverlap && ev.comp == ramfs && ev.d == 0) {
      saw_overlap = true;
    }
  }
  EXPECT_TRUE(saw_overlap) << "expected a reason=overlap escalation for ramfs";
  bool saw_machine_acquire = false;
  for (const auto& ev : snap.of_kind(trace::EventKind::kDomainAcquire)) {
    if (ev.a == 0) saw_machine_acquire = true;  // a=0: whole-machine claim.
  }
  EXPECT_TRUE(saw_machine_acquire);
}

// A supervisor group reboot tears down a whole dependency subtree, so it
// never runs under a scoped domain: the supervisor escalates first
// (kDomainEscalate reason=group-reboot).
TEST(RecoveryDomains, GroupRebootEscalatesToMachine) {
  SystemConfig config;
  config.cores = 2;
  config.trace = true;
  config.supervision.loop_threshold = 1;
  config.supervision.loop_window = 1000000;
  config.supervision.trips_per_level = 1;
  config.supervision.backoff_initial = 0;
  System sys(config);
  auto& kern = sys.kernel();
  const CompId mman = sys.service_component("mman").id();

  kern.thd_create("crash-loop", 10, [&kern, mman] {
    // trips_per_level=1: the second trip moves the escalation ladder to
    // group reboot.
    for (int shot = 0; shot < 4; ++shot) {
      kern.inject_crash(mman);
      kern.yield();
    }
  });
  kern.run();

  bool saw_group = false;
  for (const auto& ev : kern.tracer().snapshot().of_kind(trace::EventKind::kDomainEscalate)) {
    if (ev.a == kernel::Kernel::kEscalateGroupReboot) saw_group = true;
  }
  EXPECT_TRUE(saw_group) << "expected a reason=group-reboot escalation";
  EXPECT_GE(sys.supervision().stats().group_reboots, 1);
}

// --- trace-proven concurrent recoveries -------------------------------------

// The headline property: a 4-core episode with simultaneous faults in two
// disjoint closures recovers them concurrently — proven both by the kernel's
// high-water counter and by the invariant checker walking the domain events
// in the trace — with zero invariant violations and the untouched event
// service still completing requests mid-recovery.
TEST(RecoveryDomains, IndependentBurstOverlapsOnFourCores) {
  swifi::StressConfig config;
  config.seed = 2016;
  config.trace = true;
  config.cores = 4;
  config.episodes = 2;
  const swifi::StressReport report =
      swifi::run_stress(swifi::StressMode::kIndependentBurst, config);

  EXPECT_TRUE(report.completed);
  EXPECT_TRUE(report.crash.empty()) << report.crash;
  EXPECT_EQ(report.violations, 0);
  for (const auto& violation : report.trace_violations) ADD_FAILURE() << violation;
  EXPECT_GE(report.overlap_episodes, 1);
  EXPECT_GE(report.max_concurrent_recoveries, 2);
  EXPECT_GE(report.trace_max_concurrent_domains, 2);
  EXPECT_GT(report.bystander_ops, 0);
  EXPECT_GE(report.stats.faults, 2 * config.episodes);
}

// --- cores=1 degeneration ----------------------------------------------------

// With one core the domain table degenerates to the global recovery token:
// no domain events are emitted and seeded runs are reproducible byte for
// byte. Two identical runs of the (cores=1-pinned) burst campaign must
// produce identical normalized traces, and a seeded Table II campaign must
// format identically across runs and worker counts.
TEST(RecoveryDomains, CoresOneRunsAreByteIdentical) {
  swifi::StressConfig config;
  config.seed = 2016;
  config.trace = true;
  const swifi::StressReport a = swifi::run_stress(swifi::StressMode::kBurst, config);
  const swifi::StressReport b = swifi::run_stress(swifi::StressMode::kBurst, config);
  ASSERT_FALSE(a.trace_normalized.empty());
  EXPECT_EQ(a.trace_normalized, b.trace_normalized);
  EXPECT_EQ(a.trace_normalized.find("domain"), std::string::npos)
      << "cores=1 traces must not contain domain events";

  campaign::Config campaign_config;
  campaign_config.master_seed = 2016;
  campaign_config.injections_per_cell = 6;
  campaign_config.workload_iterations = 0;  // Table II's 400-iteration workloads.
  campaign_config.workers = 1;
  const std::string table_a = campaign::format_table(campaign::run(campaign_config));
  campaign_config.workers = 2;
  const std::string table_b = campaign::format_table(campaign::run(campaign_config));
  EXPECT_EQ(table_a, table_b);
}

// --- chaos storm with overlapping independent faults ------------------------

// Full-service workloads at 4 cores while adversaries fire faults into a mix
// of disjoint (lock vs ramfs/evt) and overlapping (mman vs ramfs) closures.
// Every operation's result is checked and the TraceCheck guard runs the
// invariant checker (including the no-overlapping-domains invariant) over
// the whole storm.
TEST(RecoveryDomains, ChaosStormWithOverlappingIndependentFaults) {
  SystemConfig config;
  config.cores = 4;
  config.seed = 77;
  System sys(config);
  test::TraceCheck trace_check(sys, "domains_chaos_storm");
  auto& kern = sys.kernel();

  auto& lock_app = sys.create_app("lock-app");
  auto& fs_app = sys.create_app("fs-app");
  auto& evt_app_a = sys.create_app("evt-a");
  auto& evt_app_b = sys.create_app("evt-b");

  auto done = std::make_shared<std::atomic<bool>>(false);
  auto waiter_done = std::make_shared<std::atomic<bool>>(false);
  auto violations = std::make_shared<std::atomic<int>>(0);

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
      const Value fd = fs.open(700 + round % 3);
      const std::string chunk = "c" + std::to_string(round % 100) + ";";
      if (fs.write(fd, chunk) != static_cast<Value>(chunk.size())) violations->fetch_add(1);
      fs.lseek(fd, 0);
      if (fs.read(fd, 64).substr(0, chunk.size()) != chunk) violations->fetch_add(1);
      fs.close(fd);
      kern.yield();
    }
  });
  auto evtid = std::make_shared<std::atomic<Value>>(0);
  kern.thd_create("evt-waiter", 10, [&, violations, done, waiter_done, evtid] {
    components::EvtClient evt(sys.invoker(evt_app_a, "evt"));
    evtid->store(evt.split(evt_app_a.id()));
    while (!done->load()) {
      if (evt.wait(evt_app_a.id(), evtid->load()) < 0) {
        violations->fetch_add(1);
        break;
      }
    }
    waiter_done->store(true);
  });
  kern.thd_create("evt-trigger", 10, [&, violations, waiter_done, evtid] {
    components::EvtClient evt(sys.invoker(evt_app_b, "evt"));
    kern.yield();
    while (!waiter_done->load()) {
      const Value id = evtid->load();
      if (id > 0 && evt.trigger(evt_app_b.id(), id) != kernel::kOk) violations->fetch_add(1);
      kern.yield();
    }
  });

  // Two adversaries with seeded per-thread RNGs: between them the storm fires
  // disjoint pairs (lock vs ramfs, evt vs tmr) and overlapping pairs (mman vs
  // ramfs) from different cores at once. Every thread shares one priority —
  // the strict-priority scheduler would let a hotter yield-spinner starve
  // the workers entirely.
  std::vector<std::string> storm = {"lock", "mman", "ramfs", "evt", "tmr"};
  std::vector<CompId> storm_ids;
  for (const auto& service : storm) storm_ids.push_back(sys.service_component(service).id());
  auto remaining = std::make_shared<std::atomic<int>>(2);
  for (int adversary = 0; adversary < 2; ++adversary) {
    kern.thd_create("chaos-adversary", 10, [&, done, remaining, storm_ids, adversary] {
      Rng rng(config.seed ^ (0xadd00 + static_cast<std::uint64_t>(adversary)));
      for (int shot = 0; shot < 10; ++shot) {
        for (int spin = 0; spin < 30; ++spin) kern.yield();
        kern.inject_crash(storm_ids[rng.next_below(storm_ids.size())]);
      }
      if (remaining->fetch_sub(1) == 1) {
        for (int spin = 0; spin < 150; ++spin) kern.yield();
        done->store(true);
      }
    });
  }
  kern.run();

  EXPECT_EQ(violations->load(), 0);
  EXPECT_GE(kern.total_reboots(), 20);
  EXPECT_GE(kern.max_concurrent_recoveries(), 1);
}

}  // namespace
}  // namespace sg
