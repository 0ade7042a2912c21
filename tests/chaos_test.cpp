// Whole-system chaos test: several application threads use ALL six system
// services concurrently while an adversary crashes a random system component
// every few virtual microseconds. Every operation's result is checked; the
// run must complete with zero invariant violations. This is the closest
// in-tree approximation of "run the whole OS under a fault storm".

#include <gtest/gtest.h>

#include "c3/storage.hpp"
#include "c3stubs/c3_stubs.hpp"
#include "components/system.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace sg {
namespace {

using components::FtMode;
using components::System;
using components::SystemConfig;
using kernel::Value;

struct ChaosCase {
  std::uint64_t seed;
  FtMode mode;
};

/// The ctest name suffix (`SG_101`); without it gtest prints the struct's
/// bytes, padding included, and the names would change from build to build.
void PrintTo(const ChaosCase& param, std::ostream* os) {
  *os << (param.mode == FtMode::kC3 ? "C3_" : "SG_") << param.seed;
}

class ChaosTest : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(ChaosTest, EverythingEverywhereAllAtOnce) {
  SystemConfig config;
  config.seed = GetParam().seed;
  config.mode = GetParam().mode;
  System sys(config);
  test::TraceCheck trace_check(sys, "chaos_storm_" + std::to_string(config.seed));
  if (config.mode == FtMode::kC3) c3stubs::install_c3_stubs(sys);
  auto& kern = sys.kernel();

  auto& fs_app = sys.create_app("fs-app");
  auto& lock_app = sys.create_app("lock-app");
  auto& evt_app_a = sys.create_app("evt-a");
  auto& evt_app_b = sys.create_app("evt-b");
  auto& mm_app = sys.create_app("mm-app");

  int violations = 0;
  bool done = false;
  constexpr int kRounds = 120;

  // --- file worker: write/readback cycles over 4 files ----------------------
  kern.thd_create("fs-worker", 10, [&] {
    components::FsClient fs(sys.invoker(fs_app, "ramfs"), sys.cbufs(), fs_app.id());
    std::map<Value, std::string> oracle;
    for (int round = 0; round < kRounds; ++round) {
      const Value pathid = 900 + round % 4;
      const Value fd = fs.open(pathid);
      const std::string chunk = "r" + std::to_string(round) + ";";
      if (fs.write(fd, chunk) != static_cast<Value>(chunk.size())) ++violations;
      oracle[pathid] += chunk;  // Opens start at offset 0... overwrite semantics:
      // each open rewrites from 0, so the oracle keeps only the longest prefix
      // written this round onwards; simplest exact model: rewrite fully.
      oracle[pathid] = chunk + (oracle[pathid].size() > chunk.size()
                                    ? oracle[pathid].substr(chunk.size())
                                    : "");
      fs.lseek(fd, 0);
      const std::string got = fs.read(fd, 64);
      if (got.substr(0, chunk.size()) != chunk) ++violations;
      fs.close(fd);
      kern.yield();
    }
  });

  // --- lock workers: mutual exclusion under crash storm ----------------------
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
        if (lock->take(lock_app.id(), *lock_id) != kernel::kOk) ++violations;
        if (++*in_critical != 1) ++violations;
        kern.yield();
        --*in_critical;
        if (lock->release(lock_app.id(), *lock_id) != kernel::kOk) ++violations;
        kern.yield();
      }
    });
  }

  // --- event pipeline: exact trigger accounting ------------------------------
  auto evtid = std::make_shared<Value>(0);
  kern.thd_create("evt-waiter", 10, [&] {
    components::EvtClient evt(sys.invoker(evt_app_a, "evt"));
    *evtid = evt.split(evt_app_a.id());
    Value total = 0;
    while (total < kRounds) {
      const Value got = evt.wait(evt_app_a.id(), *evtid);
      if (got < 0) {
        ++violations;
        break;
      }
      total += got;
    }
    if (total != kRounds) ++violations;
  });
  kern.thd_create("evt-trigger", 11, [&] {
    components::EvtClient evt(sys.invoker(evt_app_b, "evt"));
    kern.yield();
    for (int round = 0; round < kRounds; ++round) {
      if (evt.trigger(evt_app_b.id(), *evtid) != kernel::kOk) ++violations;
      kern.yield();
    }
  });

  // --- memory worker: alias + revoke cycles -----------------------------------
  kern.thd_create("mm-worker", 10, [&] {
    components::MmClient mm(sys.invoker(mm_app, "mman"));
    for (int round = 0; round < kRounds; ++round) {
      const Value root = mm.get_page(mm_app.id(), 0x400000 + (round % 8) * 0x1000);
      const Value alias = mm.alias_page(mm_app.id(), root, fs_app.id(), 0x600000 + (round % 8) * 0x1000);
      if (root <= 0 || alias <= 0) ++violations;
      if (mm.touch(mm_app.id(), root) != mm.touch(mm_app.id(), alias)) ++violations;
      if (mm.release_page(mm_app.id(), root) != kernel::kOk) ++violations;
      kern.yield();
    }
    done = true;
  });

  // --- the adversary ------------------------------------------------------------
  kern.thd_create("chaos", 5, [&] {
    Rng rng(GetParam().seed ^ 0xc4a05);
    const auto& services = sys.service_names();
    while (!done) {
      kern.block_current_until(kern.now() + 40 + rng.next_below(80));
      if (done) break;
      // Avoid crashing the scheduler in this storm: the §V campaign isolates
      // it; here every other service crashes while *in use* by many threads.
      const auto& service = services[1 + rng.next_below(services.size() - 1)];
      kern.inject_crash(sys.service_component(service).id());
    }
  });

  kern.run();
  EXPECT_EQ(violations, 0);
  EXPECT_GT(kern.total_reboots(), 5);  // The storm actually happened.
}

TEST_P(ChaosTest, BackToBackBurstFaults) {
  // Same machine, but the adversary fires *volleys*: three crashes into the
  // same service with no virtual time between them (correlated faults), then
  // a quiet period. Recovery must absorb the whole volley — including faults
  // landing while the previous reboot's recovery is still in flight.
  SystemConfig config;
  config.seed = GetParam().seed;
  config.mode = GetParam().mode;
  System sys(config);
  test::TraceCheck trace_check(sys, "chaos_burst_" + std::to_string(config.seed));
  if (config.mode == FtMode::kC3) c3stubs::install_c3_stubs(sys);
  auto& kern = sys.kernel();

  auto& lock_app = sys.create_app("lock-app");
  auto& evt_app_a = sys.create_app("evt-a");
  auto& evt_app_b = sys.create_app("evt-b");

  int violations = 0;
  bool done = false;
  constexpr int kRounds = 100;

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
        if (lock->take(lock_app.id(), *lock_id) != kernel::kOk) ++violations;
        if (++*in_critical != 1) ++violations;
        kern.yield();
        --*in_critical;
        if (lock->release(lock_app.id(), *lock_id) != kernel::kOk) ++violations;
        kern.yield();
      }
    });
  }

  auto evtid = std::make_shared<Value>(0);
  kern.thd_create("evt-waiter", 10, [&] {
    components::EvtClient evt(sys.invoker(evt_app_a, "evt"));
    *evtid = evt.split(evt_app_a.id());
    Value total = 0;
    while (total < kRounds) {
      const Value got = evt.wait(evt_app_a.id(), *evtid);
      if (got < 0) {
        ++violations;
        break;
      }
      total += got;
    }
    if (total != kRounds) ++violations;
  });
  kern.thd_create("evt-trigger", 11, [&] {
    components::EvtClient evt(sys.invoker(evt_app_b, "evt"));
    kern.yield();
    for (int round = 0; round < kRounds; ++round) {
      if (evt.trigger(evt_app_b.id(), *evtid) != kernel::kOk) ++violations;
      kern.yield();
    }
    done = true;
  });

  kern.thd_create("burst-adversary", 5, [&] {
    Rng rng(GetParam().seed ^ 0xbb5d);
    const char* targets[] = {"lock", "evt"};
    while (!done) {
      kern.block_current_until(kern.now() + 120 + rng.next_below(120));
      if (done) break;
      const auto target = sys.service_component(targets[rng.next_below(2)]).id();
      for (int shot = 0; shot < 3; ++shot) kern.inject_crash(target);
    }
  });

  kern.run();
  EXPECT_EQ(violations, 0);
  EXPECT_GT(kern.total_reboots(), 5);
}

TEST_P(ChaosTest, StorageFaultsConcurrentWithServiceRecovery) {
  // The recovery substrate itself is in the blast radius: the adversary
  // crashes the *storage component* interleaved with the services that depend
  // on it for G0/G1, so storage rebuilds race with in-flight service
  // recoveries. Lock invariants stay strict (mutual exclusion never depends
  // on G1 data); file data losses are tolerated only when the coordinator
  // explicitly flagged the recovery as degraded (docs/STORAGE.md).
  SystemConfig config;
  config.seed = GetParam().seed;
  config.mode = GetParam().mode;
  System sys(config);
  test::TraceCheck trace_check(sys, "chaos_storage_" + std::to_string(config.seed));
  if (config.mode == FtMode::kC3) c3stubs::install_c3_stubs(sys);
  auto& kern = sys.kernel();

  auto& fs_app = sys.create_app("fs-app");
  auto& lock_app = sys.create_app("lock-app");

  int violations = 0;
  int data_losses = 0;
  bool done = false;
  constexpr int kRounds = 120;

  kern.thd_create("fs-worker", 10, [&] {
    components::FsClient fs(sys.invoker(fs_app, "ramfs"), sys.cbufs(), fs_app.id());
    for (int round = 0; round < kRounds; ++round) {
      const Value pathid = 700 + round % 4;
      const Value fd = fs.open(pathid);
      const std::string chunk = "s" + std::to_string(round) + ";";
      const Value wrote = fs.write(fd, chunk);
      if (wrote != static_cast<Value>(chunk.size())) {
        // kErrNoEnt here means both the ramfs map and the G1 copy were lost
        // to back-to-back faults — allowed, but only as a *flagged* loss.
        ++data_losses;
        fs.close(fd);
        kern.yield();
        continue;
      }
      fs.lseek(fd, 0);
      if (fs.read(fd, 64).substr(0, chunk.size()) != chunk) ++data_losses;
      fs.close(fd);
      kern.yield();
    }
  });

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
        if (lock->take(lock_app.id(), *lock_id) != kernel::kOk) ++violations;
        if (++*in_critical != 1) ++violations;
        kern.yield();
        --*in_critical;
        if (lock->release(lock_app.id(), *lock_id) != kernel::kOk) ++violations;
        kern.yield();
      }
      if (worker == 1) done = true;
    });
  }

  kern.thd_create("storage-adversary", 5, [&] {
    Rng rng(GetParam().seed ^ 0x57a6e);
    const char* targets[] = {"storage", "storage", "ramfs", "lock"};
    while (!done) {
      kern.block_current_until(kern.now() + 60 + rng.next_below(100));
      if (done) break;
      kern.inject_crash(sys.service_component(targets[rng.next_below(4)]).id());
      // Half the time, follow up immediately: a service fault with the
      // substrate's rebuild still fresh (or vice versa) is the racy window.
      if (rng.chance(0.5)) {
        kern.inject_crash(sys.service_component(targets[rng.next_below(4)]).id());
      }
    }
  });

  kern.run();
  EXPECT_EQ(violations, 0);
  if (data_losses > 0) {
    EXPECT_TRUE(sys.coordinator().degraded())
        << data_losses << " silent data losses without a degraded flag";
  }
  EXPECT_GT(kern.total_reboots(), 5);
  EXPECT_GT(sys.coordinator().storage_rebuilds(), 0);
}

INSTANTIATE_TEST_SUITE_P(Storm, ChaosTest,
                         ::testing::Values(ChaosCase{101, FtMode::kSuperGlue},
                                           ChaosCase{202, FtMode::kSuperGlue},
                                           ChaosCase{303, FtMode::kSuperGlue},
                                           ChaosCase{404, FtMode::kC3},
                                           ChaosCase{505, FtMode::kC3}));

}  // namespace
}  // namespace sg
