// Tests for the fault-tolerant recovery substrate: checksummed G0/G1 records
// with evict-on-mismatch, the scrub() audit, G0 re-materialization after a
// fault in the storage component itself, lazy G1 repopulation, the degraded
// recovery flag, and the storage-targeted SWIFI column (docs/STORAGE.md).

#include <gtest/gtest.h>

#include "c3/cbuf.hpp"
#include "c3/storage.hpp"
#include "campaign/campaign.hpp"
#include "components/ramfs.hpp"
#include "components/system.hpp"
#include "swifi/swifi.hpp"
#include "test_util.hpp"
#include "trace/invariants.hpp"

namespace sg {
namespace {

using c3::CbufManager;
using c3::StorageComponent;
using components::System;
using components::SystemConfig;
using kernel::Value;

// ---------------------------------------------------------------------------
// Integrity: checksums, eviction, scrub (standalone component).
// ---------------------------------------------------------------------------

struct Standalone {
  kernel::Kernel kern;
  CbufManager cbufs{kern};
  StorageComponent storage{kern, cbufs};
};

StorageComponent::DescRecord make_record(kernel::CompId creator, Value parent) {
  StorageComponent::DescRecord record;
  record.creator = creator;
  record.parent_desc = parent;
  record.meta["grp"] = 7;
  return record;
}

TEST(StorageIntegrityTest, CorruptDescIsEvictedOnLookup) {
  Standalone box;
  auto& st = box.storage;
  const c3::NsId svc = st.intern_ns("svc");
  st.record_desc(svc, 10, make_record(3, 1));
  ASSERT_TRUE(st.lookup_desc(svc, 10).has_value());

  ASSERT_TRUE(st.corrupt_desc("svc", 10));
  const auto after = st.lookup_desc(svc, 10);
  EXPECT_FALSE(after.has_value());  // Evicted, reported as a miss.
  EXPECT_EQ(st.desc_count(svc), 0u);  // Gone, not resurrected.
  EXPECT_EQ(st.stats().desc_evictions, 1u);
  EXPECT_EQ(st.stats().data_evictions, 0u);
}

TEST(StorageIntegrityTest, CorruptDataIsEvictedOnFetch) {
  Standalone box;
  auto& st = box.storage;
  const c3::NsId svc = st.intern_ns("svc");
  st.store_data(svc, 44, {0, 128, 9});
  ASSERT_TRUE(st.fetch_data(svc, 44).has_value());

  ASSERT_TRUE(st.corrupt_data("svc", 44));
  EXPECT_FALSE(st.fetch_data(svc, 44).has_value());
  EXPECT_EQ(st.data_count(svc), 0u);
  EXPECT_EQ(st.stats().data_evictions, 1u);
}

TEST(StorageIntegrityTest, IntactRecordsSurviveReads) {
  Standalone box;
  auto& st = box.storage;
  const c3::NsId svc = st.intern_ns("svc");
  st.record_desc(svc, 1, make_record(2, 0));
  st.store_data(svc, 1, {4, 16, 3});
  for (int i = 0; i < 3; ++i) {
    const auto desc = st.lookup_desc(svc, 1);
    ASSERT_TRUE(desc.has_value());
    EXPECT_EQ(desc->creator, 2);
    EXPECT_EQ(desc->meta.at("grp"), 7);
    const auto slice = st.fetch_data(svc, 1);
    ASSERT_TRUE(slice.has_value());
    EXPECT_EQ(slice->length, 16);
  }
  EXPECT_EQ(st.stats().desc_evictions, 0u);
  EXPECT_EQ(st.stats().data_evictions, 0u);
}

TEST(StorageIntegrityTest, ScrubAuditsWholeStoreAndEvictsCorruption) {
  Standalone box;
  auto& st = box.storage;
  const c3::NsId a = st.intern_ns("a");
  const c3::NsId b = st.intern_ns("b");
  for (Value id = 1; id <= 3; ++id) st.record_desc(a, id, make_record(5, 0));
  st.store_data(a, 1, {0, 8, 1});
  st.store_data(b, 9, {0, 8, 2});
  ASSERT_TRUE(st.corrupt_desc("a", 2));
  ASSERT_TRUE(st.corrupt_data("b", 9));

  const auto report = st.scrub();
  EXPECT_EQ(report.checked, 5u);
  EXPECT_EQ(report.evicted_descs, 1u);
  EXPECT_EQ(report.evicted_data, 1u);
  EXPECT_EQ(st.desc_count(a), 2u);
  EXPECT_EQ(st.data_count(b), 0u);

  // A second pass over the now-clean store finds nothing.
  const auto second = st.scrub();
  EXPECT_EQ(second.checked, 3u);
  EXPECT_EQ(second.evicted(), 0u);
  EXPECT_EQ(st.stats().scrubs, 2u);
}

TEST(StorageIntegrityTest, EvictionHookObservesEveryEviction) {
  Standalone box;
  auto& st = box.storage;
  std::vector<std::pair<bool, Value>> seen;
  st.set_eviction_hook(
      [&seen](bool is_data, c3::NsId, Value id) { seen.emplace_back(is_data, id); });
  const c3::NsId svc = st.intern_ns("svc");
  st.record_desc(svc, 21, make_record(1, 0));
  st.store_data(svc, 22, {0, 4, 1});
  st.corrupt_desc("svc", 21);
  st.corrupt_data("svc", 22);
  st.lookup_desc(svc, 21);
  st.scrub();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<bool, Value>{false, 21}));
  EXPECT_EQ(seen[1], (std::pair<bool, Value>{true, 22}));
}

TEST(StorageIntegrityTest, EvictionAndScrubEmitTraceEvents) {
  Standalone box;
  box.kern.tracer().set_enabled(true);
  auto& st = box.storage;
  const c3::NsId svc = st.intern_ns("svc");
  st.record_desc(svc, 33, make_record(1, 0));
  st.corrupt_desc("svc", 33);
  st.lookup_desc(svc, 33);
  st.scrub();

  int evicts = 0;
  int scrubs = 0;
  for (const auto& ev : box.kern.tracer().snapshot().events) {
    if (ev.kind == trace::EventKind::kStorageEvict) {
      ++evicts;
      EXPECT_EQ(ev.a, 0);      // desc, not data
      EXPECT_EQ(ev.c, 33);     // record id
      EXPECT_EQ(ev.comp, st.id());
    }
    if (ev.kind == trace::EventKind::kStorageScrub) ++scrubs;
  }
  EXPECT_EQ(evicts, 1);
  EXPECT_EQ(scrubs, 1);
}

// ---------------------------------------------------------------------------
// Namespace ids: reads never intern, and interning survives reset_state.
// ---------------------------------------------------------------------------

TEST(StorageNamespaceTest, ReadPathsDoNotInternUnknownNamespaces) {
  Standalone box;
  auto& st = box.storage;
  // Reads and erases against a namespace nobody ever interned (find_ns
  // yields kNoNs) must stay pure lookups: no namespace slot may be created
  // as a side effect.
  const c3::NsId ghost = st.find_ns("ghost");
  ASSERT_EQ(ghost, c3::kNoNs);
  EXPECT_FALSE(st.lookup_desc(ghost, 1).has_value());
  EXPECT_FALSE(st.fetch_data(ghost, 2).has_value());
  EXPECT_EQ(st.desc_count(ghost), 0u);
  EXPECT_EQ(st.data_count(ghost), 0u);
  st.erase_desc(ghost, 1);
  st.erase_data(ghost, 2);
  EXPECT_EQ(st.find_ns("ghost"), c3::kNoNs);

  // Interning creates the namespace, and only then does it resolve.
  st.record_desc(st.intern_ns("real"), 1, make_record(1, 0));
  EXPECT_NE(st.find_ns("real"), c3::kNoNs);
  EXPECT_EQ(st.find_ns("ghost"), c3::kNoNs);
}

TEST(StorageNamespaceTest, EraseAndCountsAcrossResetState) {
  Standalone box;
  auto& st = box.storage;
  const c3::NsId ns = st.intern_ns("svc");
  for (Value id = 1; id <= 4; ++id) st.record_desc(ns, id, make_record(2, 0));
  st.erase_desc(ns, 3);
  EXPECT_EQ(st.desc_count(ns), 3u);
  EXPECT_EQ(st.desc_count(st.find_ns("svc")), 3u);
  st.erase_desc(ns, 3);  // Double erase: harmless.
  EXPECT_EQ(st.desc_count(ns), 3u);

  st.reset_state();
  // Contents are gone, interning survives: ids handed out before the reset
  // stay valid and the namespace still resolves.
  EXPECT_EQ(st.desc_count(ns), 0u);
  EXPECT_EQ(st.find_ns("svc"), ns);
  st.record_desc(ns, 9, make_record(2, 0));
  EXPECT_EQ(st.desc_count(st.find_ns("svc")), 1u);
}

// ---------------------------------------------------------------------------
// Satellite: cbuf reset / exhaustion edge cases.
// ---------------------------------------------------------------------------

TEST(CbufManagerTest, ByteBudgetExhaustionAndReclaim) {
  kernel::Kernel kern;
  CbufManager cbufs(kern);
  cbufs.set_capacity_bytes(100);
  const auto a = cbufs.alloc(1, 60);
  const auto b = cbufs.alloc(1, 40);
  ASSERT_GT(a, 0);
  ASSERT_GT(b, 0);
  EXPECT_EQ(cbufs.live_bytes(), 100u);
  EXPECT_EQ(cbufs.alloc(1, 1), kernel::kErrNoMem);

  cbufs.free(a);
  EXPECT_EQ(cbufs.live_bytes(), 40u);
  EXPECT_GT(cbufs.alloc(1, 60), 0);       // Freed budget is reusable.
  EXPECT_EQ(cbufs.alloc(1, 1), kernel::kErrNoMem);
  cbufs.free(12345);                       // Unknown id: no budget change.
  EXPECT_EQ(cbufs.live_bytes(), 100u);
}

TEST(CbufManagerTest, ResetStateClearsBuffersAndBudgetUse) {
  kernel::Kernel kern;
  CbufManager cbufs(kern);
  cbufs.set_capacity_bytes(64);
  const auto a = cbufs.alloc(1, 64);
  ASSERT_GT(a, 0);
  EXPECT_EQ(cbufs.alloc(1, 1), kernel::kErrNoMem);

  cbufs.reset_state();
  EXPECT_EQ(cbufs.live_buffers(), 0u);
  EXPECT_EQ(cbufs.live_bytes(), 0u);
  EXPECT_FALSE(cbufs.exists(a));
  // The capacity itself is configuration and survives; the budget is fresh.
  const auto b = cbufs.alloc(2, 64);
  ASSERT_GT(b, 0);
  EXPECT_EQ(cbufs.alloc(2, 1), kernel::kErrNoMem);
}

TEST(CbufManagerTest, UnlimitedByDefault) {
  kernel::Kernel kern;
  CbufManager cbufs(kern);
  for (int i = 0; i < 64; ++i) EXPECT_GT(cbufs.alloc(1, 64 * 1024), 0);
}

// ---------------------------------------------------------------------------
// Tentpole: faults in the storage component itself.
// ---------------------------------------------------------------------------

TEST(StorageRebuildTest, G0IsRematerializedFromClientStubs) {
  SystemConfig config;
  config.trace = true;
  System sys(config);
  test::TraceCheck check(sys, "storage_rebuild_g0");
  auto& app = sys.create_app("app");
  auto& kern = sys.kernel();

  test::run_thread(sys, [&] {
    components::EvtClient evt(sys.invoker(app, "evt"));
    Value ids[3];
    for (auto& id : ids) {
      id = evt.split(app.id());
      ASSERT_GT(id, 0);
    }
    const c3::NsId evt_ns = sys.storage().find_ns("evt");
    ASSERT_EQ(sys.storage().desc_count(evt_ns), 3u);

    // The substrate itself faults. The micro-reboot wipes its contents; the
    // coordinator must re-publish every creator record from the stubs.
    kern.inject_crash(sys.storage().id());
    EXPECT_EQ(sys.storage().desc_count(evt_ns), 3u);
    EXPECT_EQ(sys.coordinator().storage_rebuilds(), 1);
    EXPECT_FALSE(sys.coordinator().degraded());

    // The rebuilt records are live: after an evt fault, recovery still
    // resolves creators through G0 (the trigger below replays fine).
    kern.inject_crash(sys.service_component("evt").id());
    for (const auto& id : ids) {
      EXPECT_EQ(evt.trigger(app.id(), id), kernel::kOk);
    }
  });
}

TEST(StorageRebuildTest, RamfsRepublishesG1Lazily) {
  SystemConfig config;
  config.trace = true;
  System sys(config);
  test::TraceCheck check(sys, "storage_rebuild_g1");
  auto& app = sys.create_app("app");
  auto& kern = sys.kernel();
  auto& ramfs =
      static_cast<components::RamFsComponent&>(sys.service_component("ramfs"));

  test::run_thread(sys, [&] {
    components::FsClient fs(sys.invoker(app, "ramfs"), sys.cbufs(), app.id());
    const Value pathid = StorageComponent::hash_id("/data/cfg");
    const Value fd = fs.open(pathid);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(fs.write(fd, "persist"), 7);

    kern.inject_crash(sys.storage().id());  // G1 record wiped.
    // The next ramfs handler entry notices the storage epoch moved and
    // re-stores every file it still holds in memory.
    ASSERT_EQ(fs.lseek(fd, 0), kernel::kOk);
    EXPECT_GE(ramfs.storage_resyncs(), 1u);

    // Now ramfs faults too: its maps are rebuilt *from the re-published G1
    // records*, so the data survives the back-to-back pair of faults.
    kern.inject_crash(ramfs.id());
    ASSERT_EQ(fs.lseek(fd, 0), kernel::kOk);
    EXPECT_EQ(fs.read(fd, 7), "persist");
    EXPECT_FALSE(sys.coordinator().degraded());
  });
}

TEST(StorageRebuildTest, DoubleLossIsExplicitlyDegraded) {
  SystemConfig config;
  config.trace = true;
  System sys(config);
  test::TraceCheck check(sys, "storage_degraded");
  auto& app = sys.create_app("app");
  auto& kern = sys.kernel();
  auto& ramfs =
      static_cast<components::RamFsComponent&>(sys.service_component("ramfs"));

  test::run_thread(sys, [&] {
    components::FsClient fs(sys.invoker(app, "ramfs"), sys.cbufs(), app.id());
    const Value pathid = StorageComponent::hash_id("/data/volatile");
    const Value fd = fs.open(pathid);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(fs.write(fd, "x"), 1);

    // Storage faults and ramfs faults *before any ramfs handler runs*: the
    // lazy G1 resync never got a chance, so the file's only copy is gone.
    kern.inject_crash(sys.storage().id());
    kern.inject_crash(ramfs.id());

    // Recovery must still converge — the fd replays, the file comes back
    // empty — and the loss must surface on the degraded flag, not silently.
    ASSERT_EQ(fs.lseek(fd, 0), kernel::kOk);
    EXPECT_EQ(fs.read(fd, 1), "");
    EXPECT_TRUE(sys.coordinator().degraded());
    EXPECT_GE(sys.coordinator().degraded_events(), 1u);

    sys.coordinator().clear_degraded();
    EXPECT_FALSE(sys.coordinator().degraded());
  });
}

TEST(StorageRebuildTest, ChecksumEvictionRaisesDegradedFlag) {
  System sys{SystemConfig{}};
  auto& app = sys.create_app("app");

  test::run_thread(sys, [&] {
    components::FsClient fs(sys.invoker(app, "ramfs"), sys.cbufs(), app.id());
    const Value pathid = StorageComponent::hash_id("/data/bits");
    const Value fd = fs.open(pathid);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(fs.write(fd, "y"), 1);
    ASSERT_FALSE(sys.coordinator().degraded());

    // Silent corruption of the substrate's memory: the next verified read
    // evicts the record and reports the degradation.
    ASSERT_TRUE(sys.storage().corrupt_data("ramfs", pathid));
    EXPECT_FALSE(sys.storage().fetch_data(sys.storage().find_ns("ramfs"), pathid).has_value());
    EXPECT_TRUE(sys.coordinator().degraded());
  });
}

// ---------------------------------------------------------------------------
// Invariant 5: storage rebuild ordering (checker unit tests).
// ---------------------------------------------------------------------------

trace::Event make_event(std::uint64_t seq, trace::EventKind kind, kernel::CompId comp) {
  trace::Event ev;
  ev.seq = seq;
  ev.at = seq;
  ev.comp = comp;
  ev.kind = kind;
  return ev;
}

TEST(StorageInvariantTest, ProperRebuildSequencePasses) {
  trace::InvariantChecker checker;
  checker.begin(false);
  checker.feed(make_event(1, trace::EventKind::kFault, 7));
  checker.feed(make_event(2, trace::EventKind::kMicroReboot, 7));
  checker.feed(make_event(3, trace::EventKind::kStorageRebuildBegin, 7));
  checker.feed(make_event(4, trace::EventKind::kStorageRebuildEnd, 7));
  checker.finish();
  EXPECT_TRUE(checker.violations().empty());
}

TEST(StorageInvariantTest, RebuildWithoutRebootViolates) {
  trace::InvariantChecker checker;
  checker.begin(false);
  checker.feed(make_event(1, trace::EventKind::kStorageRebuildBegin, 7));
  checker.feed(make_event(2, trace::EventKind::kStorageRebuildEnd, 7));
  checker.finish();
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_NE(checker.violations()[0].find("invariant 5"), std::string::npos);
}

TEST(StorageInvariantTest, RebuildWhileFaultPendingViolates) {
  trace::InvariantChecker checker;
  checker.begin(false);
  checker.feed(make_event(1, trace::EventKind::kFault, 7));
  checker.feed(make_event(2, trace::EventKind::kStorageRebuildBegin, 7));
  checker.finish();
  EXPECT_FALSE(checker.violations().empty());
}

TEST(StorageInvariantTest, NestedRebuildsViolate) {
  trace::InvariantChecker checker;
  checker.begin(false);
  checker.feed(make_event(1, trace::EventKind::kFault, 7));
  checker.feed(make_event(2, trace::EventKind::kMicroReboot, 7));
  checker.feed(make_event(3, trace::EventKind::kStorageRebuildBegin, 7));
  checker.feed(make_event(4, trace::EventKind::kStorageRebuildBegin, 7));
  checker.finish();
  EXPECT_FALSE(checker.violations().empty());
}

TEST(StorageInvariantTest, UnfinishedRebuildViolates) {
  trace::InvariantChecker checker;
  checker.begin(false);
  checker.feed(make_event(1, trace::EventKind::kFault, 7));
  checker.feed(make_event(2, trace::EventKind::kMicroReboot, 7));
  checker.feed(make_event(3, trace::EventKind::kStorageRebuildBegin, 7));
  checker.finish();
  EXPECT_FALSE(checker.violations().empty());
}

TEST(StorageInvariantTest, TruncatedWindowSuppressesPrefixChecks) {
  trace::InvariantChecker checker;
  checker.begin(true);  // Log overflow: the micro-reboot may be evicted.
  checker.feed(make_event(1, trace::EventKind::kStorageRebuildBegin, 7));
  checker.feed(make_event(2, trace::EventKind::kStorageRebuildEnd, 7));
  checker.finish();
  EXPECT_TRUE(checker.violations().empty());
}

// ---------------------------------------------------------------------------
// SWIFI: the storage-target campaign column.
// ---------------------------------------------------------------------------

TEST(StorageSwifiTest, EveryEpisodeConvergesRecoveredDegradedOrUndetected) {
  campaign::Config config;
  config.master_seed = 4242;
  config.injections_per_cell = 24;
  config.workload_iterations = 0;  // Table II's 400-iteration workload.
  config.services = {"storage"};
  const campaign::Tally row = campaign::run(config).total;

  EXPECT_EQ(row.injected, 24u);
  // The substrate's fault profile is fail-stop-or-undetected by design
  // (fault_profiles.hpp): no episode may end in a whole-machine crash, a
  // hang, or an unexplained failure — only success, *explicit* degradation,
  // or an absorbed flip.
  EXPECT_EQ(row.segfault, 0u);
  EXPECT_EQ(row.propagated, 0u);
  EXPECT_EQ(row.hang, 0u);
  EXPECT_EQ(row.other, 0u);
  EXPECT_EQ(row.recovered + row.degraded + row.undetected, row.injected);
  EXPECT_GT(row.activated(), 0u);  // The campaign actually reached storage.
}

TEST(StorageSwifiTest, StorageEpisodeTracePassesInvariantChecker) {
  swifi::CampaignConfig config;
  config.seed = 77;
  config.trace = true;
  swifi::Campaign campaign(config);
  for (std::uint64_t episode = 0; episode < 6; ++episode) {
    swifi::EpisodeTrace trace_out;
    campaign.run_episode("storage", episode, &trace_out);
    EXPECT_TRUE(trace_out.violations.empty())
        << "episode " << episode << ": " << trace_out.violations.front();
  }
}

TEST(StorageSwifiTest, EpisodesAreDeterministic) {
  swifi::CampaignConfig config;
  config.seed = 31;
  swifi::Campaign campaign_a(config);
  swifi::Campaign campaign_b(config);
  for (std::uint64_t episode = 0; episode < 4; ++episode) {
    EXPECT_EQ(campaign_a.run_episode("storage", episode),
              campaign_b.run_episode("storage", episode))
        << episode;
  }
}

}  // namespace
}  // namespace sg
