// Tests of the trace subsystem: the Tracer's recording/query/overflow
// behaviour, the recovery-invariant checker over hand-crafted streams, the
// golden normalized trace of a canonical single-fault R0 recovery, and
// determinism of traced SWIFI runs (same seed => byte-identical streams).
//
// Regenerate the golden file with:
//   SG_REGEN_GOLDEN=1 build/tests/trace_test --gtest_filter='*Golden*'

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <future>
#include <latch>
#include <sstream>
#include <thread>
#include <vector>

#include "components/system.hpp"
#include "components/trace_check.hpp"
#include "swifi/stress.hpp"
#include "swifi/swifi.hpp"
#include "tests/test_util.hpp"
#include "trace/invariants.hpp"
#include "trace/trace.hpp"

namespace sg {
namespace {

using components::System;
using components::SystemConfig;
using kernel::Value;
using trace::Event;
using trace::EventKind;
using trace::InvariantChecker;
using trace::Tracer;

// ---------------------------------------------------------------------------
// Tracer unit tests
// ---------------------------------------------------------------------------

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer tracer;
  tracer.set_enabled(false);
  tracer.record(10, EventKind::kFault, 3, 1);
  const auto snap = tracer.snapshot();
  EXPECT_TRUE(snap.events.empty());
  EXPECT_EQ(snap.dropped, 0u);
}

TEST(TracerTest, RecordsInSeqOrderAndAnswersQueries) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.record(10, EventKind::kFault, 3, 1);
  tracer.record(11, EventKind::kMicroReboot, 3, 1, /*a=*/1);
  tracer.record(12, EventKind::kInvokeEnter, 3, 2);
  tracer.record(12, EventKind::kInvokeEnter, 4, 2);
  const auto snap = tracer.snapshot();
  ASSERT_EQ(snap.events.size(), 4u);
  for (std::size_t i = 1; i < snap.events.size(); ++i) {
    EXPECT_LT(snap.events[i - 1].seq, snap.events[i].seq);
  }
  EXPECT_EQ(snap.count(EventKind::kInvokeEnter), 2u);
  EXPECT_EQ(snap.count(EventKind::kInvokeEnter, /*comp=*/3), 1u);
  EXPECT_EQ(snap.of_comp(3).size(), 3u);
  EXPECT_EQ(snap.of_kind(EventKind::kMicroReboot).size(), 1u);
  const Event* reboot = snap.first(EventKind::kMicroReboot, 3);
  ASSERT_NE(reboot, nullptr);
  EXPECT_EQ(reboot->a, 1);
  EXPECT_EQ(snap.first(EventKind::kQuarantine), nullptr);
}

TEST(TracerTest, ClearDiscardsEverything) {
  // set_capacity clears the log: every event goes and seq restarts at 0.
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.record(1, EventKind::kFault, 1, 1);
  tracer.set_capacity(Tracer::kDefaultCapacity);
  EXPECT_TRUE(tracer.snapshot().events.empty());
  tracer.record(2, EventKind::kFault, 1, 1);
  const auto snap = tracer.snapshot();
  ASSERT_EQ(snap.events.size(), 1u);
  EXPECT_EQ(snap.events.front().seq, 0u);
}

TEST(TracerTest, OverflowEvictsOldestAndReportsDropped) {
  Tracer tracer(/*capacity=*/4);
  tracer.set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    tracer.record(static_cast<kernel::VirtualTime>(i), EventKind::kInvokeEnter, 1, 1,
                  /*a=*/i);
  }
  const auto snap = tracer.snapshot();
  EXPECT_TRUE(snap.truncated());
  EXPECT_EQ(snap.dropped, 6u);
  ASSERT_EQ(snap.events.size(), 4u);
  // The newest four survive, still in order.
  EXPECT_EQ(snap.events.front().a, 6);
  EXPECT_EQ(snap.events.back().a, 9);
}

// A capacity above one chunk and not a multiple of it: the ring's last chunk
// is only partly used, and the wrap point falls mid-chunk.
constexpr int kChunk = static_cast<int>(Tracer::kChunkEvents);
constexpr int kChunkedCapacity = 2 * kChunk + 37;

void record_numbered(Tracer& tracer, int from, int count) {
  for (int i = from; i < from + count; ++i) {
    tracer.record(static_cast<kernel::VirtualTime>(i), EventKind::kInvokeEnter, 1, 1, /*a=*/i);
  }
}

// The snapshot holds exactly events [first, first + n), in seq order.
void expect_numbered(const Tracer::Snapshot& snap, int first, int n) {
  ASSERT_EQ(snap.events.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto slot = static_cast<std::size_t>(i);
    EXPECT_EQ(snap.events[slot].a, first + i) << "slot " << i;
    if (i > 0) {
      EXPECT_LT(snap.events[slot - 1].seq, snap.events[slot].seq);
    }
  }
}

TEST(TracerTest, ChunkedRingKeepsNewestCapacityEventsAcrossWraps) {
  Tracer tracer(kChunkedCapacity);
  tracer.set_enabled(true);
  // Partly into the second chunk: nothing dropped yet.
  record_numbered(tracer, 0, kChunk + 5);
  auto snap = tracer.snapshot();
  EXPECT_EQ(snap.dropped, 0u);
  expect_numbered(snap, 0, kChunk + 5);
  // Exactly full.
  record_numbered(tracer, kChunk + 5, kChunkedCapacity - kChunk - 5);
  snap = tracer.snapshot();
  EXPECT_EQ(snap.dropped, 0u);
  expect_numbered(snap, 0, kChunkedCapacity);
  // At least one more full wrap each time, leaving the oldest kept event in
  // the first chunk, the second, and the partly used last one.
  int total = kChunkedCapacity;
  for (const int oldest_slot : {100, kChunk + 100, 2 * kChunk + 20}) {
    const int target = total - total % kChunkedCapacity + kChunkedCapacity + oldest_slot;
    record_numbered(tracer, total, target - total);
    total = target;
    snap = tracer.snapshot();
    EXPECT_EQ(snap.dropped, static_cast<std::uint64_t>(total - kChunkedCapacity));
    expect_numbered(snap, total - kChunkedCapacity, kChunkedCapacity);
  }
}

TEST(TracerTest, ChunkedRingRecordsAgainAfterClearAndSetCapacity) {
  Tracer tracer(kChunkedCapacity);
  tracer.set_enabled(true);
  record_numbered(tracer, 0, 3 * kChunkedCapacity + 50);  // Write position mid-ring.
  tracer.set_capacity(kChunkedCapacity);
  auto snap = tracer.snapshot();
  EXPECT_TRUE(snap.events.empty());
  EXPECT_EQ(snap.dropped, 0u);
  // Across the first chunk boundary after set_capacity(): seq restarts at 0.
  record_numbered(tracer, 0, kChunk + 1);
  snap = tracer.snapshot();
  EXPECT_EQ(snap.dropped, 0u);
  expect_numbered(snap, 0, kChunk + 1);
  EXPECT_EQ(snap.events.front().seq, 0u);

  // A smaller capacity that is still above one chunk: contents discarded,
  // then the new capacity holds and wraps mid-chunk.
  const int smaller = kChunk + 3;
  tracer.set_capacity(smaller);
  snap = tracer.snapshot();
  EXPECT_TRUE(snap.events.empty());
  EXPECT_EQ(snap.dropped, 0u);
  record_numbered(tracer, 0, smaller + 10);
  snap = tracer.snapshot();
  EXPECT_EQ(snap.dropped, 10u);
  expect_numbered(snap, 10, smaller);
  EXPECT_EQ(snap.events.front().seq, 10u);
}

TEST(TracerTest, ForEachVisitsTheSnapshotsEventsInPlace) {
  Tracer tracer(kChunkedCapacity);
  tracer.set_enabled(true);
  // Before the log fills, then after several wraps that leave the oldest kept
  // event in the first chunk, the second and the partly used last one.
  int total = 0;
  for (const int target : {kChunk + 5, 3 * kChunkedCapacity + 100,
                           4 * kChunkedCapacity + kChunk + 100,
                           6 * kChunkedCapacity + 2 * kChunk + 20}) {
    record_numbered(tracer, total, target - total);
    total = target;
    const Tracer::Snapshot snap = tracer.snapshot();
    std::vector<Event> walked;
    tracer.for_each([&walked](const Event& ev) { walked.push_back(ev); });
    ASSERT_EQ(walked.size(), snap.events.size()) << "after " << total << " events";
    for (std::size_t i = 0; i < walked.size(); ++i) {
      EXPECT_EQ(walked[i].seq, snap.events[i].seq) << "event " << i;
      EXPECT_EQ(walked[i].a, snap.events[i].a) << "event " << i;
    }
    EXPECT_EQ(tracer.dropped(), snap.dropped);
    EXPECT_EQ(tracer.recorded(), static_cast<std::uint64_t>(total));
  }
  EXPECT_EQ(tracer.dropped(), static_cast<std::uint64_t>(total - kChunkedCapacity));
}

TEST(TracerTest, OverflowKeepsNewestEventsOfWholeStream) {
  Tracer tracer(/*capacity=*/50);
  tracer.set_enabled(true);
  // Two host threads record in turn. Both stay alive until the second is
  // done: a joined thread's id can be reused by the next one.
  std::promise<void> first_done;
  std::promise<void> second_done;
  std::future<void> first_recorded = first_done.get_future();
  std::future<void> second_recorded = second_done.get_future();
  std::thread first([&] {
    record_numbered(tracer, 0, 10);
    first_done.set_value();
    second_recorded.wait();
  });
  std::thread second([&] {
    first_recorded.wait();
    record_numbered(tracer, 10, 100);
    second_done.set_value();
  });
  first.join();
  second.join();

  // The log keeps the newest 50 of all 110 events, whichever thread wrote
  // them: seqs 60-109, and the first thread's 10 are among the dropped.
  const auto snap = tracer.snapshot();
  EXPECT_EQ(snap.dropped, 60u);
  expect_numbered(snap, 60, 50);
  EXPECT_EQ(snap.events.front().seq, 60u);
  EXPECT_EQ(snap.events.back().seq, 109u);
}

TEST(TracerTest, ConcurrentWritersFillDistinctSlots) {
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 20000;
  Tracer tracer;
  tracer.set_enabled(true);
  std::latch start(kWriters);
  std::vector<std::thread> writers;
  for (int w = 1; w <= kWriters; ++w) {
    writers.emplace_back([&tracer, &start, w] {
      start.arrive_and_wait();
      for (int i = 0; i < kPerWriter; ++i) {
        tracer.record(static_cast<kernel::VirtualTime>(i), EventKind::kInvokeEnter, 1,
                      static_cast<kernel::ThreadId>(w), /*a=*/i);
      }
    });
  }
  for (std::thread& writer : writers) writer.join();

  const auto snap = tracer.snapshot();
  EXPECT_EQ(snap.dropped, 0u);
  ASSERT_EQ(snap.events.size(), static_cast<std::size_t>(kWriters * kPerWriter));
  // Slot i holds seq i, so every seq appears exactly once; each writer's
  // payloads appear in the order it recorded them.
  std::vector<int> next(kWriters + 1, 0);
  std::size_t misplaced = 0;
  std::size_t out_of_order = 0;
  for (std::size_t i = 0; i < snap.events.size(); ++i) {
    const Event& ev = snap.events[i];
    if (ev.seq != i) ++misplaced;
    if (ev.thd < 1 || ev.thd > kWriters || ev.a != next[ev.thd]++) ++out_of_order;
  }
  EXPECT_EQ(misplaced, 0u);
  EXPECT_EQ(out_of_order, 0u);
  for (int w = 1; w <= kWriters; ++w) EXPECT_EQ(next[w], kPerWriter) << "writer " << w;
}

TEST(TracerTest, DescribeAndChromeExportRenderEvents) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.record(5, EventKind::kInvokeEnter, 7, 2);
  tracer.record(6, EventKind::kMicroReboot, 7, 2, /*a=*/3);
  tracer.record(7, EventKind::kInvokeReturn, 7, 2, /*a=*/0);
  const auto snap = tracer.snapshot();

  const trace::NameFn names = [](kernel::CompId comp) {
    return comp == 7 ? std::string("lock") : "#" + std::to_string(comp);
  };
  EXPECT_EQ(trace::describe(snap.events[1], names), "micro-reboot comp=lock thd=2 epoch=3");
  const std::string normalized = trace::format_normalized(snap.events, names);
  EXPECT_NE(normalized.find("+0 invoke-enter comp=lock thd=2"), std::string::npos);
  EXPECT_NE(normalized.find("+1 micro-reboot"), std::string::npos);

  std::ostringstream json;
  trace::write_chrome_trace(json, snap, names);
  const std::string chrome = json.str();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"B\""), std::string::npos);  // invoke span opened
  EXPECT_NE(chrome.find("\"ph\":\"E\""), std::string::npos);  // ... and closed
}

// ---------------------------------------------------------------------------
// Invariant checker over hand-crafted streams
// ---------------------------------------------------------------------------

Event make_event(std::uint64_t seq, EventKind kind, kernel::CompId comp,
                 kernel::ThreadId thd = kernel::kNoThread, std::int32_t a = 0,
                 std::int32_t b = 0, std::int64_t c = 0, std::int64_t d = 0) {
  Event ev;
  ev.seq = seq;
  ev.at = seq;
  ev.kind = kind;
  ev.comp = comp;
  ev.thd = thd;
  ev.a = a;
  ev.b = b;
  ev.c = c;
  ev.d = d;
  return ev;
}

/// Runs `checker` over a hand-built stream the way check() runs it over a
/// log: begin (a truncated window iff events were dropped), feed, finish.
std::vector<std::string> check_stream(InvariantChecker& checker, const std::vector<Event>& events,
                                      std::uint64_t dropped = 0) {
  checker.begin(dropped != 0);
  for (const Event& ev : events) checker.feed(ev);
  checker.finish();
  return checker.violations();
}

TEST(InvariantCheckerTest, FaultThenInvokeWithoutRebootViolatesInvariant1) {
  InvariantChecker checker;
  const auto violations = check_stream(checker, {
      make_event(1, EventKind::kFault, 5),
      make_event(2, EventKind::kInvokeEnter, 5, 1),
  });
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("invariant 1"), std::string::npos);
}

TEST(InvariantCheckerTest, FaultRebootInvokeIsClean) {
  InvariantChecker checker;
  const auto violations = check_stream(checker, {
      make_event(1, EventKind::kFault, 5),
      make_event(2, EventKind::kMicroReboot, 5, 0, 1),
      make_event(3, EventKind::kInvokeEnter, 5, 1),
  });
  EXPECT_TRUE(violations.empty());
}

TEST(InvariantCheckerTest, QuarantinedInvokeViolatesInvariant4UntilReadmit) {
  InvariantChecker checker;
  const auto violations = check_stream(checker, {
      make_event(1, EventKind::kQuarantine, 5),
      make_event(2, EventKind::kInvokeEnter, 5, 1),
      make_event(3, EventKind::kReadmit, 5),
      make_event(4, EventKind::kInvokeEnter, 5, 1),  // After readmit: fine.
  });
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("invariant 4"), std::string::npos);
  EXPECT_NE(violations[0].find("seq=2"), std::string::npos);
}

TEST(InvariantCheckerTest, ValidWalkPathIsClean) {
  InvariantChecker checker;
  const auto violations = check_stream(checker, {
      // Walk of descriptor vid=7 on comp 5, landing in state 2.
      make_event(1, EventKind::kWalkBegin, 5, 1, /*a=*/2, /*b=*/2, /*c=*/7),
      make_event(2, EventKind::kWalkStep, 5, 1, /*a=*/0, /*b=*/1, 7, /*d=*/11),
      make_event(3, EventKind::kWalkStep, 5, 1, /*a=*/1, /*b=*/2, 7, /*d=*/12),
      make_event(4, EventKind::kWalkEnd, 5, 1, /*a=*/2, 0, 7),
  });
  EXPECT_TRUE(violations.empty());
}

TEST(InvariantCheckerTest, BrokenWalkChainViolatesInvariant2) {
  InvariantChecker checker;
  const auto violations = check_stream(checker, {
      make_event(1, EventKind::kWalkBegin, 5, 1, /*a=*/2, /*b=*/2, /*c=*/7),
      // Step replays from state 1 but the chain is still at s0.
      make_event(2, EventKind::kWalkStep, 5, 1, /*a=*/1, /*b=*/2, 7, /*d=*/11),
      make_event(3, EventKind::kWalkEnd, 5, 1, /*a=*/2, 0, 7),
  });
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("invariant 2"), std::string::npos);
}

TEST(InvariantCheckerTest, WalkEndingShortOfLandingViolatesInvariant2) {
  InvariantChecker checker;
  const auto violations = check_stream(checker, {
      make_event(1, EventKind::kWalkBegin, 5, 1, /*a=*/2, /*b=*/2, /*c=*/7),
      make_event(2, EventKind::kWalkStep, 5, 1, /*a=*/0, /*b=*/1, 7, /*d=*/11),
      make_event(3, EventKind::kWalkEnd, 5, 1, /*a=*/1, 0, 7),  // Stopped at 1.
  });
  ASSERT_EQ(violations.size(), 2u);  // Wrong landing + chain short of landing.
  EXPECT_NE(violations[0].find("invariant 2"), std::string::npos);
}

TEST(InvariantCheckerTest, SigmaInvalidReplayIsFlaggedViaHook) {
  trace::CheckerHooks hooks;
  hooks.sigma_valid = [](kernel::CompId, c3::StateId state, c3::FnId) {
    return state == 0 ? 0 : 1;  // Nothing is valid out of s0.
  };
  InvariantChecker checker(std::move(hooks));
  const auto violations = check_stream(checker, {
      make_event(1, EventKind::kWalkBegin, 5, 1, /*a=*/1, /*b=*/1, /*c=*/7),
      make_event(2, EventKind::kWalkStep, 5, 1, /*a=*/0, /*b=*/1, 7, /*d=*/11),
      make_event(3, EventKind::kWalkEnd, 5, 1, /*a=*/1, 0, 7),
  });
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("sigma-invalid"), std::string::npos);
}

TEST(InvariantCheckerTest, GroupRebootMustCoverDeclaredDependentsExactly) {
  trace::CheckerHooks hooks;
  hooks.dependents = [](kernel::CompId root) {
    return root == 1 ? std::vector<kernel::CompId>{2, 3} : std::vector<kernel::CompId>{};
  };

  {
    InvariantChecker checker(hooks);
    const auto violations = check_stream(checker, {
        make_event(1, EventKind::kSupGroupReboot, 1, 0, /*a=*/2),
        make_event(2, EventKind::kSupGroupMember, 2, 0, 0, 0, 0, /*d=*/1),
        make_event(3, EventKind::kSupGroupMember, 3, 0, 0, 0, 0, /*d=*/1),
    });
    EXPECT_TRUE(violations.empty());
  }
  {
    InvariantChecker checker(hooks);  // Dependent 3 never rebooted.
    const auto violations = check_stream(checker, {
        make_event(1, EventKind::kSupGroupReboot, 1, 0, /*a=*/2),
        make_event(2, EventKind::kSupGroupMember, 2, 0, 0, 0, 0, /*d=*/1),
    });
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_NE(violations[0].find("never rebooted"), std::string::npos);
  }
  {
    InvariantChecker checker(hooks);  // Comp 4 is not a declared dependent.
    const auto violations = check_stream(checker, {
        make_event(1, EventKind::kSupGroupReboot, 1, 0, /*a=*/3),
        make_event(2, EventKind::kSupGroupMember, 2, 0, 0, 0, 0, /*d=*/1),
        make_event(3, EventKind::kSupGroupMember, 3, 0, 0, 0, 0, /*d=*/1),
        make_event(4, EventKind::kSupGroupMember, 4, 0, 0, 0, 0, /*d=*/1),
    });
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_NE(violations[0].find("not a declared dependent"), std::string::npos);
  }
}

TEST(InvariantCheckerTest, QuarantinedDependentIsTrimmedFromGroupExpectation) {
  trace::CheckerHooks hooks;
  hooks.dependents = [](kernel::CompId root) {
    return root == 1 ? std::vector<kernel::CompId>{2, 3} : std::vector<kernel::CompId>{};
  };
  InvariantChecker checker(std::move(hooks));
  // Comp 3 was quarantined before the group reboot, so the supervisor
  // (correctly) skips it; the checker must not demand its reboot.
  const auto violations = check_stream(checker, {
      make_event(1, EventKind::kQuarantine, 3),
      make_event(2, EventKind::kSupGroupReboot, 1, 0, /*a=*/1),
      make_event(3, EventKind::kSupGroupMember, 2, 0, 0, 0, 0, /*d=*/1),
  });
  EXPECT_TRUE(violations.empty());
}

TEST(InvariantCheckerTest, TruncatedWindowSuppressesPrefixDependentChecks) {
  InvariantChecker checker;
  // An orphan walk step and a dangling group member would both be violations
  // in a complete log; with a lost prefix they are expected artifacts.
  const auto violations = check_stream(
      checker,
      {
          make_event(50, EventKind::kWalkStep, 5, 1, /*a=*/1, /*b=*/2, 7, /*d=*/11),
          make_event(51, EventKind::kSupGroupMember, 2, 0, 0, 0, 0, /*d=*/1),
      },
      /*dropped=*/100);
  EXPECT_TRUE(violations.empty());
  EXPECT_TRUE(checker.window_truncated());
  ASSERT_FALSE(checker.notices().empty());
  EXPECT_NE(checker.notices()[0].find("window truncated"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Golden trace: canonical single-fault R0 recovery
// ---------------------------------------------------------------------------

std::string run_golden_scenario() {
  SystemConfig config;
  config.trace = true;
  System sys(config);
  auto& app = sys.create_app("app");
  test::run_thread(sys, [&] {
    components::LockClient lock(sys.invoker(app, "lock"), sys.kernel());
    const Value id = lock.alloc(app.id());
    EXPECT_GT(id, 0);
    EXPECT_EQ(lock.take(app.id(), id), kernel::kOk);
    sys.kernel().inject_crash(sys.lock().id());
    EXPECT_EQ(lock.release(app.id(), id), kernel::kOk);  // Triggers R0 redo.
  });

  const auto snap = sys.kernel().tracer().snapshot();
  EXPECT_FALSE(snap.truncated());
  // The canonical fault actually recovered: fault, reboot, replay walk.
  EXPECT_EQ(snap.count(EventKind::kFault, sys.lock().id()), 1u);
  EXPECT_EQ(snap.count(EventKind::kMicroReboot, sys.lock().id()), 1u);
  EXPECT_GE(snap.count(EventKind::kWalkBegin, sys.lock().id()), 1u);
  EXPECT_EQ(snap.count(EventKind::kWalkEnd, sys.lock().id()),
            snap.count(EventKind::kWalkBegin, sys.lock().id()));

  // And it was invariant-clean.
  InvariantChecker checker(components::checker_hooks(sys));
  EXPECT_TRUE(checker.check(sys.kernel().tracer()).empty());

  return trace::format_normalized(snap.events, components::comp_namer(sys));
}

TEST(GoldenTraceTest, R0RecoveryMatchesGoldenFile) {
  const std::string normalized = run_golden_scenario();
  const std::string path =
      std::string(SG_REPO_DIR) + "/tests/golden/trace_r0_recovery.txt";

  if (const char* regen = std::getenv("SG_REGEN_GOLDEN");
      regen != nullptr && regen[0] == '1') {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << path;
    out << normalized;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(normalized, expected.str())
      << "normalized R0 recovery trace drifted from tests/golden/"
         "trace_r0_recovery.txt (SG_REGEN_GOLDEN=1 to regenerate)";
}

TEST(GoldenTraceTest, GoldenScenarioIsRunToRunDeterministic) {
  EXPECT_EQ(run_golden_scenario(), run_golden_scenario());
}

// ---------------------------------------------------------------------------
// Overflow soundness: a truncated window yields notices, not violations
// ---------------------------------------------------------------------------

TEST(TraceOverflowTest, EvictionKeepsCheckerSoundOnLongRuns) {
  SystemConfig config;
  config.trace = true;
  System sys(config);
  // A tiny log: the run below records far more than 64 events.
  sys.kernel().tracer().set_capacity(64);
  auto& app = sys.create_app("app");
  test::run_thread(sys, [&] {
    components::LockClient lock(sys.invoker(app, "lock"), sys.kernel());
    const Value id = lock.alloc(app.id());
    for (int round = 0; round < 40; ++round) {
      EXPECT_EQ(lock.take(app.id(), id), kernel::kOk);
      if (round % 5 == 0) sys.kernel().inject_crash(sys.lock().id());
      EXPECT_EQ(lock.release(app.id(), id), kernel::kOk);
    }
  });

  const Tracer& tracer = sys.kernel().tracer();
  ASSERT_GT(tracer.dropped(), 0u) << "scenario too small to overflow a 64-slot log";

  InvariantChecker checker(components::checker_hooks(sys));
  const auto violations = checker.check(tracer);
  EXPECT_TRUE(violations.empty())
      << "truncated window must not produce false violations; got: " << violations[0];
  EXPECT_TRUE(checker.window_truncated());
  ASSERT_FALSE(checker.notices().empty());
  EXPECT_NE(checker.notices()[0].find("window truncated"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Determinism: same seed => byte-identical traced runs
// ---------------------------------------------------------------------------

TEST(TraceDeterminismTest, SwifiEpisodeStreamsAreSeedDeterministic) {
  swifi::CampaignConfig config;
  config.seed = 33;
  config.trace = true;

  swifi::EpisodeTrace first;
  swifi::EpisodeTrace second;
  swifi::Campaign(config).run_episode("lock", /*episode=*/3, &first);
  swifi::Campaign(config).run_episode("lock", /*episode=*/3, &second);

  ASSERT_FALSE(first.normalized.empty());
  EXPECT_EQ(first.normalized, second.normalized);
  EXPECT_EQ(first.chrome_json, second.chrome_json);
  EXPECT_TRUE(first.violations.empty())
      << "episode violated recovery invariants: " << first.violations[0];

  // A different episode index must produce a different injection, i.e. the
  // determinism above is not vacuous.
  swifi::EpisodeTrace other;
  swifi::Campaign(config).run_episode("lock", /*episode=*/4, &other);
  EXPECT_NE(first.normalized, other.normalized);
}

TEST(TraceDeterminismTest, CrashLoopStressStreamIsSeedDeterministic) {
  swifi::StressConfig config;
  config.seed = 77;
  config.trace = true;

  const swifi::StressReport first = swifi::run_stress(swifi::StressMode::kCrashLoop, config);
  const swifi::StressReport second = swifi::run_stress(swifi::StressMode::kCrashLoop, config);

  ASSERT_TRUE(first.completed);
  ASSERT_FALSE(first.trace.normalized.empty());
  EXPECT_EQ(first.trace.normalized, second.trace.normalized);
  EXPECT_TRUE(first.trace_violations.empty())
      << "crash-loop stress violated recovery invariants: " << first.trace_violations[0];
  // The crash-loop escalates to quarantine and later readmits — both ends of
  // invariant 4 must appear in the stream.
  EXPECT_NE(first.trace.normalized.find("quarantine"), std::string::npos);
  EXPECT_NE(first.trace.normalized.find("readmit"), std::string::npos);
}

}  // namespace
}  // namespace sg
