// Focused unit tests of the generic ClientStub engine: tracking counters,
// SM-based fault detection, descriptor virtualization, multi-client
// isolation, and the U0 recreate entry point.

#include <gtest/gtest.h>

#include "c3/client_stub.hpp"
#include "c3/recovery.hpp"
#include "components/system.hpp"
#include "tests/test_util.hpp"

namespace sg {
namespace {

using components::FtMode;
using components::System;
using components::SystemConfig;
using kernel::Value;

SystemConfig sg_config() {
  SystemConfig config;
  config.mode = FtMode::kSuperGlue;
  return config;
}

/// Resolves `fn` and invokes it through the stub's fault-aware path.
Value call(c3::ClientStub& stub, const std::string& fn, const kernel::Args& args) {
  return stub.call_id(stub.resolve(fn), args);
}

TEST(ClientStubTest, StatsCountTrackingAndRecovery) {
  System sys(sg_config());
  auto& app = sys.create_app("app");
  test::run_thread(sys, [&] {
    auto& stub = sys.coordinator().client_stub(app, "lock");
    const Value id = call(stub, "lock_alloc", {app.id()});
    call(stub, "lock_take", {app.id(), id, sys.kernel().current_thread()});
    call(stub, "lock_release", {app.id(), id});

    const auto& stats = stub.stats();
    EXPECT_EQ(stats.calls, 3u);
    EXPECT_EQ(stats.tracked_creates, 1u);
    EXPECT_EQ(stats.transitions, 2u);
    EXPECT_EQ(stats.recoveries, 0u);

    sys.kernel().inject_crash(sys.lock().id());
    call(stub, "lock_take", {app.id(), id, sys.kernel().current_thread()});
    EXPECT_EQ(stub.stats().recoveries, 1u);
    EXPECT_GE(stub.stats().walk_fns, 0u);
  });
}

TEST(ClientStubTest, InvalidTransitionIsDetected) {
  System sys(sg_config());
  auto& app = sys.create_app("app");
  test::run_thread(sys, [&] {
    auto& stub = sys.coordinator().client_stub(app, "lock");
    const Value id = call(stub, "lock_alloc", {app.id()});
    // Releasing a lock that was never taken: invalid from s0 — the state
    // machine's fault-detection half rejects it client-side (§III-B).
    EXPECT_EQ(call(stub, "lock_release", {app.id(), id}), kernel::kErrInval);
    EXPECT_EQ(stub.stats().invalid_transitions, 1u);
  });
}

TEST(ClientStubTest, DescriptorStateFollowsCompletionOrder) {
  System sys(sg_config());
  auto& app = sys.create_app("app");
  test::run_thread(sys, [&] {
    auto& stub = sys.coordinator().client_stub(app, "lock");
    const Value id = call(stub, "lock_alloc", {app.id()});
    const auto* desc = stub.table().find(id);
    ASSERT_NE(desc, nullptr);
    EXPECT_EQ(desc->state, c3::kStateInitial);
    call(stub, "lock_take", {app.id(), id, sys.kernel().current_thread()});
    EXPECT_EQ(stub.spec().compiled().state_name(stub.table().find(id)->state), "after_lock_take");
    call(stub, "lock_release", {app.id(), id});
    EXPECT_EQ(stub.table().find(id)->state, c3::kStateInitial);
    call(stub, "lock_free", {app.id(), id});
    EXPECT_EQ(stub.table().find(id), nullptr);  // Terminal removes tracking.
  });
}

TEST(ClientStubTest, FailedCreationIsNotTracked) {
  System sys(sg_config());
  auto& app = sys.create_app("app");
  test::run_thread(sys, [&] {
    auto& stub = sys.coordinator().client_stub(app, "tmr");
    const Value bad = call(stub, "tmr_setup", {app.id(), /*period=*/-5});
    EXPECT_LT(bad, 0);
    EXPECT_EQ(stub.table().size(), 0u);
    EXPECT_EQ(stub.stats().tracked_creates, 0u);
  });
}

TEST(ClientStubTest, ErrorReturnsDoNotTransitionState) {
  System sys(sg_config());
  auto& app = sys.create_app("app");
  test::run_thread(sys, [&] {
    auto& stub = sys.coordinator().client_stub(app, "ramfs");
    const Value fd = call(stub, "tsplit", {app.id(), 0, 777});
    const c3::StateId before = stub.table().find(fd)->state;
    const c3::FieldId offset = stub.spec().field_id("offset");
    ASSERT_NE(offset, c3::kNoField);
    EXPECT_EQ(call(stub, "tlseek", {app.id(), fd, -1}), kernel::kErrInval);
    EXPECT_EQ(stub.table().find(fd)->state, before);
    EXPECT_FALSE(stub.table().find(fd)->has_field(offset));
  });
}

TEST(ClientStubTest, SeparateClientsHaveSeparateTables) {
  System sys(sg_config());
  auto& app_a = sys.create_app("A");
  auto& app_b = sys.create_app("B");
  test::run_thread(sys, [&] {
    auto& stub_a = sys.coordinator().client_stub(app_a, "lock");
    auto& stub_b = sys.coordinator().client_stub(app_b, "lock");
    EXPECT_NE(&stub_a, &stub_b);
    call(stub_a, "lock_alloc", {app_a.id()});
    EXPECT_EQ(stub_a.table().size(), 1u);
    EXPECT_EQ(stub_b.table().size(), 0u);
  });
}

TEST(ClientStubTest, RecreateByVidServesUpcalls) {
  System sys(sg_config());
  auto& app = sys.create_app("app");
  test::run_thread(sys, [&] {
    auto& stub = sys.coordinator().client_stub(app, "evt");
    const Value evtid = call(stub, "evt_split", {app.id(), 0, 0});
    sys.kernel().inject_crash(sys.evt().id());
    EXPECT_FALSE(sys.evt().event_exists(evtid));
    EXPECT_EQ(stub.recreate_by_vid(evtid), kernel::kOk);
    EXPECT_TRUE(sys.evt().event_exists(evtid));
    EXPECT_EQ(stub.recreate_by_vid(999999), kernel::kErrInval);
  });
}

TEST(ClientStubTest, RetaddAccumulatesTrackedOffset) {
  System sys(sg_config());
  auto& app = sys.create_app("app");
  test::run_thread(sys, [&] {
    components::FsClient fs(sys.invoker(app, "ramfs"), sys.cbufs(), app.id());
    auto& stub = sys.coordinator().client_stub(app, "ramfs");
    const c3::FieldId offset = stub.spec().field_id("offset");
    ASSERT_NE(offset, c3::kNoField);
    const Value fd = fs.open(4242);
    fs.write(fd, "abcd");
    fs.write(fd, "ef");
    EXPECT_EQ(stub.table().find(fd)->field(offset), 6);
    fs.lseek(fd, 1);
    EXPECT_EQ(stub.table().find(fd)->field(offset), 1);
    fs.read(fd, 3);
    EXPECT_EQ(stub.table().find(fd)->field(offset), 4);
  });
}

TEST(ClientStubTest, EagerRecoverAllRestoresEverything) {
  System sys(sg_config());
  auto& app = sys.create_app("app");
  test::run_thread(sys, [&] {
    auto& stub = sys.coordinator().client_stub(app, "lock");
    std::vector<Value> ids;
    for (int i = 0; i < 5; ++i) ids.push_back(call(stub, "lock_alloc", {app.id()}));
    sys.kernel().inject_crash(sys.lock().id());
    EXPECT_EQ(sys.lock().lock_count(), 0u);
    stub.recover_all();
    EXPECT_EQ(sys.lock().lock_count(), 5u);
    EXPECT_EQ(stub.stats().recoveries, 5u);
  });
}

TEST(ClientStubTest, ForeignDescriptorsPassThroughUntracked) {
  System sys(sg_config());
  auto& creator = sys.create_app("creator");
  auto& user = sys.create_app("user");
  test::run_thread(sys, [&] {
    auto& creator_stub = sys.coordinator().client_stub(creator, "evt");
    auto& user_stub = sys.coordinator().client_stub(user, "evt");
    const Value evtid = call(creator_stub, "evt_split", {creator.id(), 0, 0});
    EXPECT_EQ(call(user_stub, "evt_trigger", {user.id(), evtid}), kernel::kOk);
    EXPECT_EQ(user_stub.table().size(), 0u);  // Not its descriptor.
    EXPECT_EQ(creator_stub.table().size(), 1u);
  });
}

TEST(ClientStubTest, EpochDetectionWithoutFaultFlag) {
  // A reboot triggered by another client leaves no fault flag for us; the
  // stub must notice via the epoch on its next call.
  System sys(sg_config());
  auto& app = sys.create_app("app");
  test::run_thread(sys, [&] {
    auto& stub = sys.coordinator().client_stub(app, "lock");
    const Value id = call(stub, "lock_alloc", {app.id()});
    call(stub, "lock_take", {app.id(), id, sys.kernel().current_thread()});
    sys.kernel().inject_crash(sys.lock().id());  // No in-flight call of ours.
    // Next call sees a stale epoch, recovers (re-takes), then releases.
    EXPECT_EQ(call(stub, "lock_release", {app.id(), id}), kernel::kOk);
    EXPECT_EQ(stub.stats().recoveries, 1u);
  });
}

}  // namespace
}  // namespace sg
