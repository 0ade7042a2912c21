#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "c3/interface_spec.hpp"
#include "c3/state_machine.hpp"
#include "idl/gen_api.hpp"
#include "util/assert.hpp"

namespace sg {
namespace {

using c3::DescStateMachine;

DescStateMachine lock_like_sm() {
  DescStateMachine sm;
  sm.set_creation("alloc");
  sm.set_terminal("free");
  sm.set_block("take");
  sm.set_wakeup("release");
  sm.add_transition("alloc", "take");
  sm.add_transition("alloc", "free");
  sm.add_transition("take", "release");
  sm.add_transition("take", "free");
  sm.add_transition("release", "take");
  sm.add_transition("release", "free");
  sm.finalize();
  return sm;
}

TEST(StateMachineTest, MergesEquivalentStates) {
  const auto sm = lock_like_sm();
  // alloc and release have identical outgoing sets => both are s0.
  EXPECT_EQ(sm.state_of_fn("alloc"), DescStateMachine::kInitial);
  EXPECT_EQ(sm.state_of_fn("release"), DescStateMachine::kInitial);
  EXPECT_EQ(sm.state_of_fn("take"), "after_take");
  EXPECT_EQ(sm.state_count(), 2u);  // s0 + after_take.
}

TEST(StateMachineTest, WalkReachesHeldState) {
  const auto sm = lock_like_sm();
  EXPECT_EQ(sm.recovery_walk("after_take"), (std::vector<std::string>{"take"}));
  EXPECT_EQ(sm.reached_state("after_take"), "after_take");
  EXPECT_TRUE(sm.recovery_walk(DescStateMachine::kInitial).empty());
}

TEST(StateMachineTest, SigmaAndValidity) {
  const auto sm = lock_like_sm();
  EXPECT_TRUE(sm.valid("s0", "take"));
  EXPECT_TRUE(sm.valid("s0", "free"));
  EXPECT_FALSE(sm.valid("s0", "release"));  // Can't release an unheld lock.
  EXPECT_TRUE(sm.valid("after_take", "release"));
  EXPECT_FALSE(sm.valid("after_take", "take"));
  EXPECT_EQ(sm.next_state("s0", "take"), "after_take");
  EXPECT_EQ(sm.next_state("after_take", "release"), "s0");
  EXPECT_EQ(sm.next_state("after_take", "free"), DescStateMachine::kClosed);
}

TEST(StateMachineTest, ConsumingFnsAreNeverWalked) {
  DescStateMachine sm;
  sm.set_creation("create");
  sm.set_block("wait");
  sm.set_wakeup("post");
  sm.set_consume("wait");
  sm.add_transition("create", "wait");
  sm.add_transition("wait", "done_op");
  sm.add_transition("done_op", "wait");
  sm.finalize();
  // "after_wait" is reachable only through the consuming edge: recovery must
  // fall back to s0 rather than re-consuming the condition.
  const auto& state = sm.state_of_fn("wait");
  EXPECT_TRUE(sm.recovery_walk(state).empty());
  EXPECT_EQ(sm.reached_state(state), DescStateMachine::kInitial);
}

TEST(StateMachineTest, RejectsCreationlessMachine) {
  DescStateMachine sm;
  sm.add_transition("a", "b");
  EXPECT_THROW(sm.finalize(), AssertionError);
}

TEST(StateMachineTest, RejectsCreateTerminalOverlap) {
  DescStateMachine sm;
  sm.set_creation("f");
  sm.set_terminal("f");
  EXPECT_THROW(sm.finalize(), AssertionError);
}

TEST(StateMachineTest, UseBeforeFinalizeThrows) {
  DescStateMachine sm;
  sm.set_creation("f");
  EXPECT_THROW(sm.states(), AssertionError);
  EXPECT_THROW(sm.recovery_walk("s0"), AssertionError);
}

// --- property sweep over the six real interfaces ------------------------------

// Parameters print as the service name, so test names carry no load addresses.
struct SpecCase {
  const char* service;
  c3::InterfaceSpec (*make)();
};

void PrintTo(const SpecCase& param, std::ostream* os) { *os << param.service; }

class SpecSmProperty : public ::testing::TestWithParam<SpecCase> {};

TEST_P(SpecSmProperty, EveryWalkIsReplayableAndTerminates) {
  const auto spec = GetParam().make();
  for (const auto& state : spec.sm.states()) {
    const auto& walk = spec.sm.recovery_walk(state);
    // Walks are short (bounded by |S|) and never include creation, terminal,
    // or consuming fns.
    EXPECT_LE(walk.size(), spec.sm.state_count());
    for (const auto& fn : walk) {
      EXPECT_FALSE(spec.sm.is_creation(fn)) << spec.service << " " << fn;
      EXPECT_FALSE(spec.sm.is_terminal(fn)) << spec.service << " " << fn;
      EXPECT_FALSE(spec.sm.is_consume(fn)) << spec.service << " " << fn;
    }
    // Simulating the walk from s0 must land exactly on reached_state.
    std::string simulated = c3::DescStateMachine::kInitial;
    for (const auto& fn : walk) {
      EXPECT_TRUE(spec.sm.valid(simulated, fn)) << spec.service << " " << state;
      simulated = spec.sm.next_state(simulated, fn);
    }
    EXPECT_EQ(simulated, spec.sm.reached_state(state)) << spec.service << " " << state;
  }
}

TEST_P(SpecSmProperty, TerminalFnsAreValidSomewhere) {
  const auto spec = GetParam().make();
  for (const auto& terminal : spec.sm.terminal_fns()) {
    bool valid_somewhere = false;
    for (const auto& state : spec.sm.states()) {
      if (spec.sm.valid(state, terminal)) valid_somewhere = true;
    }
    EXPECT_TRUE(valid_somewhere) << spec.service << " " << terminal;
  }
}

// The compiled runtime is the name-level model interned: FnIds in declaration
// order, StateIds s0 = 0, then the other live states in name order, closed
// last. Every runtime table must equal the model mapped through that rule.
TEST_P(SpecSmProperty, RuntimeTablesMatchNameLevelModel) {
  const auto spec = GetParam().make();
  const c3::DescStateMachine& sm = spec.sm;
  const c3::CompiledRuntime& rt = spec.compiled();

  std::map<std::string, c3::StateId> state_ids{{DescStateMachine::kInitial, c3::kStateInitial}};
  for (const auto& state : sm.states()) {
    if (state != DescStateMachine::kInitial) {
      state_ids.emplace(state, static_cast<c3::StateId>(state_ids.size()));
    }
  }
  ASSERT_EQ(rt.live_state_count(), sm.states().size());
  ASSERT_EQ(rt.live_state_count(), state_ids.size());
  EXPECT_EQ(rt.closed_state(), static_cast<c3::StateId>(state_ids.size()));
  state_ids.emplace(DescStateMachine::kClosed, rt.closed_state());

  ASSERT_EQ(rt.fn_count(), spec.fns.size());
  auto fn_ids = [&rt](const std::vector<std::string>& names) {
    std::vector<c3::FnId> ids;
    for (const auto& name : names) ids.push_back(rt.fn_id(name));
    return ids;
  };
  for (std::size_t i = 0; i < spec.fns.size(); ++i) {
    const std::string& name = spec.fns[i].name;
    const c3::FnId id = rt.fn_id(name);
    EXPECT_EQ(id, static_cast<c3::FnId>(i)) << name;
    std::uint8_t flags = 0;
    if (sm.is_creation(name)) flags |= c3::FnFlags::kCreation;
    if (sm.is_terminal(name)) flags |= c3::FnFlags::kTerminal;
    if (sm.is_block(name)) flags |= c3::FnFlags::kBlock;
    if (sm.is_wakeup(name)) flags |= c3::FnFlags::kWakeup;
    if (sm.is_consume(name)) flags |= c3::FnFlags::kConsume;
    EXPECT_EQ(rt.fn(id).flags, flags) << name;
    EXPECT_EQ(rt.fn(id).next_state, state_ids.at(sm.state_of_fn(name))) << name;
    for (const auto& state : sm.states()) {
      EXPECT_EQ(rt.valid(state_ids.at(state), id), sm.valid(state, name)) << state << " " << name;
    }
  }
  for (const auto& state : sm.states()) {
    const c3::StateId id = state_ids.at(state);
    EXPECT_EQ(rt.recovery_walk(id), fn_ids(sm.recovery_walk(state))) << state;
    EXPECT_EQ(rt.walk_land(id), state_ids.at(sm.reached_state(state))) << state;
  }
  EXPECT_EQ(rt.restore_fns(), fn_ids(sm.restore_fns()));
  EXPECT_EQ(rt.creation_fn(), rt.fn_id(spec.creation_fn().name));
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, SpecSmProperty,
                         ::testing::Values(SpecCase{"sched", &gen::make_sched_spec},
                                           SpecCase{"lock", &gen::make_lock_spec},
                                           SpecCase{"mman", &gen::make_mman_spec},
                                           SpecCase{"ramfs", &gen::make_ramfs_spec},
                                           SpecCase{"evt", &gen::make_evt_spec},
                                           SpecCase{"tmr", &gen::make_tmr_spec}));

// Ids outside the runtime's tables are never valid: an fn id past the last
// function must not read the next state's row or run off the matrix.
TEST(CompiledRuntimeTest, ValidRejectsIdsOutsideTheTables) {
  const c3::InterfaceSpec spec = gen::make_lock_spec();
  const c3::CompiledRuntime& rt = spec.compiled();
  ASSERT_EQ(rt.fn_count(), 4u);
  ASSERT_EQ(rt.live_state_count(), 2u);
  const auto fns = static_cast<c3::FnId>(rt.fn_count());
  const auto states = static_cast<c3::StateId>(rt.live_state_count());
  for (c3::StateId state = -1; state <= states; ++state) {
    for (const c3::FnId fn : {c3::kNoFn, fns, fns + 2, fns + 4}) {
      EXPECT_FALSE(rt.valid(state, fn)) << state << " " << fn;
    }
  }
  for (c3::FnId fn = 0; fn < fns; ++fn) {
    EXPECT_FALSE(rt.valid(c3::kNoState, fn)) << fn;
    EXPECT_FALSE(rt.valid(states, fn)) << fn;
    EXPECT_FALSE(rt.valid(rt.closed_state(), fn)) << fn;
  }
}

// validate() is the one place a spec is interned: before it there is no
// runtime, and a copy carries the one it built.
TEST(CompiledRuntimeTest, OnlyValidateBuildsTheRuntime) {
  const c3::InterfaceSpec lock = gen::make_lock_spec();
  c3::InterfaceSpec spec;
  spec.service = lock.service;
  spec.desc_block = lock.desc_block;
  spec.desc_has_data = lock.desc_has_data;
  spec.fns = lock.fns;
  spec.sm = lock.sm;
  EXPECT_THROW(spec.compiled(), AssertionError);
  spec.validate();
  const c3::InterfaceSpec copy = spec;
  EXPECT_EQ(copy.compiled().fn_id("lock_release"), 2);
  EXPECT_EQ(copy.compiled().state_name(copy.compiled().fn(1).next_state), "after_lock_take");
}

}  // namespace
}  // namespace sg
