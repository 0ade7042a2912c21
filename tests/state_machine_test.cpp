#include <gtest/gtest.h>

#include <ostream>

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

INSTANTIATE_TEST_SUITE_P(AllSpecs, SpecSmProperty,
                         ::testing::Values(SpecCase{"sched", &gen::make_sched_spec},
                                           SpecCase{"lock", &gen::make_lock_spec},
                                           SpecCase{"mman", &gen::make_mman_spec},
                                           SpecCase{"ramfs", &gen::make_ramfs_spec},
                                           SpecCase{"evt", &gen::make_evt_spec},
                                           SpecCase{"tmr", &gen::make_tmr_spec}));

}  // namespace
}  // namespace sg
