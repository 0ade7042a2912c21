#include "c3/state_machine.hpp"

#include <algorithm>
#include <deque>

#include "util/assert.hpp"

namespace sg::c3 {

void DescStateMachine::add_transition(const std::string& from_fn, const std::string& to_fn) {
  SG_ASSERT_MSG(!finalized_, "add_transition after finalize");
  transitions_.emplace_back(from_fn, to_fn);
}

void DescStateMachine::set_creation(const std::string& fn) { creation_.insert(fn); }
void DescStateMachine::set_terminal(const std::string& fn) { terminal_.insert(fn); }
void DescStateMachine::set_block(const std::string& fn) { block_.insert(fn); }
void DescStateMachine::set_wakeup(const std::string& fn) { wakeup_.insert(fn); }
void DescStateMachine::set_consume(const std::string& fn) { consume_.insert(fn); }

void DescStateMachine::set_restore(const std::string& fn) {
  if (std::find(restore_.begin(), restore_.end(), fn) == restore_.end()) restore_.push_back(fn);
}

void DescStateMachine::finalize() {
  SG_ASSERT_MSG(!finalized_, "finalize called twice");
  SG_ASSERT_MSG(!creation_.empty(), "state machine needs at least one sm_creation fn");
  for (const auto& fn : terminal_) {
    SG_ASSERT_MSG(creation_.count(fn) == 0, "fn is both creation and terminal: " + fn);
  }

  // Collect every function and its outgoing transition set. Only creation,
  // terminal, and transition fns participate in state inference; block/
  // wakeup/consume/restore fns outside the transition graph shape no states.
  std::map<std::string, std::set<std::string>> outgoing;
  auto touch = [&outgoing](const std::string& fn) { outgoing.emplace(fn, std::set<std::string>{}); };
  for (const auto& fn : creation_) touch(fn);
  for (const auto& fn : terminal_) touch(fn);
  for (const auto& [from, to] : transitions_) {
    touch(from);
    touch(to);
    outgoing[from].insert(to);
  }

  // Infer states: "after f" situations merge when outgoing sets are equal
  // (the paper's implicit-state rule). Any class containing a creation fn is
  // the initial state s0; terminal fns land in the closed pseudo-state. A
  // class's members arrive in name order, so "after_" names its first fn.
  std::map<std::set<std::string>, std::vector<std::string>> classes;
  for (const auto& [fn, out] : outgoing) {
    if (terminal_.count(fn) == 0) classes[out].push_back(fn);  // after-terminal == closed.
  }
  live_[kInitial];  // s0 exists even with no edges.
  for (const auto& [out, members] : classes) {
    const bool has_create =
        std::any_of(members.begin(), members.end(),
                    [this](const std::string& fn) { return creation_.count(fn) != 0; });
    const std::string state = has_create ? std::string(kInitial) : "after_" + members.front();
    for (const auto& fn : members) fn_state_[fn] = state;
    live_[state].valid_fns.insert(out.begin(), out.end());
  }
  for (const auto& fn : terminal_) fn_state_[fn] = kClosed;

  // Precompute recovery walks: BFS from s0, trying each state's valid fns in
  // name order. Blocking edges are allowed (a re-taken lock legitimately
  // contends at the recovering thread's priority); terminal and consuming
  // edges never appear (a walk never closes a descriptor nor re-consumes a
  // one-shot condition).
  std::map<std::string, std::vector<std::string>> best{{kInitial, {}}};
  std::deque<std::string> frontier{kInitial};
  while (!frontier.empty()) {
    const std::string state = frontier.front();
    frontier.pop_front();
    for (const auto& fn : live_.at(state).valid_fns) {
      if (terminal_.count(fn) != 0 || consume_.count(fn) != 0) continue;
      const std::string& next = fn_state_.at(fn);
      if (best.count(next) != 0) continue;
      auto path = best[state];
      path.push_back(fn);
      best[next] = std::move(path);
      frontier.push_back(next);
    }
  }
  // A state missing from `best` is unreachable without closing the
  // descriptor: it recovers to s0 (the empty walk) and the client's
  // in-flight redo drives the rest.
  for (auto& [state, live] : live_) {
    auto it = best.find(state);
    if (it == best.end()) continue;
    live.walk = std::move(it->second);
    live.walk_land = state;
  }

  finalized_ = true;
}

void DescStateMachine::require_finalized() const {
  SG_ASSERT_MSG(finalized_, "DescStateMachine used before finalize()");
}

const DescStateMachine::LiveState& DescStateMachine::live_state(const std::string& state) const {
  require_finalized();
  auto it = live_.find(state);
  SG_ASSERT_MSG(it != live_.end(), "no recovery walk for state " + state);
  return it->second;
}

std::string DescStateMachine::next_state(const std::string& state, const std::string& fn) const {
  (void)state;  // The machine's states are "after f" classes: σ depends only on fn.
  return state_of_fn(fn);
}

bool DescStateMachine::valid(const std::string& state, const std::string& fn) const {
  require_finalized();
  auto it = live_.find(state);
  return it != live_.end() && it->second.valid_fns.count(fn) != 0;
}

const std::vector<std::string>& DescStateMachine::recovery_walk(const std::string& state) const {
  return live_state(state).walk;
}

const std::string& DescStateMachine::reached_state(const std::string& state) const {
  return live_state(state).walk_land;
}

std::vector<std::string> DescStateMachine::states() const {
  require_finalized();
  std::vector<std::string> out;
  for (const auto& [state, live] : live_) out.push_back(state);
  return out;
}

const std::string& DescStateMachine::state_of_fn(const std::string& fn) const {
  const std::string* state = find_state_of_fn(fn);
  SG_ASSERT_MSG(state != nullptr, "unknown fn: " + fn);
  return *state;
}

const std::string* DescStateMachine::find_state_of_fn(const std::string& fn) const {
  require_finalized();
  auto it = fn_state_.find(fn);
  return it == fn_state_.end() ? nullptr : &it->second;
}

std::size_t DescStateMachine::state_count() const {
  require_finalized();
  return live_.size();
}

}  // namespace sg::c3
