#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace sg::c3 {

/// Runtime descriptor state machine SM = (I, S, σ, s0, sf) from §III-B.
///
/// States are *implicit*, as in the paper: the IDL declares which interface
/// function may follow which (`sm_transition(f, g)`), and the compiler infers
/// the state set. A state is an equivalence class of "descriptor after
/// executing f" situations; two functions whose outgoing transition sets are
/// identical land the descriptor in the same state (e.g., tread/twrite/tlseek
/// all leave a file "open at an offset").
///
/// The recovery walk (R0) is precomputed per state by BFS over non-blocking
/// edges: blocking functions are never replayed during recovery — a blocked
/// condition is re-established by the client's own redo of its in-flight
/// call, not by the walk (see DESIGN.md). Functions marked `sm_restore` are
/// replayed right after creation whenever the descriptor is live, restoring
/// tracked descriptor data (e.g., tlseek restores the file offset).
///
/// The machine speaks only in names. The owning InterfaceSpec interns it
/// into dense ids once, in its CompiledRuntime, which the stub engine uses.
class DescStateMachine {
 public:
  /// Well-known state names.
  static constexpr const char* kInitial = "s0";   ///< Fresh descriptor (§III-B s_0).
  static constexpr const char* kFaulty = "sf";    ///< After server fault (s_f).
  static constexpr const char* kClosed = "closed";

  /// Declares that `to_fn` may legally follow `from_fn` on a descriptor.
  void add_transition(const std::string& from_fn, const std::string& to_fn);

  void set_creation(const std::string& fn);
  void set_terminal(const std::string& fn);
  void set_block(const std::string& fn);
  void set_wakeup(const std::string& fn);
  void set_restore(const std::string& fn);
  /// Marks a fn whose completion *consumes* a one-shot condition (e.g.
  /// evt_wait consumes a trigger). Consuming edges are never replayed in
  /// recovery walks; a state entered only by consuming fns recovers to s0.
  void set_consume(const std::string& fn);

  const std::set<std::string>& creation_fns() const { return creation_; }
  const std::set<std::string>& terminal_fns() const { return terminal_; }
  const std::set<std::string>& block_fns() const { return block_; }
  const std::set<std::string>& wakeup_fns() const { return wakeup_; }
  const std::vector<std::string>& restore_fns() const { return restore_; }
  const std::set<std::string>& consume_fns() const { return consume_; }

  bool is_creation(const std::string& fn) const { return creation_.count(fn) != 0; }
  bool is_terminal(const std::string& fn) const { return terminal_.count(fn) != 0; }
  bool is_block(const std::string& fn) const { return block_.count(fn) != 0; }
  bool is_wakeup(const std::string& fn) const { return wakeup_.count(fn) != 0; }
  bool is_consume(const std::string& fn) const { return consume_.count(fn) != 0; }

  /// Infers the state set, merges equivalent states, and precomputes the
  /// shortest recovery walks. Must be called once before query methods;
  /// throws sg::AssertionError on an inconsistent machine (e.g., a terminal
  /// function that is also a creation function).
  void finalize();
  bool finalized() const { return finalized_; }

  /// σ(state, fn): the state a descriptor enters when `fn` completes on it.
  /// Returns kClosed for terminal fns. Precondition: valid(state, fn).
  std::string next_state(const std::string& state, const std::string& fn) const;

  /// Fault-detection half of the model (§III-B motivation #1): is `fn` a
  /// legal transition out of `state`? Creation fns are only valid "before"
  /// a descriptor exists and are checked separately.
  bool valid(const std::string& state, const std::string& fn) const;

  /// The precomputed R0 walk: the (possibly empty) sequence of non-blocking
  /// interface functions that transits a *recreated* descriptor (already
  /// re-created via its creation fn and sm_restore fns) from s0 to `state`.
  /// If `state` is only reachable through a blocking edge, the walk stops at
  /// the last reachable state before the block; reached_state() tells where
  /// the walk lands.
  const std::vector<std::string>& recovery_walk(const std::string& state) const;

  /// Where recovery_walk(state) actually lands (== state unless the full
  /// path requires a blocking function).
  const std::string& reached_state(const std::string& state) const;

  /// All inferred states (after merging), excluding sf/closed, sorted.
  std::vector<std::string> states() const;

  /// The merged state name that executing `fn` leads to.
  const std::string& state_of_fn(const std::string& fn) const;
  /// state_of_fn, or nullptr for a fn that leads to no state (unknown to
  /// the machine, or only marked block/wakeup/consume/restore).
  const std::string* find_state_of_fn(const std::string& fn) const;

  /// Number of states (excluding sf/closed) — the |S| of Eq. (2).
  std::size_t state_count() const;

 private:
  /// A live state: the fns σ-valid out of it and its R0 walk.
  struct LiveState {
    std::set<std::string> valid_fns;
    std::vector<std::string> walk;
    std::string walk_land = kInitial;
  };

  void require_finalized() const;
  const LiveState& live_state(const std::string& state) const;

  // Build inputs (retained for the *_fns() accessors and codegen).
  std::set<std::string> creation_;
  std::set<std::string> terminal_;
  std::set<std::string> block_;
  std::set<std::string> wakeup_;
  std::set<std::string> consume_;
  std::vector<std::string> restore_;
  std::vector<std::pair<std::string, std::string>> transitions_;

  bool finalized_ = false;

  // Built by finalize().
  std::map<std::string, std::string> fn_state_;  ///< σ: fn -> state it leads to.
  std::map<std::string, LiveState> live_;        ///< Live states by name (s0 included).
};

}  // namespace sg::c3
