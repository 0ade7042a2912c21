#pragma once

#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "c3/ids.hpp"
#include "c3/state_machine.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace sg::c3 {

/// How a parameter participates in descriptor tracking (Table I, bottom).
enum class ParamRole {
  kPlain,       ///< Not tracked; replay uses the live argument only.
  kDesc,        ///< `desc(id)` — looks up the descriptor; rewritten on replay.
  kParentDesc,  ///< `parent_desc(id)` — tracked as the parent link (P_dr).
  kDescData,    ///< `desc_data(type name)` — tracked into D_{d_r}.
  kClientId,    ///< `componentid_t` — auto-filled with the invoking component.
};

const char* to_string(ParamRole role);

struct ParamSpec {
  std::string type;
  std::string name;
  ParamRole role = ParamRole::kPlain;
};

/// One interface function f_i ∈ I_{d_r}, with its tracking annotations.
struct FnSpec {
  std::string name;
  std::string ret_type = "int";

  /// `desc_data_retval(type, name)` on a creation fn: the return value is the
  /// new descriptor id, tracked under `ret_data_name`.
  bool ret_is_desc = false;
  std::string ret_data_name;

  /// `desc_data_retadd(name)`: a successful (>=0) return value is *added* to
  /// tracked datum `name` (e.g., tread/twrite advance the file offset).
  std::optional<std::string> ret_adds_to;

  std::vector<ParamSpec> params;

  /// Index of the kDesc param, or -1 (creation fns have none).
  int desc_param() const;
  /// Index of the kParentDesc param, or -1.
  int parent_param() const;
};

/// P_{d_r}: inter-descriptor dependency shape.
enum class ParentKind { kSolo, kParent, kXCParent };

const char* to_string(ParentKind kind);

/// The §III-C recovery mechanisms an interface's model selects.
using MechanismSet = std::set<trace::Mechanism>;

/// Renders e.g. "{R0,T0,T1}".
std::string to_string(const MechanismSet& mechanisms);

/// Per-function record of the compiled runtime: everything the stub engine
/// needs on the hot path, pre-resolved into dense ids and indexes so one
/// invocation costs array loads instead of string map lookups. The
/// declaration itself is `InterfaceSpec::fns[id]`.
struct CompiledFn {
  std::uint8_t flags = 0;              ///< FnFlags bits from the state machine.
  int desc_idx = -1;                   ///< Index of the kDesc param, or -1.
  int parent_idx = -1;                 ///< Index of the kParentDesc param, or -1.
  StateId next_state = kNoState;       ///< σ target after successful completion.
  FieldId ret_field = kNoField;        ///< desc_data_retval tracking field.
  FieldId ret_add_field = kNoField;    ///< desc_data_retadd accumulation field.
  std::vector<FieldId> param_fields;   ///< Per param: D_{d_r} field, kNoField if untracked.

  bool is_creation() const { return (flags & FnFlags::kCreation) != 0; }
  bool is_terminal() const { return (flags & FnFlags::kTerminal) != 0; }
  bool is_block() const { return (flags & FnFlags::kBlock) != 0; }
};

/// The interned, flat-table form of an InterfaceSpec: the one place where
/// the interface's names become ids, built by `InterfaceSpec::validate()`.
/// Fn ids are the *declaration order* of `InterfaceSpec::fns` — the id space
/// the generated stubs and typed clients compile against. State ids put s0
/// first (kStateInitial == 0), the other live states in name order, and the
/// closed pseudo-state last. Field ids are assigned in first-declaration
/// order across the fns.
class CompiledRuntime {
 public:
  FnId fn_id(const std::string& name) const {
    auto it = fn_ids_.find(name);
    return it == fn_ids_.end() ? kNoFn : it->second;
  }
  const CompiledFn& fn(FnId id) const { return fns_[static_cast<std::size_t>(id)]; }
  std::size_t fn_count() const { return fns_.size(); }

  FieldId field_id(const std::string& name) const {
    auto it = field_ids_.find(name);
    return it == field_ids_.end() ? kNoField : it->second;
  }
  const std::string& field_name(FieldId id) const {
    return field_names_[static_cast<std::size_t>(id)];
  }
  std::size_t field_count() const { return field_names_.size(); }

  /// The state machine's name for `state` (closed_state() included).
  const std::string& state_name(StateId state) const {
    return state_names_[static_cast<std::size_t>(state)];
  }

  /// σ-validity of `fn` out of `state`, over the dense matrix; false for
  /// any id outside it.
  bool valid(StateId state, FnId fn) const {
    if (state < 0 || state >= closed_state() || fn < 0 ||
        fn >= static_cast<FnId>(fns_.size())) {
      return false;
    }
    return valid_[static_cast<std::size_t>(state) * fns_.size() +
                  static_cast<std::size_t>(fn)] != 0;
  }

  /// The R0 walk for `state`, as declaration-order fn ids.
  const std::vector<FnId>& recovery_walk(StateId state) const {
    return walks_[static_cast<std::size_t>(state)];
  }
  StateId walk_land(StateId state) const { return walk_lands_[static_cast<std::size_t>(state)]; }
  const std::vector<FnId>& restore_fns() const { return restore_; }
  FnId creation_fn() const { return creation_; }
  std::size_t live_state_count() const { return live_states_; }
  StateId closed_state() const { return static_cast<StateId>(live_states_); }

 private:
  friend struct InterfaceSpec;

  std::vector<CompiledFn> fns_;
  std::unordered_map<std::string, FnId> fn_ids_;
  std::vector<std::string> field_names_;
  std::unordered_map<std::string, FieldId> field_ids_;
  std::vector<std::string> state_names_;  ///< Live states, then closed.
  std::vector<std::uint8_t> valid_;       ///< live_states × fns.
  std::vector<std::vector<FnId>> walks_;
  std::vector<StateId> walk_lands_;
  std::vector<FnId> restore_;
  FnId creation_ = kNoFn;
  std::size_t live_states_ = 0;
};

/// The full compiled interface description: the descriptor-resource model
/// DR = (B_r, D_r, G_dr, P_dr, C_dr, Y_dr, D_dr) plus the descriptor state
/// machine and function specs. Produced by the SuperGlue IDL compiler (or by
/// generated code), consumed by the stub engine and the recovery coordinator.
struct InterfaceSpec {
  std::string service;  ///< e.g. "evt", "lock", "mman".

  // --- descriptor-resource model flags (service_global_info block) ---------
  bool desc_block = false;           ///< B_r.
  bool resc_has_data = false;        ///< D_r ≠ ∅.
  bool desc_is_global = false;       ///< G_{d_r}.
  ParentKind parent = ParentKind::kSolo;  ///< P_{d_r}.
  bool desc_close_children = false;  ///< C_{d_r}.
  bool desc_close_remove = false;    ///< Y_{d_r}.
  bool desc_has_data = false;        ///< D_{d_r} ≠ ∅.

  std::vector<FnSpec> fns;
  DescStateMachine sm;

  const FnSpec* find_fn(const std::string& name) const;
  const FnSpec& fn(const std::string& name) const;

  /// The single creation fn used for replay (first sm_creation fn declared).
  const FnSpec& creation_fn() const;

  /// The interned runtime validate() built. A spec changed after validate()
  /// must be validated again.
  const CompiledRuntime& compiled() const {
    SG_ASSERT_MSG(runtime_.live_state_count() != 0, service + ": compiled() before validate()");
    return runtime_;
  }
  /// Tracked-data field id, kNoField if unknown.
  FieldId field_id(const std::string& name) const { return compiled().field_id(name); }

  /// Which recovery mechanisms this interface requires (§III-C mapping):
  /// R0/T1 always; T0 iff B_r; D0 iff C_dr; D1 iff P_dr != Solo;
  /// G0 iff G_dr; G1 iff D_r; U0 iff G_dr or P_dr == XCParent.
  MechanismSet mechanisms() const;

  /// Model-consistency validation (throws sg::AssertionError):
  ///  - Y_dr == (P_dr != Solo && !C_dr)            [§III-A]
  ///  - I_block ≠ ∅  <->  B_r                      [§III-B]
  ///  - every non-plain annotation is consistent (<=1 desc param, parent
  ///    param only when P_dr != Solo, desc_data only when D_dr, ...)
  ///  - replayability: every param of every creation/walk/restore fn is
  ///    derivable at recovery time (desc, parent, tracked data, client id)
  ///  - D_dr fits the fixed per-descriptor field array (TrackedDesc).
  /// Then interns the spec into the runtime compiled() returns.
  void validate();

 private:
  /// Interns this (validated) spec.
  CompiledRuntime compile() const;

  CompiledRuntime runtime_;
};

}  // namespace sg::c3
