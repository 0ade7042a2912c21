#include "c3/interface_spec.hpp"

#include <map>

#include "c3/desc_track.hpp"
#include "util/assert.hpp"

namespace sg::c3 {

const char* to_string(ParamRole role) {
  switch (role) {
    case ParamRole::kPlain: return "plain";
    case ParamRole::kDesc: return "desc";
    case ParamRole::kParentDesc: return "parent_desc";
    case ParamRole::kDescData: return "desc_data";
    case ParamRole::kClientId: return "client_id";
  }
  return "?";
}

const char* to_string(ParentKind kind) {
  switch (kind) {
    case ParentKind::kSolo: return "Solo";
    case ParentKind::kParent: return "Parent";
    case ParentKind::kXCParent: return "XCParent";
  }
  return "?";
}

std::string to_string(const MechanismSet& mechanisms) {
  std::string out = "{";
  for (const trace::Mechanism m : mechanisms) {
    if (out.size() > 1) out += ",";
    out += trace::to_string(m);
  }
  return out + "}";
}

int FnSpec::desc_param() const {
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i].role == ParamRole::kDesc) return static_cast<int>(i);
  }
  return -1;
}

int FnSpec::parent_param() const {
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i].role == ParamRole::kParentDesc) return static_cast<int>(i);
  }
  return -1;
}

const FnSpec* InterfaceSpec::find_fn(const std::string& name) const {
  for (const auto& fn_spec : fns) {
    if (fn_spec.name == name) return &fn_spec;
  }
  return nullptr;
}

const FnSpec& InterfaceSpec::fn(const std::string& name) const {
  const FnSpec* found = find_fn(name);
  SG_ASSERT_MSG(found != nullptr, service + ": unknown interface fn " + name);
  return *found;
}

const FnSpec& InterfaceSpec::creation_fn() const {
  SG_ASSERT_MSG(!sm.creation_fns().empty(), service + ": no creation fn");
  for (const auto& fn_spec : fns) {
    if (sm.is_creation(fn_spec.name)) return fn_spec;
  }
  SG_ASSERT_MSG(false, service + ": creation fn missing from fn list");
  __builtin_unreachable();
}

CompiledRuntime InterfaceSpec::compile() const {
  CompiledRuntime rt;

  // State ids: s0 first, the other live states in name order, closed last.
  std::map<std::string, StateId> state_ids;
  auto intern_state = [&rt, &state_ids](const std::string& name) {
    state_ids.emplace(name, static_cast<StateId>(rt.state_names_.size()));
    rt.state_names_.push_back(name);
  };
  intern_state(DescStateMachine::kInitial);
  for (const auto& state : sm.states()) {
    if (state != DescStateMachine::kInitial) intern_state(state);
  }
  rt.live_states_ = rt.state_names_.size();
  intern_state(DescStateMachine::kClosed);

  // Fn ids in declaration order; per-fn metadata pre-resolved.
  auto intern_field = [&rt](const std::string& name) -> FieldId {
    auto it = rt.field_ids_.find(name);
    if (it != rt.field_ids_.end()) return it->second;
    const FieldId id = static_cast<FieldId>(rt.field_names_.size());
    rt.field_names_.push_back(name);
    rt.field_ids_.emplace(name, id);
    return id;
  };
  rt.fns_.reserve(fns.size());
  for (std::size_t i = 0; i < fns.size(); ++i) {
    const FnSpec& decl = fns[i];
    rt.fn_ids_.emplace(decl.name, static_cast<FnId>(i));
    if (rt.creation_ == kNoFn && sm.is_creation(decl.name)) rt.creation_ = static_cast<FnId>(i);
    CompiledFn cfn;
    if (sm.is_creation(decl.name)) cfn.flags |= FnFlags::kCreation;
    if (sm.is_terminal(decl.name)) cfn.flags |= FnFlags::kTerminal;
    if (sm.is_block(decl.name)) cfn.flags |= FnFlags::kBlock;
    if (sm.is_wakeup(decl.name)) cfn.flags |= FnFlags::kWakeup;
    if (sm.is_consume(decl.name)) cfn.flags |= FnFlags::kConsume;
    if (const std::string* state = sm.find_state_of_fn(decl.name)) {
      cfn.next_state = state_ids.at(*state);
    }
    cfn.desc_idx = decl.desc_param();
    cfn.parent_idx = decl.parent_param();
    cfn.param_fields.reserve(decl.params.size());
    for (const auto& param : decl.params) {
      cfn.param_fields.push_back(param.role == ParamRole::kDescData ? intern_field(param.name)
                                                                    : kNoField);
    }
    if (decl.ret_is_desc && !decl.ret_data_name.empty()) {
      cfn.ret_field = intern_field(decl.ret_data_name);
    }
    if (decl.ret_adds_to.has_value()) cfn.ret_add_field = intern_field(*decl.ret_adds_to);
    rt.fns_.push_back(std::move(cfn));
  }
  SG_ASSERT_MSG(rt.field_names_.size() <= TrackedDesc::kMaxFields,
                service + ": too many tracked D_dr fields for TrackedDesc");

  // σ-validity matrix, recovery walks and restore list over those ids.
  auto fn_ids = [this, &rt](const std::vector<std::string>& names) {
    std::vector<FnId> ids;
    for (const auto& name : names) {
      ids.push_back(rt.fn_id(name));
      SG_ASSERT_MSG(ids.back() != kNoFn, service + ": sm fn " + name + " not in fn list");
    }
    return ids;
  };
  rt.valid_.assign(rt.live_states_ * fns.size(), 0);
  for (std::size_t s = 0; s < rt.live_states_; ++s) {
    const std::string& state = rt.state_names_[s];
    for (std::size_t f = 0; f < fns.size(); ++f) {
      rt.valid_[s * fns.size() + f] = sm.valid(state, fns[f].name) ? 1 : 0;
    }
    rt.walks_.push_back(fn_ids(sm.recovery_walk(state)));
    rt.walk_lands_.push_back(state_ids.at(sm.reached_state(state)));
  }
  rt.restore_ = fn_ids(sm.restore_fns());
  return rt;
}

MechanismSet InterfaceSpec::mechanisms() const {
  using trace::Mechanism;
  MechanismSet set{Mechanism::kR0, Mechanism::kT1};
  if (desc_block) set.insert(Mechanism::kT0);
  if (desc_close_children) set.insert(Mechanism::kD0);
  if (parent != ParentKind::kSolo) set.insert(Mechanism::kD1);
  if (desc_is_global) set.insert(Mechanism::kG0);
  if (resc_has_data) set.insert(Mechanism::kG1);
  if (desc_is_global || parent == ParentKind::kXCParent) set.insert(Mechanism::kU0);
  return set;
}

void InterfaceSpec::validate() {
  SG_ASSERT_MSG(!service.empty(), "interface spec without a service name");
  SG_ASSERT_MSG(sm.finalized(), service + ": state machine not finalized");

  // Y_dr ≡ P_dr != Solo ∧ ¬C_dr (§III-A).
  const bool expected_y = (parent != ParentKind::kSolo) && !desc_close_children;
  SG_ASSERT_MSG(desc_close_remove == expected_y,
                service + ": desc_close_remove must equal (P != Solo && !C), model rule Y_dr");

  // I_block ≠ ∅ <-> B_r (§III-B).
  SG_ASSERT_MSG(sm.block_fns().empty() == !desc_block,
                service + ": sm_block set must be non-empty iff desc_block");
  // Every blocking interface needs a wakeup counterpart for T0.
  if (desc_block) {
    SG_ASSERT_MSG(!sm.wakeup_fns().empty(), service + ": desc_block without sm_wakeup fn");
  }

  for (const auto& fn_spec : fns) {
    int desc_params = 0;
    int parent_params = 0;
    for (const auto& param : fn_spec.params) {
      if (param.role == ParamRole::kDesc) ++desc_params;
      if (param.role == ParamRole::kParentDesc) ++parent_params;
      if (param.role == ParamRole::kParentDesc) {
        SG_ASSERT_MSG(parent != ParentKind::kSolo,
                      service + "." + fn_spec.name + ": parent_desc param but P_dr == Solo");
      }
      if (param.role == ParamRole::kDescData) {
        SG_ASSERT_MSG(desc_has_data,
                      service + "." + fn_spec.name + ": desc_data param but !desc_has_data");
      }
    }
    SG_ASSERT_MSG(desc_params <= 1, service + "." + fn_spec.name + ": multiple desc params");
    SG_ASSERT_MSG(parent_params <= 1, service + "." + fn_spec.name + ": multiple parent params");

    const bool is_create = sm.is_creation(fn_spec.name);
    if (is_create) {
      SG_ASSERT_MSG(fn_spec.desc_param() == -1,
                    service + "." + fn_spec.name + ": creation fn cannot take a desc param");
      SG_ASSERT_MSG(fn_spec.ret_is_desc,
                    service + "." + fn_spec.name +
                        ": creation fn needs desc_data_retval to name the new descriptor");
    } else {
      // Non-creation fns must address a descriptor to be trackable.
      SG_ASSERT_MSG(fn_spec.desc_param() != -1,
                    service + "." + fn_spec.name + ": non-creation fn without desc param");
    }
  }

  // Replayability: every param of every fn the recovery can replay (the
  // creation fn, sm_restore fns, and every fn on some recovery walk) must be
  // derivable from tracked state at recovery time.
  auto check_replayable = [this](const FnSpec& fn_spec) {
    for (const auto& param : fn_spec.params) {
      const bool derivable = param.role != ParamRole::kPlain;
      SG_ASSERT_MSG(derivable, service + "." + fn_spec.name + ": param '" + param.name +
                                   "' is not derivable at recovery time (annotate it as desc, "
                                   "parent_desc, desc_data, or use componentid_t)");
    }
  };
  check_replayable(creation_fn());
  for (const auto& restore_name : sm.restore_fns()) check_replayable(fn(restore_name));
  for (const auto& state : sm.states()) {
    for (const auto& walk_fn : sm.recovery_walk(state)) check_replayable(fn(walk_fn));
  }

  // Interning enforces the remaining limits (e.g. D_dr must fit
  // TrackedDesc's fixed field array).
  runtime_ = compile();
}

}  // namespace sg::c3
