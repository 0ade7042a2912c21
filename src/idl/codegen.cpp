#include "idl/codegen.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <sstream>

#include "util/assert.hpp"
#include "util/string_util.hpp"

namespace sg::idl {

using c3::FnSpec;
using c3::InterfaceSpec;
using c3::ParamRole;
using c3::ParentKind;

namespace {

// --- predicate helpers over the IR -----------------------------------------

bool has_parent(const InterfaceSpec& s) { return s.parent != ParentKind::kSolo; }
bool uses_storage(const InterfaceSpec& s) {
  return s.desc_is_global || s.parent == ParentKind::kXCParent;
}
bool any_desc_param(const InterfaceSpec& s) {
  return std::any_of(s.fns.begin(), s.fns.end(),
                     [](const FnSpec& f) { return f.desc_param() >= 0; });
}
bool any_parent_param(const InterfaceSpec& s) {
  return std::any_of(s.fns.begin(), s.fns.end(),
                     [](const FnSpec& f) { return f.parent_param() >= 0; });
}
bool any_param_role(const InterfaceSpec& s, ParamRole role) {
  for (const auto& f : s.fns) {
    for (const auto& p : f.params) {
      if (p.role == role) return true;
    }
  }
  return false;
}
bool any_retadd(const InterfaceSpec& s) {
  return std::any_of(s.fns.begin(), s.fns.end(),
                     [](const FnSpec& f) { return f.ret_adds_to.has_value(); });
}
bool any_retval(const InterfaceSpec& s) {
  return std::any_of(s.fns.begin(), s.fns.end(), [](const FnSpec& f) { return f.ret_is_desc; });
}
bool has_restore(const InterfaceSpec& s) { return !s.sm.restore_fns().empty(); }
bool has_terminal(const InterfaceSpec& s) { return !s.sm.terminal_fns().empty(); }

/// The static template registry: every (name, target, predicate) pair of the
/// back end. Emission code lives in CodeGenerator::generate(), which fires
/// these entries through `use()`; "templates include calls to other
/// templates" — fragments fire from inside enclosing templates.
struct RegistryEntry {
  const char* name;
  const char* target;
  std::function<bool(const InterfaceSpec&)> predicate;
};

const std::vector<RegistryEntry>& registry() {
  static const std::vector<RegistryEntry> entries = {
      // --- client stub (Fig 4 + Fig 5 + R0/T1/D0/D1/U0 client halves) ------
      {"c.file_header", "client", [](const InterfaceSpec&) { return true; }},
      {"c.includes", "client", [](const InterfaceSpec&) { return true; }},
      {"c.track_struct_open", "client", [](const InterfaceSpec&) { return true; }},
      {"c.track_field_ids", "client", [](const InterfaceSpec&) { return true; }},
      {"c.track_field_state", "client", [](const InterfaceSpec&) { return true; }},
      {"c.track_field_parent", "client", has_parent},
      {"c.track_field_children", "client",
       [](const InterfaceSpec& s) { return s.desc_close_children; }},
      {"c.track_field_data", "client", [](const InterfaceSpec& s) { return s.desc_has_data; }},
      {"c.track_field_creation_args", "client", [](const InterfaceSpec&) { return true; }},
      {"c.track_struct_close", "client", [](const InterfaceSpec&) { return true; }},
      {"c.state_enum", "client", [](const InterfaceSpec&) { return true; }},
      {"c.walk_table", "client", [](const InterfaceSpec&) { return true; }},
      {"c.restore_table", "client", has_restore},
      {"c.desc_table_decl", "client", [](const InterfaceSpec&) { return true; }},
      {"c.epoch_check", "client", [](const InterfaceSpec&) { return true; }},
      {"c.fault_update", "client", [](const InterfaceSpec&) { return true; }},
      {"c.desc_lookup_helper", "client", any_desc_param},
      {"c.replay_args_builder", "client", [](const InterfaceSpec&) { return true; }},
      {"c.recover_decl", "client", [](const InterfaceSpec&) { return true; }},
      {"c.recover_parent_first", "client", has_parent},
      {"c.recover_creation_replay", "client", [](const InterfaceSpec&) { return true; }},
      {"c.recover_id_hint", "client", [](const InterfaceSpec&) { return true; }},
      {"c.recover_restore_calls", "client", has_restore},
      {"c.recover_walk_loop", "client", [](const InterfaceSpec&) { return true; }},
      {"c.recover_retry_bound", "client", [](const InterfaceSpec&) { return true; }},
      {"c.recover_subtree", "client",
       [](const InterfaceSpec& s) { return s.desc_close_children; }},
      {"c.recover_all_eager", "client", [](const InterfaceSpec&) { return true; }},
      {"c.upcall_recreate_export", "client", uses_storage},
      {"c.storage_record_on_create", "client", uses_storage},
      {"c.sm_validity_check", "client", [](const InterfaceSpec&) { return true; }},
      {"c.redo_loop", "client", [](const InterfaceSpec&) { return true; }},
      {"c.fn_desc_translate", "client", any_desc_param},
      {"c.fn_parent_translate", "client", any_parent_param},
      {"c.fn_track_create", "client", [](const InterfaceSpec&) { return true; }},
      {"c.fn_track_terminal", "client", has_terminal},
      {"c.fn_track_transition", "client", [](const InterfaceSpec&) { return true; }},
      {"c.fn_track_retadd", "client", any_retadd},
      {"c.fn_track_data_params", "client",
       [](const InterfaceSpec& s) { return s.desc_has_data; }},
      {"c.block_redo_note", "client", [](const InterfaceSpec& s) { return s.desc_block; }},
      {"c.footer", "client", [](const InterfaceSpec&) { return true; }},

      // --- server stub (T0 eager init, G0/U0 wrapper, G1) -------------------
      {"s.file_header", "server", [](const InterfaceSpec&) { return true; }},
      {"s.includes", "server", [](const InterfaceSpec&) { return true; }},
      {"s.t0_eager_ctor", "server", [](const InterfaceSpec& s) { return s.desc_block; }},
      {"s.t0_wakeup_loop", "server", [](const InterfaceSpec& s) { return s.desc_block; }},
      {"s.t0_priority_inherit", "server", [](const InterfaceSpec& s) { return s.desc_block; }},
      {"s.g0_wrap_open", "server", uses_storage},
      {"s.g0_storage_lookup", "server", uses_storage},
      {"s.g0_upcall_creator", "server", uses_storage},
      {"s.g0_replay_invocation", "server", uses_storage},
      {"s.g1_fetch_on_miss", "server", [](const InterfaceSpec& s) { return s.resc_has_data; }},
      {"s.g1_store_critical", "server", [](const InterfaceSpec& s) { return s.resc_has_data; }},
      {"s.dispatch_table", "server", [](const InterfaceSpec&) { return true; }},
      {"s.einval_passthrough", "server",
       [](const InterfaceSpec& s) { return !uses_storage(s); }},
      {"s.footer", "server", [](const InterfaceSpec&) { return true; }},

      // --- spec builder (compilable IR reconstruction) ----------------------
      {"p.header", "spec", [](const InterfaceSpec&) { return true; }},
      {"p.flags_block", "spec", [](const InterfaceSpec&) { return true; }},
      {"p.flag_parent", "spec", has_parent},
      {"p.flag_global", "spec", [](const InterfaceSpec& s) { return s.desc_is_global; }},
      {"p.flag_block", "spec", [](const InterfaceSpec& s) { return s.desc_block; }},
      {"p.flag_resc_data", "spec", [](const InterfaceSpec& s) { return s.resc_has_data; }},
      {"p.flag_close_children", "spec",
       [](const InterfaceSpec& s) { return s.desc_close_children; }},
      {"p.flag_close_remove", "spec",
       [](const InterfaceSpec& s) { return s.desc_close_remove; }},
      {"p.flag_desc_data", "spec", [](const InterfaceSpec& s) { return s.desc_has_data; }},
      {"p.fn_decls", "spec", [](const InterfaceSpec&) { return true; }},
      {"p.param_desc", "spec",
       [](const InterfaceSpec& s) { return any_param_role(s, ParamRole::kDesc); }},
      {"p.param_parent", "spec",
       [](const InterfaceSpec& s) { return any_param_role(s, ParamRole::kParentDesc); }},
      {"p.param_data", "spec",
       [](const InterfaceSpec& s) { return any_param_role(s, ParamRole::kDescData); }},
      {"p.param_client_id", "spec",
       [](const InterfaceSpec& s) { return any_param_role(s, ParamRole::kClientId); }},
      {"p.param_plain", "spec",
       [](const InterfaceSpec& s) { return any_param_role(s, ParamRole::kPlain); }},
      {"p.retval_tracking", "spec", any_retval},
      {"p.retadd_tracking", "spec", any_retadd},
      {"p.sm_and_finalize", "spec", [](const InterfaceSpec&) { return true; }},
  };
  return entries;
}

int index_of(const std::string& name) {
  const auto& entries = registry();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (name == entries[i].name) return static_cast<int>(i);
  }
  SG_ASSERT_MSG(false, "unknown template: " + name);
  __builtin_unreachable();
}

std::string param_list(const FnSpec& fn) {
  std::vector<std::string> parts;
  for (const auto& p : fn.params) parts.push_back(p.type + " " + p.name);
  return join(parts, ", ");
}

std::string arg_list(const FnSpec& fn) {
  std::vector<std::string> parts;
  for (const auto& p : fn.params) parts.push_back(p.name);
  return join(parts, ", ");
}

}  // namespace

int CodeGenerator::registry_size() { return static_cast<int>(registry().size()); }

CodeGenerator::CodeGenerator(const InterfaceSpec& spec)
    : spec_(spec), use_counts_(registry().size(), 0) {
  SG_ASSERT_MSG(spec_.sm.finalized(), "codegen needs a finalized spec");
}

std::vector<CodeGenerator::TemplateInfo> CodeGenerator::templates() const {
  std::vector<TemplateInfo> infos;
  const auto& entries = registry();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    infos.push_back({entries[i].name, entries[i].target, entries[i].predicate(spec_),
                     use_counts_[i]});
  }
  return infos;
}

GeneratedCode CodeGenerator::generate() {
  const InterfaceSpec& s = spec_;
  const std::string& svc = s.service;
  const std::string SVC = [&svc] {
    std::string up = svc;
    std::transform(up.begin(), up.end(), up.begin(), ::toupper);
    return up;
  }();

  // Interned fn-id tag for a declared fn: its declaration-order index into
  // the interface's fn table, matching c3::CompiledRuntime's id assignment.
  // Declaration order is stable, so generated stubs are byte-reproducible.
  const auto fn_tag = [&SVC](const std::string& fn) {
    std::string tag = SVC + "_FN_" + fn;
    std::transform(tag.begin(), tag.end(), tag.begin(), ::toupper);
    return tag;
  };

  // `use(name)` == this template's predicate fired; emit its body.
  auto use = [this](const std::string& name) -> bool {
    const int idx = index_of(name);
    if (!registry()[static_cast<std::size_t>(idx)].predicate(spec_)) return false;
    ++use_counts_[static_cast<std::size_t>(idx)];
    return true;
  };

  std::ostringstream c;  // client stub
  std::ostringstream v;  // server stub
  std::ostringstream p;  // spec builder

  // ==========================================================================
  // Client stub
  // ==========================================================================
  if (use("c.file_header")) {
    c << "/* Generated by the SuperGlue IDL compiler -- DO NOT EDIT.\n"
      << " * service: " << svc << "\n"
      << " * model: B=" << s.desc_block << " Dr=" << s.resc_has_data << " G=" << s.desc_is_global
      << " P=" << to_string(s.parent) << " C=" << s.desc_close_children
      << " Y=" << s.desc_close_remove << " Dd=" << s.desc_has_data << "\n"
      << " * mechanisms: " << c3::to_string(s.mechanisms()) << " */\n";
  }
  if (use("c.includes")) {
    c << "#include <cstub.h>\n"
      << "#include <cos_component.h>\n"
      << "#include <cvect.h>\n"
      << "#include <" << svc << ".h>\n"
      << "\n"
      << "/* runtime support resolved against the C3 stub library; hot paths\n"
      << " * are keyed by interned fn ids (see the fn-id enum below), with a\n"
      << " * name-based entry kept as a compatibility shim. */\n"
      << "extern long sg_invoke_id(spdid_t spd, int fn, long *args);\n"
      << "extern long sg_invoke(spdid_t spd, const char *fn, long *args); /* compat shim */\n"
      << "extern long cos_fault_cnt(spdid_t spd);\n"
      << "extern void sg_replay_args_from_model(void *tb, int fn, long *args);\n"
      << "extern int sg_sm_valid_transition(int state, int fn);\n"
      << "extern int sg_sm_next(int state, int fn);\n\n";
  }
  if (use("c.track_struct_open")) {
    c << "/* Per-descriptor tracking block (bounded: no operation log). */\n"
      << "struct track_block_" << svc << " {\n";
  }
  if (use("c.track_field_ids")) {
    c << "\tlong vid;\t\t/* client-visible id (stable across faults) */\n"
      << "\tlong sid;\t\t/* current server-side id */\n";
  }
  if (use("c.track_field_state")) c << "\tenum " << svc << "_desc_state state;\n";
  if (use("c.track_field_parent")) c << "\tlong parent_vid;\t/* D1 ordering */\n";
  if (use("c.track_field_children")) c << "\tstruct cvect children;\t/* D0 subtree */\n";
  if (use("c.track_field_data")) {
    c << "\t/* D_dr tracked data (Table I desc_data annotations): */\n";
    std::map<std::string, std::string> data_fields;
    for (const auto& fn : s.fns) {
      for (const auto& prm : fn.params) {
        if (prm.role == ParamRole::kDescData) data_fields[prm.name] = prm.type;
      }
      if (fn.ret_adds_to.has_value()) data_fields.emplace(*fn.ret_adds_to, "long");
    }
    for (const auto& [name, type] : data_fields) c << "\t" << type << " " << name << ";\n";
  }
  if (use("c.track_field_creation_args")) {
    c << "\tlong creation_args[" << 4 << "];\t/* verbatim args for R0 replay */\n"
      << "\tint faulty;\t\t/* in s_f; recover on next touch (T1) */\n";
  }
  if (use("c.track_struct_close")) c << "};\n\n";

  if (use("c.state_enum")) {
    c << "enum " << svc << "_desc_state {\n";
    for (const auto& state : s.sm.states()) {
      std::string tag = SVC + "_STATE_" + state;
      std::transform(tag.begin(), tag.end(), tag.begin(), ::toupper);
      c << "\t" << tag << ",\n";
    }
    c << "\t" << SVC << "_STATE_SF,\t/* fault state */\n};\n\n";
    c << "/* Interned fn ids: dense declaration-order indices; every table\n"
      << " * below is indexed by these, so the hot path never compares names. */\n"
      << "enum " << svc << "_fn_id {\n";
    for (std::size_t i = 0; i < s.fns.size(); ++i) {
      c << "\t" << fn_tag(s.fns[i].name) << (i == 0 ? " = 0" : "") << ",\n";
    }
    c << "\t" << SVC << "_FN_COUNT,\n};\n\n"
      << "/* id -> wire name, for the string-keyed compat shim and diagnostics. */\n"
      << "static const char * const " << svc << "_fn_names[] = {";
    std::vector<std::string> names;
    for (const auto& fn : s.fns) names.push_back("\"" + fn.name + "\"");
    names.push_back("NULL");
    c << join(names, ", ") << "};\n\n";
  }
  if (use("c.walk_table")) {
    c << "/* Precomputed shortest R0 walks from s0 to each state, as interned\n"
      << " * fn ids (-1-terminated rows). */\n"
      << "static const int " << svc << "_walk[][" << 4 << "] = {\n";
    for (const auto& state : s.sm.states()) {
      c << "\t/* " << state << " -> */ {";
      std::vector<std::string> steps;
      for (const auto& fn : s.sm.recovery_walk(state)) steps.push_back(fn_tag(fn));
      steps.push_back("-1");
      c << join(steps, ", ") << "},\n";
    }
    c << "};\n\n";
  }
  if (use("c.restore_table")) {
    c << "/* sm_restore fns re-establish tracked data after re-creation. */\n"
      << "static const int " << svc << "_restore[] = {";
    std::vector<std::string> restores;
    for (const auto& fn : s.sm.restore_fns()) restores.push_back(fn_tag(fn));
    restores.push_back("-1");
    c << join(restores, ", ") << "};\n\n";
  }
  if (use("c.desc_table_decl")) {
    c << "static struct cvect " << svc << "_desc_tbl;\n"
      << "static long " << svc << "_fault_epoch = 0;\n\n";
  }
  if (use("c.epoch_check")) {
    c << "static inline int " << svc << "_epoch_stale(void)\n"
      << "{\n\treturn cos_fault_cnt(" << SVC << "_COMP) != " << svc << "_fault_epoch;\n}\n\n";
  }
  if (use("c.fault_update")) {
    c << "/* CSTUB_FAULT_UPDATE: transition every descriptor to s_f. */\n"
      << "static void " << svc << "_fault_update(void)\n"
      << "{\n"
      << "\tstruct track_block_" << svc << " *tb;\n"
      << "\t" << svc << "_fault_epoch = cos_fault_cnt(" << SVC << "_COMP);\n"
      << "\tcvect_foreach(&" << svc << "_desc_tbl, tb) tb->faulty = 1;\n"
      << "}\n\n";
  }
  if (use("c.desc_lookup_helper")) {
    c << "static struct track_block_" << svc << " *" << svc << "_desc_lookup(long vid)\n"
      << "{\n\treturn cvect_lookup(&" << svc << "_desc_tbl, vid);\n}\n\n";
  }
  if (use("c.replay_args_builder")) {
    c << "/* Rebuild an argument vector from tracked state (desc/parent ids,\n"
      << " * desc_data values, and the invoking component id). */\n"
      << "static void " << svc << "_replay_args(struct track_block_" << svc
      << " *tb, int fn, long *args)\n"
      << "{\n"
      << "\tsg_replay_args_from_model(tb, fn, args);\n"
      << "}\n\n";
  }
  if (use("c.recover_decl")) {
    c << "/* R0/T1: walk one descriptor back from s_f at the caller's priority. */\n"
      << "static int " << svc << "_desc_recover(struct track_block_" << svc << " *tb)\n"
      << "{\n"
      << "\tint tries;\n"
      << "\tif (!tb->faulty) return 0;\n"
      << "\ttb->faulty = 0;\n";
  }
  if (use("c.recover_parent_first")) {
    c << "\t/* D1: parents strictly before children (root-to-leaf). */\n"
      << "\tif (tb->parent_vid) {\n"
      << "\t\tstruct track_block_" << svc << " *parent = " << svc
      << "_desc_lookup(tb->parent_vid);\n"
      << "\t\tif (parent) " << svc << "_desc_recover(parent);\n"
      << "\t}\n";
  }
  if (use("c.recover_retry_bound")) {
    c << "\tfor (tries = 0; tries < SG_MAX_RECOVERY_TRIES; tries++) {\n";
  }
  if (use("c.recover_creation_replay")) {
    c << "\t\tlong args[SG_MAX_ARGS];\n"
      << "\t\t" << svc << "_replay_args(tb, " << fn_tag(s.creation_fn().name) << ", args);\n";
  }
  if (use("c.recover_id_hint")) {
    c << "\t\targs[SG_HINT_SLOT] = tb->sid; /* stable-id hint */\n"
      << "\t\ttb->sid = sg_invoke_id(" << SVC << "_COMP, " << fn_tag(s.creation_fn().name)
      << ", args);\n"
      << "\t\tif (unlikely(tb->sid < 0)) continue;\n";
  }
  if (use("c.recover_restore_calls")) {
    c << "\t\t{ /* re-establish tracked data (e.g. file offset). */\n"
      << "\t\t\tconst int *rf;\n"
      << "\t\t\tfor (rf = " << svc << "_restore; *rf >= 0; rf++) {\n"
      << "\t\t\t\t" << svc << "_replay_args(tb, *rf, args);\n"
      << "\t\t\t\tsg_invoke_id(" << SVC << "_COMP, *rf, args);\n"
      << "\t\t\t}\n"
      << "\t\t}\n";
  }
  if (use("c.recover_walk_loop")) {
    c << "\t\t{ /* R0: shortest walk from s0 to the expected state. */\n"
      << "\t\t\tconst int *wf;\n"
      << "\t\t\tfor (wf = " << svc << "_walk[tb->state]; *wf >= 0; wf++) {\n"
      << "\t\t\t\t" << svc << "_replay_args(tb, *wf, args);\n"
      << "\t\t\t\tif (sg_invoke_id(" << SVC << "_COMP, *wf, args) < 0) break;\n"
      << "\t\t\t}\n"
      << "\t\t\tif (*wf < 0) return 0;\n"
      << "\t\t}\n"
      << "\t}\n"
      << "\treturn -ELOOP; /* recovery kept faulting: escalate */\n"
      << "}\n\n";
  }
  if (use("c.recover_subtree")) {
    c << "/* D0: rebuild all children before a terminal fn revokes them. */\n"
      << "static void " << svc << "_recover_subtree(struct track_block_" << svc << " *tb)\n"
      << "{\n"
      << "\tstruct track_block_" << svc << " *child;\n"
      << "\tcvect_foreach(&tb->children, child) {\n"
      << "\t\t" << svc << "_desc_recover(child);\n"
      << "\t\t" << svc << "_recover_subtree(child);\n"
      << "\t}\n"
      << "}\n\n";
  }
  if (use("c.recover_all_eager")) {
    c << "/* Eager mode: rebuild every descriptor at fault time. */\n"
      << "void " << svc << "_recover_all(void)\n"
      << "{\n"
      << "\tstruct track_block_" << svc << " *tb;\n"
      << "\t" << svc << "_fault_update();\n"
      << "\tcvect_foreach(&" << svc << "_desc_tbl, tb) " << svc << "_desc_recover(tb);\n"
      << "}\n\n";
  }
  if (use("c.upcall_recreate_export")) {
    c << "/* U0: exported so the server stub can upcall for recreation (G0). */\n"
      << "int sg_recreate_" << svc << "(long vid)\n"
      << "{\n"
      << "\tstruct track_block_" << svc << " *tb = " << svc << "_desc_lookup(vid);\n"
      << "\tif (!tb) return -EINVAL;\n"
      << "\ttb->faulty = 1;\n"
      << "\treturn " << svc << "_desc_recover(tb);\n"
      << "}\n\n";
  }
  if (use("c.storage_record_on_create")) {
    c << "static void " << svc << "_storage_record(struct track_block_" << svc << " *tb)\n"
      << "{\n"
      << "\t/* G0: associate the descriptor with its creator in storage. */\n"
      << "\tstorage_record_desc(\"" << svc << "\", tb->vid, cos_spd_id(), tb->parent_vid);\n"
      << "}\n\n";
  }
  if (use("c.sm_validity_check")) {
    c << "static inline int " << svc << "_sm_valid(int state, int fn)\n"
      << "{\n\treturn sg_sm_valid_transition(state, fn); /* fault detection */\n}\n\n";
  }

  // Per-interface-function redo-loop wrappers (the Fig 4 template).
  for (const auto& fn : s.fns) {
    const bool is_create = s.sm.is_creation(fn.name);
    const bool is_terminal = s.sm.is_terminal(fn.name);
    const int desc_idx = fn.desc_param();
    const int parent_idx = fn.parent_param();
    if (!use("c.redo_loop")) break;
    c << "/* " << fn.name << ": "
      << (is_create ? "creation fn (returns a new descriptor in s0)"
                    : (is_terminal ? "terminal fn (closes the descriptor)"
                                   : "state-transition fn"))
      << (s.sm.is_block(fn.name) ? "; may block the invoking thread" : "") << " */\n"
      << "CSTUB_FN(" << fn.ret_type << ", " << fn.name << ") (" << param_list(fn) << ")\n"
      << "{\n"
      << "\tlong fault = 0;\n"
      << "\tint redos = 0;\n"
      << "\t" << fn.ret_type << " ret = 0;\n"
      << "\tlong args[SG_MAX_ARGS];\n";
    // Marshal the register-passed arguments (COMPOSITE passes up to four
    // words in registers; larger payloads travel via cbufs).
    for (std::size_t arg = 0; arg < fn.params.size(); ++arg) {
      c << "\targs[" << arg << "] = (long)" << fn.params[arg].name << ";\t/* "
        << to_string(fn.params[arg].role) << " */\n";
    }
    if (desc_idx >= 0 && use("c.fn_desc_translate")) {
      c << "\tstruct track_block_" << svc << " *tb;\n";
    }
    c << "redo:\n";
    if (use("c.epoch_check")) {
      c << "\tif (unlikely(" << svc << "_epoch_stale())) " << svc << "_fault_update();\n";
    }
    if (desc_idx >= 0 && use("c.fn_desc_translate")) {
      c << "\ttb = " << svc << "_desc_lookup(" << fn.params[desc_idx].name << ");\n"
        << "\tif (tb) {\n"
        << "\t\t" << svc << "_desc_recover(tb); /* T1: on-demand, at our priority */\n";
      if (is_terminal && s.desc_close_children && use("c.recover_subtree")) {
        c << "\t\t" << svc << "_recover_subtree(tb); /* D0 */\n";
      }
      if (use("c.sm_validity_check")) {
        c << "\t\tif (unlikely(!" << svc << "_sm_valid(tb->state, " << fn_tag(fn.name)
          << "))) return -EINVAL;\n";
      }
      c << "\t\t" << fn.params[desc_idx].name << " = tb->sid;\n"
        << "\t}\n";
    }
    if (parent_idx >= 0 && use("c.fn_parent_translate")) {
      c << "\t{\n"
        << "\t\tstruct track_block_" << svc << " *ptb = " << svc << "_desc_lookup("
        << fn.params[parent_idx].name << ");\n"
        << "\t\tif (ptb) { " << svc << "_desc_recover(ptb); " << fn.params[parent_idx].name
        << " = ptb->sid; }\n"
        << "\t}\n";
    }
    c << "\tret = cli_if_invoke_" << fn.name << "(" << arg_list(fn) << ", &fault);\n"
      << "\tif (unlikely(fault)) {\n"
      << "\t\tif (unlikely(++redos > SG_MAX_REDOS)) return -EAGAIN;\n"
      << "\t\tCSTUB_FAULT_UPDATE(" << svc << "_fault_update);\n"
      << "\t\tgoto redo;\n"
      << "\t}\n"
      << "\tif (unlikely(ret == -EINVAL && " << svc << "_epoch_stale())) {\n"
      << "\t\t/* the server was rebooted between our epoch check and the\n"
      << "\t\t * invocation: the descriptor was wiped, not invalid. */\n"
      << "\t\t" << svc << "_fault_update();\n"
      << "\t\tgoto redo;\n"
      << "\t}\n";
    if (s.desc_block && s.sm.is_block(fn.name) && use("c.block_redo_note")) {
      c << "\t/* Blocking fn: a mid-sleep reboot unwinds here and redoes,\n"
        << "\t * re-blocking at this thread's own priority (T0 handoff). */\n";
    }
    if (is_create && use("c.fn_track_create")) {
      c << "\tif (likely(ret >= 0)) {\n"
        << "\t\ttb = sg_track_create(&" << svc << "_desc_tbl, ret, " << fn_tag(fn.name)
        << ");\n";
      if (s.desc_has_data && use("c.fn_track_data_params")) {
        for (const auto& prm : fn.params) {
          if (prm.role == ParamRole::kDescData) {
            c << "\t\ttb->" << prm.name << " = " << prm.name << ";\n";
          }
          if (prm.role == ParamRole::kParentDesc) c << "\t\ttb->parent_vid = " << prm.name << ";\n";
        }
      } else {
        for (const auto& prm : fn.params) {
          if (prm.role == ParamRole::kParentDesc) c << "\t\ttb->parent_vid = " << prm.name << ";\n";
        }
      }
      if (uses_storage(s) && use("c.storage_record_on_create")) {
        c << "\t\t" << svc << "_storage_record(tb);\n";
      }
      c << "\t}\n";
    } else if (is_terminal && use("c.fn_track_terminal")) {
      c << "\tif (likely(ret >= 0)) sg_track_remove(&" << svc << "_desc_tbl, tb, "
        << (s.desc_close_children ? "1 /* cascade */" : "0") << ");\n";
    } else if (!is_create && !is_terminal && use("c.fn_track_transition")) {
      c << "\tif (likely(ret >= 0) && tb) {\n"
        << "\t\ttb->state = sg_sm_next(tb->state, " << fn_tag(fn.name) << ");\n";
      if (s.desc_has_data && use("c.fn_track_data_params")) {
        for (const auto& prm : fn.params) {
          if (prm.role == ParamRole::kDescData) {
            c << "\t\ttb->" << prm.name << " = " << prm.name << ";\n";
          }
        }
      }
      if (fn.ret_adds_to.has_value() && use("c.fn_track_retadd")) {
        c << "\t\tif (ret > 0) tb->" << *fn.ret_adds_to << " += ret;\n";
      }
      c << "\t}\n";
    }
    c << "\treturn ret;\n}\n\n";
  }
  if (use("c.footer")) {
    c << "/* end of generated client stub for " << svc << " */\n";
  }

  // ==========================================================================
  // Server stub
  // ==========================================================================
  if (use("s.file_header")) {
    v << "/* Generated by the SuperGlue IDL compiler -- DO NOT EDIT.\n"
      << " * server-side stub for service: " << svc << " */\n";
  }
  if (use("s.includes")) {
    v << "#include <sstub.h>\n#include <" << svc << ".h>\n\n";
  }
  if (use("s.t0_eager_ctor")) {
    v << "/* T0: eager recovery runs inside the freshly rebooted component,\n"
      << " * before main-equivalent execution (__attribute__((constructor))). */\n"
      << "__attribute__((constructor)) static void " << svc << "_t0_eager_init(void)\n"
      << "{\n"
      << "\tif (!cos_was_rebooted()) return;\n";
  }
  if (use("s.t0_priority_inherit")) {
    v << "\tsg_prio_t saved = sg_prio_boost(sg_highest_blocked_prio(" << SVC << "_COMP));\n";
  }
  if (use("s.t0_wakeup_loop")) {
    const std::string wakeup_fn =
        s.sm.wakeup_fns().empty() ? "sched_wakeup" : *s.sm.wakeup_fns().begin();
    v << "\t{\n"
      << "\t\tsg_thd_t t;\n"
      << "\t\t/* Wake every thread the fault left blocked in us, via our\n"
      << "\t\t * own server's wakeup fn (I_wakeup = " << wakeup_fn << "). */\n"
      << "\t\tsg_foreach_blocked(" << SVC << "_COMP, t) sg_wakeup_via_server(t);\n"
      << "\t}\n"
      << "\tsg_prio_restore(saved);\n"
      << "}\n\n";
  }
  if (use("s.g0_wrap_open")) {
    v << "/* G0: wrap each descriptor-taking fn; on EINVAL from a freshly\n"
      << " * rebooted server, consult storage and upcall the creator (U0). */\n";
    for (const auto& fn : s.fns) {
      if (fn.desc_param() < 0 && fn.parent_param() < 0) continue;
      const int idx = fn.desc_param() >= 0 ? fn.desc_param() : fn.parent_param();
      v << "SSTUB_FN(" << fn.ret_type << ", " << fn.name << ") (" << param_list(fn) << ")\n"
        << "{\n"
        << "\t" << fn.ret_type << " ret = srv_if_invoke_" << fn.name << "(" << arg_list(fn)
        << ");\n"
        << "\tif (likely(ret != -EINVAL)) return ret;\n";
      if (use("s.g0_storage_lookup")) {
        v << "\tspdid_t creator = storage_lookup_creator(\"" << svc << "\", "
          << fn.params[static_cast<std::size_t>(idx)].name << ");\n"
          << "\tif (!creator) return ret;\n";
      }
      if (use("s.g0_upcall_creator")) {
        v << "\tif (sg_upcall(creator, \"sg_recreate_" << svc << "\", "
          << fn.params[static_cast<std::size_t>(idx)].name << ")) return ret;\n";
      }
      if (use("s.g0_replay_invocation")) {
        v << "\treturn srv_if_invoke_" << fn.name << "(" << arg_list(fn) << "); /* replay */\n";
      }
      v << "}\n\n";
    }
  }
  if (use("s.g1_fetch_on_miss")) {
    v << "/* G1: resource data lives redundantly in the storage component;\n"
      << " * a miss after micro-reboot re-attaches the data slice. */\n"
      << "void *" << svc << "_data_fetch(long id, unsigned long *len)\n"
      << "{\n\treturn storage_fetch_data(\"" << svc << "\", id, len);\n}\n\n";
  }
  if (use("s.g1_store_critical")) {
    v << "/* Called inside the server's critical region on every mutation\n"
      << " * (manual placement avoids the write/crash race of Sec III-C G1). */\n"
      << "void " << svc << "_data_store(long id, void *data, unsigned long len)\n"
      << "{\n\tstorage_store_data(\"" << svc << "\", id, data, len);\n}\n\n";
  }
  if (use("s.dispatch_table")) {
    v << "/* Interned fn ids (declaration order, shared with the client stub);\n"
      << " * rows are id-indexed, the name column is the string-keyed compat\n"
      << " * shim for callers that have not resolved ids yet. */\n"
      << "enum " << svc << "_fn_id {\n";
    for (std::size_t i = 0; i < s.fns.size(); ++i) {
      v << "\t" << fn_tag(s.fns[i].name) << (i == 0 ? " = 0" : "") << ",\n";
    }
    v << "\t" << SVC << "_FN_COUNT,\n};\n\n"
      << "static const struct sstub_dispatch " << svc << "_dispatch[] = {\n";
    for (const auto& fn : s.fns) {
      v << "\t[" << fn_tag(fn.name) << "] = {\"" << fn.name << "\", (sstub_fn_t)" << fn.name
        << "},\n";
    }
    v << "\t[" << SVC << "_FN_COUNT] = {NULL, NULL},\n};\n\n";
  }
  if (use("s.einval_passthrough")) {
    v << "/* Local descriptor namespace: EINVAL passes through; the client\n"
      << " * stub owns all recovery for this interface. */\n";
  }
  if (use("s.footer")) v << "/* end of generated server stub for " << svc << " */\n";

  // ==========================================================================
  // Spec builder (compilable C++)
  // ==========================================================================
  if (use("p.header")) {
    p << "// Generated by the SuperGlue IDL compiler -- DO NOT EDIT.\n"
      << "#include \"c3/interface_spec.hpp\"\n\n"
      << "namespace sg::gen {\n\n"
      << "sg::c3::InterfaceSpec make_" << svc << "_spec() {\n"
      << "  using sg::c3::FnSpec;\n"
      << "  using sg::c3::ParamRole;\n"
      << "  using sg::c3::ParamSpec;\n"
      << "  using sg::c3::ParentKind;\n"
      << "  sg::c3::InterfaceSpec spec;\n"
      << "  spec.service = \"" << svc << "\";\n";
  }
  if (use("p.flags_block")) p << "  // Descriptor-resource model flags:\n";
  if (use("p.flag_block")) p << "  spec.desc_block = true;\n";
  if (use("p.flag_resc_data")) p << "  spec.resc_has_data = true;\n";
  if (use("p.flag_global")) p << "  spec.desc_is_global = true;\n";
  if (use("p.flag_parent")) {
    p << "  spec.parent = ParentKind::"
      << (s.parent == ParentKind::kParent ? "kParent" : "kXCParent") << ";\n";
  }
  if (use("p.flag_close_children")) p << "  spec.desc_close_children = true;\n";
  if (use("p.flag_close_remove")) p << "  spec.desc_close_remove = true;\n";
  if (use("p.flag_desc_data")) p << "  spec.desc_has_data = true;\n";
  if (use("p.fn_decls")) {
    for (const auto& fn : s.fns) {
      p << "  {\n    FnSpec fn;\n"
        << "    fn.name = \"" << fn.name << "\";\n"
        << "    fn.ret_type = \"" << fn.ret_type << "\";\n";
      if (fn.ret_is_desc && use("p.retval_tracking")) {
        p << "    fn.ret_is_desc = true;\n"
          << "    fn.ret_data_name = \"" << fn.ret_data_name << "\";\n";
      }
      if (fn.ret_adds_to.has_value() && use("p.retadd_tracking")) {
        p << "    fn.ret_adds_to = \"" << *fn.ret_adds_to << "\";\n";
      }
      for (const auto& prm : fn.params) {
        const char* role_template = nullptr;
        const char* role_name = nullptr;
        switch (prm.role) {
          case ParamRole::kDesc: role_template = "p.param_desc"; role_name = "kDesc"; break;
          case ParamRole::kParentDesc:
            role_template = "p.param_parent";
            role_name = "kParentDesc";
            break;
          case ParamRole::kDescData:
            role_template = "p.param_data";
            role_name = "kDescData";
            break;
          case ParamRole::kClientId:
            role_template = "p.param_client_id";
            role_name = "kClientId";
            break;
          case ParamRole::kPlain: role_template = "p.param_plain"; role_name = "kPlain"; break;
        }
        if (use(role_template)) {
          p << "    fn.params.push_back(ParamSpec{\"" << prm.type << "\", \"" << prm.name
            << "\", ParamRole::" << role_name << "});\n";
        }
      }
      p << "    spec.fns.push_back(std::move(fn));\n  }\n";
    }
  }
  if (use("p.sm_and_finalize")) {
    p << "  auto& sm = spec.sm;\n";
    for (const auto& fn : s.sm.creation_fns()) p << "  sm.set_creation(\"" << fn << "\");\n";
    for (const auto& fn : s.sm.terminal_fns()) p << "  sm.set_terminal(\"" << fn << "\");\n";
    for (const auto& fn : s.sm.block_fns()) p << "  sm.set_block(\"" << fn << "\");\n";
    for (const auto& fn : s.sm.wakeup_fns()) p << "  sm.set_wakeup(\"" << fn << "\");\n";
    for (const auto& fn : s.sm.consume_fns()) p << "  sm.set_consume(\"" << fn << "\");\n";
    for (const auto& fn : s.sm.restore_fns()) p << "  sm.set_restore(\"" << fn << "\");\n";
    // Reconstruct transitions from the finalized machine: for each state,
    // every (member fn -> outgoing fn) edge.
    for (const auto& state : s.sm.states()) {
      for (const auto& fn : s.fns) {
        if (s.sm.is_terminal(fn.name)) continue;
        if (s.sm.state_of_fn(fn.name) != state) continue;
        for (const auto& other : s.fns) {
          if (s.sm.valid(state, other.name)) {
            p << "  sm.add_transition(\"" << fn.name << "\", \"" << other.name << "\");\n";
          }
        }
      }
    }
    p << "  sm.finalize();\n"
      << "  spec.validate();\n"
      << "  return spec;\n"
      << "}\n\n"
      << "}  // namespace sg::gen\n";
  }

  GeneratedCode out;
  out.client_stub = c.str();
  out.server_stub = v.str();
  out.spec_builder = p.str();
  out.templates_total = registry_size();
  for (const int count : use_counts_) {
    if (count > 0) ++out.templates_used;
  }
  return out;
}

}  // namespace sg::idl
