#include "tests/specs.hpp"

namespace sg::reference {

using c3::FnSpec;
using c3::InterfaceSpec;
using c3::ParamRole;
using c3::ParamSpec;
using c3::ParentKind;

namespace {

ParamSpec client_id() { return {"componentid_t", "compid", ParamRole::kClientId}; }
ParamSpec desc(const std::string& name) { return {"long", name, ParamRole::kDesc}; }
ParamSpec parent(const std::string& name) { return {"long", name, ParamRole::kParentDesc}; }
ParamSpec data(const std::string& type, const std::string& name) {
  return {type, name, ParamRole::kDescData};
}
ParamSpec plain(const std::string& type, const std::string& name) {
  return {type, name, ParamRole::kPlain};
}

FnSpec create_fn(const std::string& name, const std::string& ret_name,
                 std::vector<ParamSpec> params) {
  FnSpec fn;
  fn.name = name;
  fn.ret_type = "long";
  fn.ret_is_desc = true;
  fn.ret_data_name = ret_name;
  fn.params = std::move(params);
  return fn;
}

FnSpec plain_fn(const std::string& name, std::vector<ParamSpec> params) {
  FnSpec fn;
  fn.name = name;
  fn.params = std::move(params);
  return fn;
}

/// Finalizes the state machine and validates the spec eagerly — which also
/// builds the compiled (interned-id) runtime tables, so malformed hand-built
/// specs fail here at construction rather than at first stub use.
InterfaceSpec finish(InterfaceSpec spec) {
  spec.sm.finalize();
  spec.validate();
  return spec;
}

}  // namespace

InterfaceSpec sched_spec() {
  InterfaceSpec spec;
  spec.service = "sched";
  spec.desc_block = true;
  spec.desc_has_data = true;  // Tracks the thread's priority.
  spec.fns = {
      create_fn("sched_setup", "tid", {client_id(), data("long", "prio")}),
      plain_fn("sched_blk", {client_id(), desc("tid")}),
      plain_fn("sched_wakeup", {client_id(), desc("tid")}),
      plain_fn("sched_exit", {client_id(), desc("tid")}),
  };
  auto& sm = spec.sm;
  sm.set_creation("sched_setup");
  sm.set_terminal("sched_exit");
  sm.set_block("sched_blk");
  sm.set_wakeup("sched_wakeup");
  for (const char* from : {"sched_setup", "sched_blk", "sched_wakeup"}) {
    for (const char* to : {"sched_blk", "sched_wakeup", "sched_exit"}) {
      sm.add_transition(from, to);
    }
  }
  return finish(std::move(spec));
}

InterfaceSpec lock_spec() {
  InterfaceSpec spec;
  spec.service = "lock";
  spec.desc_block = true;
  spec.desc_has_data = true;  // The owning thread id.
  spec.fns = {
      create_fn("lock_alloc", "lockid", {client_id()}),
      plain_fn("lock_take", {client_id(), desc("lockid"), data("long", "owner")}),
      plain_fn("lock_release", {client_id(), desc("lockid")}),
      plain_fn("lock_free", {client_id(), desc("lockid")}),
  };
  auto& sm = spec.sm;
  sm.set_creation("lock_alloc");
  sm.set_terminal("lock_free");
  sm.set_block("lock_take");
  sm.set_wakeup("lock_release");
  sm.add_transition("lock_alloc", "lock_take");
  sm.add_transition("lock_alloc", "lock_free");
  sm.add_transition("lock_take", "lock_release");
  sm.add_transition("lock_take", "lock_free");
  sm.add_transition("lock_release", "lock_take");
  sm.add_transition("lock_release", "lock_free");
  return finish(std::move(spec));
}

InterfaceSpec mman_spec() {
  InterfaceSpec spec;
  spec.service = "mman";
  spec.parent = ParentKind::kXCParent;      // Aliases span components.
  spec.desc_close_children = true;          // Recursive revocation.
  spec.desc_close_remove = false;           // Y = P!=Solo && !C = false.
  spec.desc_has_data = true;
  spec.fns = {
      create_fn("mman_get_page", "mapid", {client_id(), data("long", "vaddr")}),
      create_fn("mman_alias_page", "mapid",
                {client_id(), parent("parent_mapid"), data("componentid_t", "dst_comp"),
                 data("long", "dst_vaddr")}),
      plain_fn("mman_touch", {client_id(), desc("mapid")}),
      plain_fn("mman_release_page", {client_id(), desc("mapid")}),
  };
  auto& sm = spec.sm;
  sm.set_creation("mman_get_page");
  sm.set_creation("mman_alias_page");
  sm.set_terminal("mman_release_page");
  for (const char* from : {"mman_get_page", "mman_alias_page", "mman_touch"}) {
    sm.add_transition(from, "mman_touch");
    sm.add_transition(from, "mman_release_page");
  }
  return finish(std::move(spec));
}

InterfaceSpec ramfs_spec() {
  InterfaceSpec spec;
  spec.service = "ramfs";
  spec.resc_has_data = true;  // File contents: G1 via the storage component.
  spec.parent = ParentKind::kParent;
  spec.desc_close_remove = true;  // Y = P!=Solo && !C = true.
  spec.desc_has_data = true;      // pathid + offset.
  {
    FnSpec tread = plain_fn(
        "tread", {client_id(), desc("fd"), plain("long", "cbuf"), plain("long", "sz")});
    tread.ret_adds_to = "offset";
    FnSpec twrite = plain_fn(
        "twrite", {client_id(), desc("fd"), plain("long", "cbuf"), plain("long", "sz")});
    twrite.ret_adds_to = "offset";
    spec.fns = {
        create_fn("tsplit", "fd", {client_id(), parent("parent_fd"), data("long", "pathid")}),
        tread,
        twrite,
        plain_fn("tlseek", {client_id(), desc("fd"), data("long", "offset")}),
        plain_fn("trelease", {client_id(), desc("fd")}),
    };
  }
  auto& sm = spec.sm;
  sm.set_creation("tsplit");
  sm.set_terminal("trelease");
  sm.set_restore("tlseek");
  for (const char* from : {"tsplit", "tread", "twrite", "tlseek"}) {
    for (const char* to : {"tread", "twrite", "tlseek", "trelease"}) {
      sm.add_transition(from, to);
    }
  }
  return finish(std::move(spec));
}

InterfaceSpec evt_spec() {
  InterfaceSpec spec;
  spec.service = "evt";
  spec.desc_block = true;
  spec.resc_has_data = true;      // Pending trigger counts: G1.
  spec.desc_is_global = true;     // Waiter and triggerer share the id space.
  spec.parent = ParentKind::kXCParent;
  spec.desc_close_remove = true;  // Y = P!=Solo && !C = true.
  spec.desc_has_data = true;
  spec.fns = {
      // Fig 3: evt_split(desc_data(compid), parent_desc(parent_evtid),
      //                  desc_data(grp)) with desc_data_retval(long, evtid).
      create_fn("evt_split", "evtid",
                {data("componentid_t", "compid"), parent("parent_evtid"), data("int", "grp")}),
      plain_fn("evt_wait", {client_id(), desc("evtid")}),
      plain_fn("evt_trigger", {client_id(), desc("evtid")}),
      plain_fn("evt_free", {client_id(), desc("evtid")}),
  };
  auto& sm = spec.sm;
  sm.set_creation("evt_split");
  sm.set_terminal("evt_free");
  sm.set_block("evt_wait");
  sm.set_wakeup("evt_trigger");
  sm.set_consume("evt_wait");
  for (const char* from : {"evt_split", "evt_wait", "evt_trigger"}) {
    for (const char* to : {"evt_wait", "evt_trigger", "evt_free"}) {
      sm.add_transition(from, to);
    }
  }
  return finish(std::move(spec));
}

InterfaceSpec tmr_spec() {
  InterfaceSpec spec;
  spec.service = "tmr";
  spec.desc_block = true;
  spec.desc_has_data = true;  // period_us.
  spec.fns = {
      create_fn("tmr_setup", "tmid", {client_id(), data("long", "period_us")}),
      plain_fn("tmr_block", {client_id(), desc("tmid")}),
      plain_fn("tmr_cancel", {client_id(), desc("tmid")}),
      plain_fn("tmr_free", {client_id(), desc("tmid")}),
  };
  auto& sm = spec.sm;
  sm.set_creation("tmr_setup");
  sm.set_terminal("tmr_free");
  sm.set_block("tmr_block");
  sm.set_wakeup("tmr_cancel");
  for (const char* from : {"tmr_setup", "tmr_block", "tmr_cancel"}) {
    for (const char* to : {"tmr_block", "tmr_cancel", "tmr_free"}) {
      sm.add_transition(from, to);
    }
  }
  return finish(std::move(spec));
}

}  // namespace sg::reference
