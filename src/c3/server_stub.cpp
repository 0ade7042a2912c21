#include "c3/server_stub.hpp"

#include <vector>

#include "c3/client_stub.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace sg::c3 {

using kernel::Args;
using kernel::CallCtx;
using kernel::Value;

ServerStub::ServerStub(kernel::Kernel& kernel, kernel::Component& server,
                       const InterfaceSpec& spec, StorageComponent& storage)
    : kernel_(kernel), server_(server), spec_(spec), storage_(storage) {
  SG_ASSERT_MSG(spec_.desc_is_global || spec_.parent == ParentKind::kXCParent,
                spec_.service + ": server stub only wraps G0/XCParent interfaces");
  ns_ = storage_.intern_ns(spec_.service);
  for (const auto& fn : spec_.fns) {
    // A missing descriptor can surface through the desc param or — for
    // XCParent creation fns like mman_alias_page — the parent param.
    std::vector<int> id_params;
    if (fn.desc_param() >= 0) id_params.push_back(fn.desc_param());
    if (fn.parent_param() >= 0) id_params.push_back(fn.parent_param());
    if (id_params.empty()) continue;

    auto inner = server_.replace_fn(fn.name, nullptr);
    server_.replace_fn(fn.name, [this, id_params, fn_name = fn.name,
                                 inner = std::move(inner)](CallCtx& ctx,
                                                           const Args& args) -> Value {
      const Value ret = inner(ctx, args);
      if (ret != kernel::kErrInval) return ret;
      // Unknown descriptor after a micro-reboot: ask the storage component
      // who created it (G0), upcall into the creator for recreation (U0/R0),
      // and replay the original invocation.
      bool recreated = false;
      bool record_found = false;
      for (const int idx : id_params) {
        const Value desc_id = args[static_cast<std::size_t>(idx)];
        if (desc_id == 0) continue;  // Root/none sentinel.
        const auto record = storage_.lookup_desc(ns_, desc_id);
        if (!record.has_value()) continue;
        record_found = true;
        SG_DEBUG("sstub", spec_.service << "." << fn_name << ": G0 recreate of desc " << desc_id
                                        << " via comp " << record->creator);
        // U0: the upcall is an invocation flowing "downhill", mediated and
        // fault-vectored like any other.
        const auto up = kernel_.invoke(server_.id(), record->creator,
                                       ClientStub::recreate_fn_name(spec_.service), {desc_id});
        if (!up.fault && up.ret == kernel::kOk) recreated = true;
      }
      if (!recreated) {
        // The substrate knew the creator yet the upcall could not rebuild
        // the descriptor: recovery proceeds, but degraded.
        if (record_found && degraded_hook_) degraded_hook_(spec_.service.c_str());
        return ret;  // Genuinely invalid descriptor (or degraded miss).
      }
      kernel_.trace(trace::EventKind::kMechanism, server_.id(),
                    static_cast<std::int32_t>(trace::Mechanism::kG0));
      return inner(ctx, args);  // Replay with the descriptor(s) rebuilt.
    });
  }
}

}  // namespace sg::c3
