#pragma once

#include <string>
#include <vector>

#include "c3/ids.hpp"
#include "c3/invoker.hpp"
#include "c3/storage.hpp"
#include "kernel/component.hpp"
#include "kernel/kernel.hpp"
#include "util/assert.hpp"

namespace sg::c3stubs {

/// Plumbing shared by the hand-written C3 stubs — the moral equivalent of
/// C3's CSTUB_* macro layer (Fig 4's CSTUB_FN / CSTUB_FAULT_UPDATE). The
/// actual tracking structures and recovery walks are written out manually in
/// each per-service stub; only the invoke/epoch mechanics are common.
///
/// Each stub declares its interface functions once (in ctor order); the
/// resulting table indices are the stub's FnIds, so the entry point is
/// `call_id` with a switch on a dense enum.
class C3StubBase : public c3::Invoker {
 public:
  /// Interns `fn` into this stub's fixed fn table (ids == table indices).
  c3::FnId resolve(const std::string& fn) override {
    for (std::size_t i = 0; i < fn_names_.size(); ++i) {
      if (fn_names_[i] == fn) return static_cast<c3::FnId>(i);
    }
    SG_ASSERT_MSG(false, "c3 stub: unknown fn " + fn);
    __builtin_unreachable();
  }

  /// The per-service dispatch switch; every manual stub implements this.
  kernel::Value call_id(c3::FnId fn, const kernel::Args& args) override = 0;

 protected:
  C3StubBase(kernel::Kernel& kernel, kernel::Component& client, kernel::CompId server,
             std::vector<std::string> fn_names)
      : kernel_(kernel), client_(client), server_(server), fn_names_(std::move(fn_names)) {
    epoch_ = kernel_.fault_epoch(server_);
  }

  /// True when the server has been micro-rebooted since we last looked; the
  /// manual stubs call this at the top of every wrapper (CSTUB_FAULT_UPDATE).
  bool epoch_stale() const { return kernel_.fault_epoch(server_) != epoch_; }
  void epoch_sync() { epoch_ = kernel_.fault_epoch(server_); }

  const std::string& fn_name(c3::FnId fn) const {
    return fn_names_[static_cast<std::size_t>(fn)];
  }

  kernel::InvokeResult invoke_id(c3::FnId fn, const kernel::Args& args) {
    return kernel_.invoke(client_.id(), server_, fn_name(fn), args);
  }

  /// Erroneous-return-value awareness (§III-C): an EINVAL for a descriptor
  /// this stub tracks is trustworthy only if the server was not rebooted
  /// since our last epoch sync — otherwise the descriptor was wiped between
  /// our recovery check and the invocation, and the op must be redone.
  bool einval_means_fault(const kernel::InvokeResult& res) {
    return res.ret == kernel::kErrInval && epoch_stale();
  }

  [[noreturn]] void redo_limit(const std::string& fn) {
    throw kernel::SystemCrash(kernel::CrashKind::kDoubleFault, server_,
                              "c3stub redo limit exceeded in " + fn);
  }

  [[noreturn]] void redo_limit(c3::FnId fn) { redo_limit(fn_name(fn)); }

  static constexpr int kMaxRedos = 16;

  kernel::Kernel& kernel_;
  kernel::Component& client_;
  kernel::CompId server_;
  std::vector<std::string> fn_names_;
  int epoch_ = 0;
};

}  // namespace sg::c3stubs
