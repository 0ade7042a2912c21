#pragma once

#include <string>
#include <vector>

#include "c3/ids.hpp"
#include "kernel/kernel.hpp"

namespace sg::c3 {

/// Minimal invocation surface the typed client APIs program against. Three
/// implementations exist, matching the paper's evaluation variants:
///   - PassthroughInvoker : no fault tolerance (base COMPOSITE),
///   - c3stubs::*Stub     : hand-written C3 recovery stubs,
///   - c3::ClientStub     : SuperGlue-generated/interpreted stubs.
///
/// Callers resolve each function name once (`resolve`) and invoke by the
/// returned dense id (`call_id`) from then on, keeping string hashing off
/// the per-invocation path.
class Invoker {
 public:
  virtual ~Invoker() = default;

  /// Interns `fn` into this invoker's id space.
  virtual FnId resolve(const std::string& fn) = 0;

  /// Invokes by interned id. `id` must come from this invoker's resolve().
  virtual kernel::Value call_id(FnId id, const kernel::Args& args) = 0;
};

/// Direct kernel invocation with no tracking and no recovery. A server fault
/// surfaces as a plain error return (the system would normally have to
/// reboot); used as the "COMPOSITE without C3/SuperGlue" baseline. Its ids
/// index a private table of the names the kernel dispatches on.
class PassthroughInvoker final : public Invoker {
 public:
  PassthroughInvoker(kernel::Kernel& kernel, kernel::CompId client, kernel::CompId server)
      : kernel_(kernel), client_(client), server_(server) {}

  FnId resolve(const std::string& fn) override {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == fn) return static_cast<FnId>(i);
    }
    names_.push_back(fn);
    return static_cast<FnId>(names_.size() - 1);
  }

  kernel::Value call_id(FnId id, const kernel::Args& args) override {
    const kernel::InvokeResult res =
        kernel_.invoke(client_, server_, names_[static_cast<std::size_t>(id)], args);
    return res.fault ? kernel::kErrAgain : res.ret;
  }

 private:
  kernel::Kernel& kernel_;
  kernel::CompId client_;
  kernel::CompId server_;
  std::vector<std::string> names_;
};

}  // namespace sg::c3
