#pragma once

#include <cstddef>
#include <functional>

namespace sg::kernel {

/// A user-level execution context on the calling host thread: a saved stack
/// pointer, the C++ runtime's caught-exception state, and the sanitizers'
/// view of its stack. At cores == 1 every simulated thread of a System is
/// one of these, multiplexed on the host thread that called Kernel::run()
/// (docs/KERNEL.md, "Handoff"). A switch saves the callee-saved registers,
/// the stack pointer and the floating-point control words and loads
/// another context's: no host context switch and no system call. A fiber
/// never moves to another host thread.
///
/// x86-64 System V only.
class Fiber {
 public:
  /// Adopts the calling context (run()'s root). It owns no stack; it can be
  /// resumed once it has switched away.
  Fiber();
  /// A new context with a stack from this host thread's pool. It starts
  /// running `entry` the first time it is switched to; `entry` must not
  /// return, it leaves through exit_to().
  explicit Fiber(std::function<void()> entry);
  /// Returns the stack to the pool of the host thread that destroys it.
  /// Never destroy the running fiber.
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Suspends this fiber, which must be the running one, and resumes `to`.
  /// Returns when another fiber switches back to this one.
  void switch_to(Fiber& to);
  /// Leaves this fiber for good and resumes `to`. Whatever is still alive on
  /// this fiber's stack is never destroyed.
  [[noreturn]] void exit_to(Fiber& to);

 private:
  /// The two words of the C++ runtime's per-thread exception state (the
  /// caught-exception stack and the uncaught count), kept per fiber: a
  /// handler may switch away inside its catch block.
  struct EhState {
    void* caught = nullptr;
    unsigned int uncaught = 0;
  };

  [[noreturn]] static void start() noexcept;
  void leave(Fiber& to, bool exiting);

  void* sp_ = nullptr;     ///< Saved stack pointer while suspended.
  void* stack_ = nullptr;  ///< Stack mapping (guard page first); nullptr when adopted.
  std::function<void()> entry_;
  EhState eh_;
  // Sanitizer bookkeeping; unused in plain builds.
  const void* stack_bottom_ = nullptr;  ///< ASan: lowest usable stack address.
  std::size_t stack_size_ = 0;          ///< ASan: usable stack bytes.
  void* fake_stack_ = nullptr;          ///< ASan: fake frames kept while suspended.
  void* tsan_fiber_ = nullptr;          ///< TSan: this context's fiber handle.
};

}  // namespace sg::kernel
