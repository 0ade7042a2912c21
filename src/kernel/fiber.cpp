#include "kernel/fiber.hpp"

#include <sys/mman.h>

#include <cstdint>
#include <cstring>
#include <cxxabi.h>
#include <exception>
#include <vector>

#include "util/assert.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#define SG_FIBER_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#define SG_FIBER_TSAN 1
#endif

#if !defined(__x86_64__) || !defined(__ELF__)
#error "sg::kernel::Fiber supports x86-64 System V (ELF) targets only"
#endif

// sg_fiber_switch(save_sp, load_sp): pushes the callee-saved registers, MXCSR
// and the x87 control word, stores the stack pointer to *save_sp, then loads
// load_sp and pops the same set from there. Its ret resumes the other
// context, or enters Fiber::start on a fresh stack (see the constructor).
extern "C" void sg_fiber_switch(void** save_sp, void* load_sp);

asm(R"(
  .text
  .p2align 4
  .globl sg_fiber_switch
  .hidden sg_fiber_switch
  .type sg_fiber_switch, @function
sg_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size sg_fiber_switch, .-sg_fiber_switch
)");

namespace sg::kernel {

namespace {

constexpr std::size_t kGuardBytes = 4096;  ///< PROT_NONE: an overflow faults.
#ifdef SG_FIBER_ASAN
constexpr std::size_t kStackBytes = std::size_t{1} << 20;  ///< Redzones grow ASan frames.
#else
constexpr std::size_t kStackBytes = std::size_t{256} << 10;
#endif
constexpr std::size_t kMapBytes = kGuardBytes + kStackBytes;

/// The x86-64 System V initial control words: all exceptions masked,
/// round to nearest; x87 extended precision.
constexpr std::uint64_t kInitialMxcsr = 0x1F80;
constexpr std::uint64_t kInitialFpuCw = 0x037F;

/// Stacks of this host thread's finished fibers, reused by its next ones.
struct StackPool {
  std::vector<void*> free;

  StackPool() = default;
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;
  ~StackPool() {
    for (void* stack : free) munmap(stack, kMapBytes);
  }
};

thread_local StackPool t_pool;
/// The running fiber and the one that switched to it.
thread_local Fiber* t_current = nullptr;
thread_local Fiber* t_previous = nullptr;

void* acquire_stack() {
  void* stack = nullptr;
  if (!t_pool.free.empty()) {
    stack = t_pool.free.back();
    t_pool.free.pop_back();
  } else {
    stack = mmap(nullptr, kMapBytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    SG_ASSERT_MSG(stack != MAP_FAILED, "fiber stack mmap failed");
    SG_ASSERT_MSG(mprotect(stack, kGuardBytes, PROT_NONE) == 0, "fiber guard page mprotect failed");
  }
#ifdef SG_FIBER_ASAN
  // A pooled stack keeps the poison of the frames its last fiber never
  // returned from, and a fresh mapping can land where an unmapped one left
  // stale shadow.
  __asan_unpoison_memory_region(static_cast<char*>(stack) + kGuardBytes, kStackBytes);
#endif
  return stack;
}

}  // namespace

Fiber::Fiber() {
#ifdef SG_FIBER_TSAN
  tsan_fiber_ = __tsan_get_current_fiber();
#endif
}

Fiber::Fiber(std::function<void()> entry) : stack_(acquire_stack()), entry_(std::move(entry)) {
  char* bottom = static_cast<char*>(stack_) + kGuardBytes;
  stack_bottom_ = bottom;
  stack_size_ = kStackBytes;
  // What sg_fiber_switch pops: the control words, r15, r14, r13, r12, rbx
  // and rbp, then the address its ret jumps to. Above that sits start()'s
  // own return address, 0, where unwinders stop. The top is 16-byte
  // aligned, so start() is entered with rsp = 8 mod 16, as after a call.
  auto* frame = reinterpret_cast<std::uint64_t*>(bottom + kStackBytes) - 9;
  frame[0] = kInitialMxcsr | (kInitialFpuCw << 32);
  for (int reg = 1; reg <= 6; ++reg) frame[reg] = 0;
  frame[7] = reinterpret_cast<std::uintptr_t>(&Fiber::start);
  frame[8] = 0;
  sp_ = frame;
#ifdef SG_FIBER_TSAN
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  if (stack_ == nullptr) return;  // Adopted: the host thread owns the stack.
#ifdef SG_FIBER_TSAN
  __tsan_destroy_fiber(tsan_fiber_);
#endif
  t_pool.free.push_back(stack_);
}

void Fiber::switch_to(Fiber& to) { leave(to, /*exiting=*/false); }

void Fiber::exit_to(Fiber& to) {
  leave(to, /*exiting=*/true);
  std::terminate();  // Unreachable: nothing resumes an exited fiber.
}

void Fiber::leave(Fiber& to, bool exiting) {
  static_assert(sizeof(EhState) == 2 * sizeof(void*));
  void* globals = abi::__cxa_get_globals();
  std::memcpy(&eh_, globals, sizeof eh_);
  std::memcpy(globals, &to.eh_, sizeof eh_);
  t_previous = this;
  t_current = &to;
#ifdef SG_FIBER_ASAN
  // A null save slot on the last switch frees this fiber's fake frames.
  __sanitizer_start_switch_fiber(exiting ? nullptr : &fake_stack_, to.stack_bottom_,
                                 to.stack_size_);
#else
  (void)exiting;
#endif
#ifdef SG_FIBER_TSAN
  __tsan_switch_to_fiber(to.tsan_fiber_, 0);
#endif
  sg_fiber_switch(&sp_, to.sp_);
#ifdef SG_FIBER_ASAN
  // Resumed: learn the bounds of the stack we came from (an adopted
  // context's are known only this way).
  __sanitizer_finish_switch_fiber(fake_stack_, &t_previous->stack_bottom_,
                                  &t_previous->stack_size_);
#endif
}

void Fiber::start() noexcept {
#ifdef SG_FIBER_ASAN
  __sanitizer_finish_switch_fiber(nullptr, &t_previous->stack_bottom_, &t_previous->stack_size_);
#endif
  t_current->entry_();
  std::terminate();  // entry_ must leave through exit_to().
}

}  // namespace sg::kernel
