#pragma once

#include <atomic>
#include <cstdint>

#include "kernel/types.hpp"

namespace sg::kernel {

/// The kernel's event-driven virtual time source.
///
/// Time never flows on its own: it advances only when something happens — an
/// invocation is charged its tick, or every thread is blocked and the clock
/// jumps straight to the earliest pending deadline. A full SWIFI episode
/// (virtual milliseconds of blocking, backoff holds and monitoring windows)
/// therefore costs only microseconds of wall time, and two runs from the same
/// seed read identical timestamps — the property the sharded campaign runner
/// (src/campaign) builds its byte-identical aggregates on.
///
/// Everything time-keyed reads this one source: the kernel's timed blocks and
/// admission-gate holds, cmon's stale-window detection, the supervisor's
/// crash-loop window and backoff expiries, timer_mgr deadlines, and the SWIFI
/// drivers' injection delays. Reads are lock-free (relaxed atomic): under the
/// single-core condition-variable handoff exactly one simulated thread runs at
/// an instant, so a reader can never observe a torn or mid-update value, and
/// campaign worker threads may sample a foreign kernel's clock safely.
///
/// Mutation discipline: advance()/advance_to() are called with the kernel lock
/// held (invocation ticks, yield ticks, idle jumps). The jump counter is a
/// relaxed atomic like time_, so it can be read without that lock. Relaxed
/// ordering suffices — it is a monotonic tally with no consistency promise
/// against time_, and 64-bit width makes wraparound unreachable.
class VirtualClock {
 public:
  /// Current virtual time (microseconds since boot). Lock-free.
  VirtualTime now() const { return time_.load(std::memory_order_relaxed); }

  /// Charges `dur` of virtual time (an invocation/yield tick).
  void advance(VirtualTime dur) { time_.fetch_add(dur, std::memory_order_relaxed); }

  /// Event-driven jump: moves time forward to `deadline` (never backward).
  /// This is the discrete-event step — taken when every thread is blocked and
  /// the earliest pending timeout becomes "now". Returns the time skipped.
  /// Monotone even under a concurrent advance(): the CAS loop never moves
  /// time backward.
  VirtualTime advance_to(VirtualTime deadline) {
    VirtualTime cur = now();
    for (;;) {
      if (deadline <= cur) return 0;
      if (time_.compare_exchange_weak(cur, deadline, std::memory_order_relaxed,
                                      std::memory_order_relaxed)) {
        break;
      }
    }
    jumps_.fetch_add(1, std::memory_order_relaxed);
    return deadline - cur;
  }

  /// Idle fast-forward jumps taken (all-blocked -> next deadline).
  std::uint64_t jumps() const { return jumps_.load(std::memory_order_relaxed); }

 private:
  std::atomic<VirtualTime> time_{0};
  std::atomic<std::uint64_t> jumps_{0};
};

}  // namespace sg::kernel
