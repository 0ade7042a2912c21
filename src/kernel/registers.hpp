#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "kernel/types.hpp"

namespace sg::kernel {

/// The eight 32-bit registers the paper's SWIFI campaign targets: six general
/// purpose registers plus the two stack registers ESP and EBP (§V-A).
enum class Reg : int { kEax = 0, kEbx, kEcx, kEdx, kEsi, kEdi, kEsp, kEbp };

inline constexpr int kNumRegisters = 8;
inline constexpr int kRegisterBits = 32;

const char* to_string(Reg reg);

/// What kind of value a register currently holds; decides how a bit flip
/// manifests when the register is next consumed (see swifi/regops).
enum class RegClass {
  kDead,     ///< Not holding a live value; flips are harmless (undetected fault).
  kPointer,  ///< Holds an address; corruption => segfault/validation trap.
  kCounter,  ///< Holds a loop bound/index; corruption => hang or wrong count.
  kData,     ///< Holds payload data; corruption => checksum trap or propagation.
  kStack,    ///< ESP/EBP; corruption => unrecoverable stack segfault.
};

const char* to_string(RegClass cls);

/// Simulated per-thread register file. Server code "uses" registers through
/// swifi::RegOps which stores and loads values here; the SWIFI injector flips
/// bits directly in `value` while leaving `shadow` intact, so consumers can
/// tell whether the value they loaded was corrupted — exactly the visibility
/// a parity/validation trap would have.
class RegisterFile {
 public:
  RegisterFile() { reset(); }

  void reset();

  /// Writes a value, refreshing the shadow copy and liveness class. A write
  /// *clears* any pending corruption: the flipped bits are overwritten before
  /// ever being read, which is how undetected faults arise (§V-D).
  void store(Reg reg, std::uint32_t value, RegClass cls);

  /// Reads the (possibly corrupted) architectural value.
  std::uint32_t load(Reg reg) const { return cell(reg).value; }

  /// Reads the golden copy unaffected by injections.
  std::uint32_t shadow(Reg reg) const { return cell(reg).shadow; }

  RegClass cls(Reg reg) const { return cell(reg).cls; }

  /// True if the architectural value currently differs from the shadow.
  bool corrupted(Reg reg) const { return cell(reg).value != cell(reg).shadow; }

  /// SWIFI entry point: XORs a single bit of the architectural value.
  /// Returns the register class at injection time (for outcome accounting).
  RegClass flip_bit(Reg reg, int bit);

  /// Number of flip_bit calls since construction/reset.
  int flips() const { return flips_; }

  /// --- armed (deferred) flips ------------------------------------------------
  /// The SWIFI injector runs at high priority and preempts victims at
  /// invocation boundaries, but a transient fault strikes *mid-handler*. An
  /// armed flip is therefore applied by tick_op() — called by RegOps at every
  /// simulated micro-op executed inside `comp` — after `delay_ops` more ops,
  /// exactly as if the SEU hit while the pipeline was executing there.
  void arm_flip(CompId comp, Reg reg, int bit, int delay_ops);

  /// One micro-op executed inside `comp`; applies a due armed flip.
  /// Returns true if a flip was applied by this tick.
  bool tick_op(CompId comp);

  bool armed() const { return armed_.active; }
  /// True if a flip is armed against `comp` specifically. Components that are
  /// reached by direct call rather than Kernel::invoke (the storage component)
  /// use this to decide whether to model pipeline occupancy at all: when no
  /// flip is aimed at them, their handlers stay zero-cost.
  bool armed_for(CompId comp) const { return armed_.active && armed_.comp == comp; }

  /// Information about the flip most recently *applied* (not armed).
  struct AppliedFlip {
    Reg reg = Reg::kEax;
    int bit = 0;
    RegClass cls_at_apply = RegClass::kDead;
  };
  bool flip_was_applied() const { return applied_valid_; }
  const AppliedFlip& last_applied() const { return applied_; }

 private:
  struct Cell {
    std::uint32_t value = 0;
    std::uint32_t shadow = 0;
    RegClass cls = RegClass::kDead;
  };

  struct Armed {
    bool active = false;
    CompId comp = kNoComp;
    Reg reg = Reg::kEax;
    int bit = 0;
    int delay_ops = 0;
  };

  Cell& cell(Reg reg) { return cells_[static_cast<int>(reg)]; }
  const Cell& cell(Reg reg) const { return cells_[static_cast<int>(reg)]; }

  std::array<Cell, kNumRegisters> cells_;
  int flips_ = 0;
  Armed armed_;
  AppliedFlip applied_;
  bool applied_valid_ = false;
};

}  // namespace sg::kernel
