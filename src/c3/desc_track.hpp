#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "c3/ids.hpp"
#include "kernel/types.hpp"

namespace sg::c3 {

inline constexpr kernel::Value kNoParent = 0;  ///< Parent id 0 == no parent / root.

/// Client-side tracking record for one descriptor (the bold black squares in
/// Fig 1(b)). Bounded state: the interned SM state id, the D_{d_r} metadata
/// named by the IDL annotations (a fixed FieldId-indexed array), the parent
/// link, and the verbatim creation arguments — never a log of operations
/// (§II-C).
struct TrackedDesc {
  /// Upper bound on distinct D_{d_r} fields per interface; enforced when the
  /// spec's compiled runtime interns the field names.
  static constexpr int kMaxFields = 8;

  kernel::Value vid = 0;  ///< Client-visible descriptor id (stable across faults).
  kernel::Value sid = 0;  ///< Current server-side id (remapped after recovery).
  StateId state = kStateInitial;  ///< Current descriptor state-machine state.
  kernel::Value parent_vid = kNoParent;
  std::vector<kernel::Value> children;
  kernel::Args creation_args;  ///< Original args of the creation call (for replay).
  FnId created_by = kNoFn;     ///< Which creation fn made this descriptor (replayed on recovery).
  bool faulty = false;         ///< In s_f; needs an R0 walk before next use (T1).
  bool zombie = false;         ///< Closed, retained only because children are live.
  /// Thread currently replaying this descriptor's recovery walk (kNoThread
  /// when idle). The walk's invocations can block — e.g. park at the
  /// supervisor's admission gate during a backoff hold — so other threads
  /// sharing the stub must not treat the cleared `faulty` bit as "recovered"
  /// and invoke with the sid the walk is about to remap.
  kernel::ThreadId recovering = kernel::kNoThread;
  /// Bumped on every state-machine commit. Lets a completing call detect that
  /// another thread's call on this same (shared) descriptor committed while
  /// its own invocation was in flight — client return order inverts server
  /// completion order in that window, so the late returner must defer.
  std::uint64_t commit_seq = 0;

  // --- D_{d_r} tracked metadata, FieldId-indexed ----------------------------
  bool has_field(FieldId f) const {
    return f >= 0 && f < kMaxFields && (field_mask_ & (1u << f)) != 0;
  }
  kernel::Value field(FieldId f) const { return has_field(f) ? fields_[f] : 0; }
  void set_field(FieldId f, kernel::Value v) {
    fields_[f] = v;
    field_mask_ |= static_cast<std::uint8_t>(1u << f);
  }
  void add_field(FieldId f, kernel::Value v) { set_field(f, field(f) + v); }

 private:
  kernel::Value fields_[kMaxFields] = {};
  std::uint8_t field_mask_ = 0;
};

/// The per-(client, interface) descriptor table a stub owns.
///
/// Storage is a slab: records live in recycled slots of a std::deque (stable
/// addresses — outstanding TrackedDesc pointers survive growth), with a
/// free list and an O(1) vid→slot hash index. Slot order is the order
/// for_each visits, so it fixes the order of eager recovery and of storage
/// republish.
///
/// Concurrency (cores>1): an internal mutex guards the slab *structure* —
/// slot allocation/recycling and the vid index — so lookups and
/// create/remove are safe from any thread. The *contents* of a TrackedDesc
/// reached through a returned pointer are not locked: they are owned by the
/// descriptor's active thread (the client handler holding the component's
/// occupancy, the per-descriptor `recovering` walker, or the coordinator's
/// token-holding sweep), exactly the single-writer discipline the commit_seq
/// protocol already encodes. The lock is never held across a kernel call.
class DescTable {
 public:
  /// Tracks a descriptor. Re-creating an already-tracked vid is legal
  /// (idempotent creation fns, e.g. mman_get_page on an existing vaddr) and
  /// preserves the record's D_dr fields, parent link, and children.
  /// Asserts vid != 0: descriptor id 0 would silently collide with the
  /// kNoParent sentinel and corrupt parent links.
  TrackedDesc& create(kernel::Value vid, kernel::Value sid, StateId initial_state,
                      kernel::Args creation_args);

  TrackedDesc* find(kernel::Value vid);
  const TrackedDesc* find(kernel::Value vid) const;

  /// Removes a descriptor. With `cascade`, removes the whole child subtree
  /// (C_dr recursive-revocation tracking). Without, the record becomes a
  /// zombie while live children still reference it, and is reaped when the
  /// last child goes.
  void remove(kernel::Value vid, bool cascade);

  /// Transition every live descriptor to s_f (server fault detected).
  void mark_all_faulty();

  std::size_t size() const {
    std::lock_guard<std::mutex> guard(mu_);
    return count_;
  }
  std::size_t live_count() const;
  /// Slots ever allocated (live + recyclable); exposed for the slab tests.
  std::size_t slab_capacity() const {
    std::lock_guard<std::mutex> guard(mu_);
    return slots_.size();
  }

  /// Stable iteration (slot order ≈ creation order) over all records,
  /// zombies included. Unlocked by design — fn may block (recovery walks
  /// invoke through the kernel), so the caller must be the table's owning
  /// thread per the single-writer discipline above.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (auto& slot : slots_) {
      if (slot.live) fn(slot.desc);
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& slot : slots_) {
      if (slot.live) fn(slot.desc);
    }
  }

  void clear();

 private:
  struct Slot {
    TrackedDesc desc;
    bool live = false;
  };

  // All require mu_ held.
  void remove_locked(kernel::Value vid, bool cascade);
  TrackedDesc* find_locked(kernel::Value vid);
  void erase_slot(std::uint32_t index);
  void unlink_from_parent(TrackedDesc& desc);
  void reap_if_zombie_done(kernel::Value vid);

  mutable std::mutex mu_;  ///< Guards the slab structure (see class comment).
  std::deque<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::unordered_map<kernel::Value, std::uint32_t> by_vid_;
  std::size_t count_ = 0;
};

}  // namespace sg::c3
