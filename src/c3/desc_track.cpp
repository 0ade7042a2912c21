#include "c3/desc_track.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sg::c3 {

using kernel::Value;

TrackedDesc& DescTable::create(Value vid, Value sid, StateId initial_state,
                               kernel::Args creation_args) {
  SG_ASSERT_MSG(vid != kNoParent,
                "descriptor vid 0 collides with the kNoParent sentinel");
  std::lock_guard<std::mutex> guard(mu_);
  auto it = by_vid_.find(vid);
  std::uint32_t index;
  if (it != by_vid_.end()) {
    // Re-creating an already-tracked descriptor is legal: idempotent creation
    // fns (e.g., mman_get_page on an existing vaddr) return the same id.
    index = it->second;
  } else if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
    by_vid_.emplace(vid, index);
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    by_vid_.emplace(vid, index);
  }
  Slot& slot = slots_[index];
  if (!slot.live) ++count_;
  slot.live = true;
  TrackedDesc& desc = slot.desc;
  desc.vid = vid;
  desc.sid = sid;
  desc.state = initial_state;
  desc.creation_args = std::move(creation_args);
  desc.faulty = false;
  desc.zombie = false;
  return desc;
}

TrackedDesc* DescTable::find(Value vid) {
  std::lock_guard<std::mutex> guard(mu_);
  return find_locked(vid);
}

TrackedDesc* DescTable::find_locked(Value vid) {
  auto it = by_vid_.find(vid);
  return it == by_vid_.end() ? nullptr : &slots_[it->second].desc;
}

const TrackedDesc* DescTable::find(Value vid) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = by_vid_.find(vid);
  return it == by_vid_.end() ? nullptr : &slots_[it->second].desc;
}

void DescTable::erase_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  SG_ASSERT_MSG(slot.live, "erase of a dead slot");
  by_vid_.erase(slot.desc.vid);
  slot.desc = TrackedDesc{};
  slot.live = false;
  free_.push_back(index);
  --count_;
}

void DescTable::unlink_from_parent(TrackedDesc& desc) {
  if (desc.parent_vid == kNoParent) return;
  TrackedDesc* parent = find_locked(desc.parent_vid);
  if (parent == nullptr) return;
  auto& kids = parent->children;
  kids.erase(std::remove(kids.begin(), kids.end(), desc.vid), kids.end());
  reap_if_zombie_done(parent->vid);
}

void DescTable::reap_if_zombie_done(Value vid) {
  auto it = by_vid_.find(vid);
  if (it == by_vid_.end()) return;
  TrackedDesc& desc = slots_[it->second].desc;
  if (desc.zombie && desc.children.empty()) {
    const Value parent = desc.parent_vid;
    erase_slot(it->second);
    if (parent != kNoParent) {
      // Removing the zombie may allow an ancestor zombie to be reaped too.
      TrackedDesc* up = find_locked(parent);
      if (up != nullptr) {
        auto& kids = up->children;
        kids.erase(std::remove(kids.begin(), kids.end(), vid), kids.end());
        reap_if_zombie_done(parent);
      }
    }
  }
}

void DescTable::remove(Value vid, bool cascade) {
  std::lock_guard<std::mutex> guard(mu_);
  remove_locked(vid, cascade);
}

void DescTable::remove_locked(Value vid, bool cascade) {
  auto it = by_vid_.find(vid);
  if (it == by_vid_.end()) return;
  TrackedDesc* desc = &slots_[it->second].desc;
  if (cascade) {
    // C_dr: recursive revocation removes the whole subtree's tracking.
    const std::vector<Value> kids = desc->children;  // Copy: children mutate the table.
    for (const Value child : kids) remove_locked(child, true);
    it = by_vid_.find(vid);
    if (it == by_vid_.end()) return;
    desc = &slots_[it->second].desc;
    unlink_from_parent(*desc);
    erase_slot(by_vid_.at(vid));
    return;
  }
  if (!desc->children.empty()) {
    // Y_dr == false with live children: keep metadata for the children (§III-A).
    desc->zombie = true;
    return;
  }
  unlink_from_parent(*desc);
  erase_slot(by_vid_.at(vid));
}

void DescTable::mark_all_faulty() {
  std::lock_guard<std::mutex> guard(mu_);
  for (auto& slot : slots_) {
    if (slot.live) slot.desc.faulty = true;
  }
}

std::size_t DescTable::live_count() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::size_t count = 0;
  for (const auto& slot : slots_) {
    if (slot.live && !slot.desc.zombie) ++count;
  }
  return count;
}

void DescTable::clear() {
  std::lock_guard<std::mutex> guard(mu_);
  slots_.clear();
  free_.clear();
  by_vid_.clear();
  count_ = 0;
}

}  // namespace sg::c3
