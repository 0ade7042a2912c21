// Property test: churns the slab-allocated DescTable against a plain
// std::map reference model implementing the same descriptor-tracking
// semantics (idempotent re-create, sid remap, cascade removal, zombie
// retention + reaping, fault marking). The slab's free-list recycling and
// O(1) vid index must be observationally identical to the naive map at every
// step.

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "c3/desc_track.hpp"
#include "util/rng.hpp"

namespace sg::c3 {
namespace {

using kernel::Value;

/// The naive reference: exactly the pre-slab std::map implementation's
/// semantics, written against ordinary containers.
class RefModel {
 public:
  struct Rec {
    Value sid = 0;
    StateId state = kStateInitial;
    Value parent = kNoParent;
    std::vector<Value> children;
    bool zombie = false;
    bool faulty = false;
  };

  Rec& create(Value vid, Value sid, StateId state) {
    Rec& rec = recs_[vid];
    rec.sid = sid;
    rec.state = state;
    rec.zombie = false;
    rec.faulty = false;
    return rec;
  }

  Rec* find(Value vid) {
    auto it = recs_.find(vid);
    return it == recs_.end() ? nullptr : &it->second;
  }

  void set_sid(Value vid, Value sid) { recs_.at(vid).sid = sid; }

  void link(Value child, Value parent) {
    recs_.at(child).parent = parent;
    recs_.at(parent).children.push_back(child);
  }

  void remove(Value vid, bool cascade) {
    auto it = recs_.find(vid);
    if (it == recs_.end()) return;
    if (cascade) {
      const std::vector<Value> kids = it->second.children;
      for (const Value child : kids) remove(child, true);
      it = recs_.find(vid);
      if (it == recs_.end()) return;
      unlink_from_parent(it->second, vid);
      recs_.erase(vid);
      return;
    }
    if (!it->second.children.empty()) {
      it->second.zombie = true;
      return;
    }
    unlink_from_parent(it->second, vid);
    recs_.erase(vid);
  }

  void mark_all_faulty() {
    for (auto& [vid, rec] : recs_) rec.faulty = true;
  }

  std::size_t size() const { return recs_.size(); }
  std::size_t live_count() const {
    std::size_t n = 0;
    for (const auto& [vid, rec] : recs_) {
      if (!rec.zombie) ++n;
    }
    return n;
  }

  const std::map<Value, Rec>& recs() const { return recs_; }

 private:
  void unlink_from_parent(const Rec& rec, Value vid) {
    if (rec.parent == kNoParent) return;
    auto pit = recs_.find(rec.parent);
    if (pit == recs_.end()) return;
    auto& kids = pit->second.children;
    kids.erase(std::remove(kids.begin(), kids.end(), vid), kids.end());
    reap_if_zombie_done(rec.parent);
  }

  void reap_if_zombie_done(Value vid) {
    auto it = recs_.find(vid);
    if (it == recs_.end()) return;
    if (!it->second.zombie || !it->second.children.empty()) return;
    const Value parent = it->second.parent;
    recs_.erase(it);
    if (parent != kNoParent) {
      auto pit = recs_.find(parent);
      if (pit != recs_.end()) {
        auto& kids = pit->second.children;
        kids.erase(std::remove(kids.begin(), kids.end(), vid), kids.end());
        reap_if_zombie_done(parent);
      }
    }
  }

  std::map<Value, Rec> recs_;
};

/// Full-state equivalence: every record, field by field, plus the aggregate
/// counters and a negative probe for ids outside the model.
void expect_equivalent(DescTable& table, const RefModel& model) {
  ASSERT_EQ(table.size(), model.size());
  ASSERT_EQ(table.live_count(), model.live_count());
  for (const auto& [vid, rec] : model.recs()) {
    const TrackedDesc* desc = table.find(vid);
    ASSERT_NE(desc, nullptr) << "vid " << vid << " missing from slab table";
    EXPECT_EQ(desc->vid, vid);
    EXPECT_EQ(desc->sid, rec.sid);
    EXPECT_EQ(desc->state, rec.state);
    EXPECT_EQ(desc->parent_vid, rec.parent);
    EXPECT_EQ(desc->zombie, rec.zombie);
    EXPECT_EQ(desc->faulty, rec.faulty);
    std::vector<Value> got = desc->children;
    std::vector<Value> want = rec.children;
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "children of vid " << vid;
  }
  // Iteration visits exactly the model's record set (zombies included).
  std::size_t visited = 0;
  table.for_each([&](TrackedDesc& desc) {
    ++visited;
    EXPECT_NE(model.recs().count(desc.vid), 0u) << "ghost vid " << desc.vid;
  });
  EXPECT_EQ(visited, model.size());
}

TEST(DescTablePropertyTest, ChurnMatchesMapReferenceModel) {
  static constexpr int kSeeds = 3;
  static constexpr int kOpsPerSeed = 4000;
  static constexpr Value kVidSpace = 48;  // Small id space => heavy collisions.

  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(0xDE5C7AB1Eu + static_cast<std::uint64_t>(seed));
    DescTable table;
    RefModel model;
    std::size_t high_water = 0;
    Value next_sid = 1000;

    auto random_vid = [&] { return static_cast<Value>(rng.uniform(1, kVidSpace)); };
    auto random_live_vid = [&]() -> Value {
      if (model.size() == 0) return 0;
      auto it = model.recs().begin();
      std::advance(it, static_cast<long>(rng.next_below(model.size())));
      return it->first;
    };

    for (int op = 0; op < kOpsPerSeed; ++op) {
      switch (rng.next_below(100)) {
        default: {  // create (possibly re-create), sometimes under a parent.
          const Value vid = random_vid();
          const Value sid = next_sid++;
          const bool fresh = model.find(vid) == nullptr;
          table.create(vid, sid, kStateInitial, {vid});
          model.create(vid, sid, kStateInitial);
          if (fresh && rng.chance(0.5)) {
            const Value parent = random_live_vid();
            if (parent != 0 && parent != vid) {
              TrackedDesc* child = table.find(vid);
              TrackedDesc* par = table.find(parent);
              child->parent_vid = parent;
              par->children.push_back(vid);
              model.link(vid, parent);
            }
          }
          break;
        }
        case 0: case 1: case 2: case 3: case 4:
        case 5: case 6: case 7: case 8: case 9:
        case 10: case 11: case 12: case 13: case 14: {  // remove, no cascade.
          const Value vid = random_vid();
          table.remove(vid, false);
          model.remove(vid, false);
          break;
        }
        case 15: case 16: case 17: case 18: case 19:
        case 20: case 21: case 22: case 23: case 24: {  // remove, cascade.
          const Value vid = random_vid();
          table.remove(vid, true);
          model.remove(vid, true);
          break;
        }
        case 25: case 26: case 27: case 28: case 29:
        case 30: case 31: case 32: case 33: case 34: {  // sid remap.
          const Value vid = random_live_vid();
          if (vid != 0) {
            const Value sid = next_sid++;
            table.find(vid)->sid = sid;
            model.set_sid(vid, sid);
          }
          break;
        }
        case 35: case 36: {  // fault epoch: everything to s_f.
          table.mark_all_faulty();
          model.mark_all_faulty();
          break;
        }
        case 37: case 38: case 39: {  // cascade removal of a tracked vid.
          const Value vid = random_live_vid();
          if (vid != 0) {
            table.remove(vid, true);
            model.remove(vid, true);
            EXPECT_EQ(table.find(vid), nullptr) << "removed vid " << vid << " still found";
          }
          break;
        }
      }
      high_water = std::max(high_water, model.size());
      if (op % 16 == 0) expect_equivalent(table, model);
    }
    expect_equivalent(table, model);
    // Free-list recycling: the slab never grows past the historical maximum
    // number of concurrently tracked records.
    EXPECT_LE(table.slab_capacity(), high_water)
        << "slab leaked slots instead of recycling them (seed " << seed << ")";
  }
}

}  // namespace
}  // namespace sg::c3
