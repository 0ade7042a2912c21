// Unit tests for the C3 runtime building blocks: descriptor tracking tables,
// the cbuf manager, and the storage component.

#include <gtest/gtest.h>

#include "c3/cbuf.hpp"
#include "c3/desc_track.hpp"
#include "c3/storage.hpp"
#include "kernel/kernel.hpp"

namespace sg {
namespace {

using c3::DescTable;
using c3::TrackedDesc;
using kernel::Value;

// --- DescTable -----------------------------------------------------------------

TEST(DescTableTest, CreateFindRemove) {
  DescTable table;
  table.create(7, 7, c3::kStateInitial, {1, 2});
  EXPECT_NE(table.find(7), nullptr);
  EXPECT_EQ(table.find(8), nullptr);
  EXPECT_EQ(table.size(), 1u);
  table.remove(7, false);
  EXPECT_EQ(table.find(7), nullptr);
}

TEST(DescTableTest, CreateIsIdempotent) {
  DescTable table;
  table.create(7, 7, c3::kStateInitial, {});
  TrackedDesc& again = table.create(7, 9, c3::kStateInitial, {});
  EXPECT_EQ(again.sid, 9);
  EXPECT_EQ(table.size(), 1u);
}

TEST(DescTableTest, CascadeRemovesSubtree) {
  DescTable table;
  auto& root = table.create(1, 1, c3::kStateInitial, {});
  auto& mid = table.create(2, 2, c3::kStateInitial, {});
  mid.parent_vid = 1;
  root.children.push_back(2);
  auto& leaf = table.create(3, 3, c3::kStateInitial, {});
  leaf.parent_vid = 2;
  mid.children.push_back(3);

  table.remove(1, /*cascade=*/true);
  EXPECT_EQ(table.size(), 0u);
}

TEST(DescTableTest, NonCascadeKeepsZombieForChildren) {
  DescTable table;
  auto& root = table.create(1, 1, c3::kStateInitial, {});
  auto& child = table.create(2, 2, c3::kStateInitial, {});
  child.parent_vid = 1;
  root.children.push_back(2);

  table.remove(1, /*cascade=*/false);
  // Y_dr semantics: metadata remains usable by the child.
  ASSERT_NE(table.find(1), nullptr);
  EXPECT_TRUE(table.find(1)->zombie);
  EXPECT_EQ(table.live_count(), 1u);

  // Removing the last child reaps the zombie.
  table.remove(2, false);
  EXPECT_EQ(table.size(), 0u);
}

TEST(DescTableTest, MarkAllFaulty) {
  DescTable table;
  table.create(1, 1, c3::kStateInitial, {});
  table.create(2, 2, c3::kStateInitial, {});
  table.mark_all_faulty();
  table.for_each([](const TrackedDesc& desc) { EXPECT_TRUE(desc.faulty); });
}

// --- CbufManager ----------------------------------------------------------------

class CbufTest : public ::testing::Test {
 protected:
  kernel::Kernel kern;
  c3::CbufManager cbufs{kern};
};

TEST_F(CbufTest, OwnerCanWriteOthersCannot) {
  const auto id = cbufs.alloc(/*owner=*/10, 64);
  const char data[4] = {'a', 'b', 'c', 'd'};
  EXPECT_TRUE(cbufs.write(10, id, 0, data, 4));
  EXPECT_FALSE(cbufs.write(11, id, 0, data, 4));  // Read-only for non-producers.
  char out[4] = {};
  EXPECT_TRUE(cbufs.read(id, 0, out, 4));
  EXPECT_EQ(std::string(out, 4), "abcd");
}

TEST_F(CbufTest, BoundsAreEnforced) {
  const auto id = cbufs.alloc(10, 8);
  char data[16] = {};
  EXPECT_FALSE(cbufs.write(10, id, 4, data, 8));
  EXPECT_FALSE(cbufs.read(id, 8, data, 1));
  EXPECT_TRUE(cbufs.write(10, id, 0, data, 8));
}

TEST_F(CbufTest, ChownTransfersWriteAccess) {
  const auto id = cbufs.alloc(10, 8);
  EXPECT_TRUE(cbufs.chown(10, id, 20));
  char byte = 'x';
  EXPECT_FALSE(cbufs.write(10, id, 0, &byte, 1));
  EXPECT_TRUE(cbufs.write(20, id, 0, &byte, 1));
  EXPECT_FALSE(cbufs.chown(10, id, 30));  // Only the owner may chown.
}

TEST_F(CbufTest, FreeRemovesBuffer) {
  const auto id = cbufs.alloc(10, 8);
  EXPECT_TRUE(cbufs.exists(id));
  cbufs.free(id);
  EXPECT_FALSE(cbufs.exists(id));
  char byte = 0;
  EXPECT_FALSE(cbufs.read(id, 0, &byte, 1));
}

// --- StorageComponent -------------------------------------------------------------

class StorageTest : public ::testing::Test {
 protected:
  kernel::Kernel kern;
  c3::CbufManager cbufs{kern};
  c3::StorageComponent storage{kern, cbufs};
};

TEST_F(StorageTest, DescRecordsRoundTrip) {
  const c3::NsId evt = storage.intern_ns("evt");
  storage.record_desc(evt, 5, {/*creator=*/3, /*parent=*/0, {{"grp", 2}}});
  const auto record = storage.lookup_desc(evt, 5);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->creator, 3);
  EXPECT_EQ(record->meta.at("grp"), 2);
  EXPECT_FALSE(storage.lookup_desc(evt, 6).has_value());
  EXPECT_FALSE(storage.lookup_desc(storage.intern_ns("lock"), 5).has_value());  // Namespaced.
  storage.erase_desc(evt, 5);
  EXPECT_FALSE(storage.lookup_desc(evt, 5).has_value());
}

TEST_F(StorageTest, DataSlicesRoundTrip) {
  const c3::NsId ramfs = storage.intern_ns("ramfs");
  storage.store_data(ramfs, 99, {0, 123, 7});
  const auto slice = storage.fetch_data(ramfs, 99);
  ASSERT_TRUE(slice.has_value());
  EXPECT_EQ(slice->length, 123);
  EXPECT_EQ(slice->data, 7);
  storage.store_data(ramfs, 99, {0, 456, 7});  // Overwrite.
  EXPECT_EQ(storage.fetch_data(ramfs, 99)->length, 456);
  storage.erase_data(ramfs, 99);
  EXPECT_FALSE(storage.fetch_data(ramfs, 99).has_value());
}

TEST_F(StorageTest, HashIdIsStableAndSpread) {
  const Value a = c3::StorageComponent::hash_id("/index.html");
  EXPECT_EQ(a, c3::StorageComponent::hash_id("/index.html"));
  EXPECT_NE(a, c3::StorageComponent::hash_id("/index.htm"));
  EXPECT_GE(a, 0);  // Non-negative so it never collides with error codes.
}

TEST_F(StorageTest, SurvivesOtherComponentsReboots) {
  // The storage component is trusted infrastructure; a micro-reboot of a
  // *service* component must not disturb its records.
  class Dummy final : public kernel::Component {
   public:
    explicit Dummy(kernel::Kernel& kernel) : Component(kernel, "dummy") {}
    void reset_state() override {}
  } dummy(kern);
  const c3::NsId evt = storage.intern_ns("evt");
  storage.record_desc(evt, 1, {2, 0, {}});
  kern.inject_crash(dummy.id());
  EXPECT_TRUE(storage.lookup_desc(evt, 1).has_value());
}

}  // namespace
}  // namespace sg
