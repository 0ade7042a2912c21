#pragma once

#include <map>
#include <vector>

#include "c3/invoker.hpp"
#include "kernel/component.hpp"
#include "kernel/kernel.hpp"
#include "kernel/regops.hpp"
#include "util/rng.hpp"

namespace sg::components {

/// The memory-mapping manager (§II-D): virtual-to-physical mappings in a
/// recursive-address-space model. A root mapping ties a (component, vaddr)
/// pair to a physical frame; aliases form a tree rooted at the frame, and
/// may span components (P_dr = XCParent). mman_release_page revokes a
/// mapping and its whole alias subtree (C_dr — recursive revocation).
///
/// Descriptors are mapping ids derived deterministically from
/// (component, vaddr): vaddrs are what the paper tracks, and the encoding
/// keeps ids stable across recovery replays.
///
/// Interface (service "mman"):
///   mman_get_page(compid, vaddr [,hint]) -> mapid            [creation]
///   mman_alias_page(compid, parent_mapid, dst_comp, dst_vaddr [,hint])
///                                               -> mapid     [creation]
///   mman_touch(compid, mapid) -> frame                       [access]
///   mman_release_page(compid, mapid)                         [terminal]
class MemMgrComponent final : public kernel::Component {
 public:
  MemMgrComponent(kernel::Kernel& kernel, kernel::FaultProfile profile, std::uint64_t seed,
                  std::size_t num_frames = 4096);

  void reset_state() override;

  /// Deterministic mapping id for (component, vaddr >> 12).
  static kernel::Value map_id(kernel::CompId comp, kernel::Value vaddr);

  std::size_t mapping_count() const { return mappings_.size(); }
  std::size_t frames_in_use() const;
  /// Frame backing a mapping, or -1.
  kernel::Value frame_of(kernel::Value mapid) const;
  /// Checks the alias-tree invariants (parent links, refcounts); throws
  /// sg::AssertionError on violation. Used by property tests.
  void check_invariants() const;

 private:
  struct Mapping {
    kernel::Value mapid;
    kernel::CompId comp;
    kernel::Value vaddr;
    std::size_t frame;
    kernel::Value parent = 0;  ///< 0 == root mapping.
    std::vector<kernel::Value> children;
  };

  kernel::Value get_page(kernel::CallCtx& ctx, const kernel::Args& args);
  kernel::Value alias_page(kernel::CallCtx& ctx, const kernel::Args& args);
  kernel::Value touch(kernel::CallCtx& ctx, const kernel::Args& args);
  kernel::Value release_page(kernel::CallCtx& ctx, const kernel::Args& args);

  void revoke_subtree(kernel::Value mapid);

  std::map<kernel::Value, Mapping> mappings_;
  std::vector<int> frame_refs_;  ///< Reference count per physical frame.
  kernel::FaultProfile profile_;
  Rng rng_;
};

/// Typed client API.
class MmClient {
 public:
  explicit MmClient(c3::Invoker& stub)
      : stub_(stub),
        get_page_(stub.resolve("mman_get_page")),
        alias_page_(stub.resolve("mman_alias_page")),
        touch_(stub.resolve("mman_touch")),
        release_page_(stub.resolve("mman_release_page")) {}

  kernel::Value get_page(kernel::CompId self, kernel::Value vaddr) {
    return stub_.call_id(get_page_, {self, vaddr});
  }
  kernel::Value alias_page(kernel::CompId self, kernel::Value parent_mapid,
                           kernel::CompId dst_comp, kernel::Value dst_vaddr) {
    return stub_.call_id(alias_page_, {self, parent_mapid, dst_comp, dst_vaddr});
  }
  kernel::Value touch(kernel::CompId self, kernel::Value mapid) {
    return stub_.call_id(touch_, {self, mapid});
  }
  kernel::Value release_page(kernel::CompId self, kernel::Value mapid) {
    return stub_.call_id(release_page_, {self, mapid});
  }

 private:
  c3::Invoker& stub_;
  c3::FnId get_page_, alias_page_, touch_, release_page_;
};

}  // namespace sg::components
