#pragma once

#include <functional>
#include <map>

#include "c3/cbuf.hpp"
#include "c3/invoker.hpp"
#include "c3/storage.hpp"
#include "kernel/component.hpp"
#include "kernel/kernel.hpp"
#include "kernel/regops.hpp"
#include "util/rng.hpp"

namespace sg::components {

/// The in-memory file system (§II-C, "RamFS"). The torrent-style interface
/// of COMPOSITE: descriptors are split from a parent descriptor (root = 0),
/// named by integer path ids (a hash of the textual path — the paper's
/// "id ... a hash on its path"). File contents live in zero-copy cbufs; the
/// G1 mechanism redundantly records ⟨id, offset, length, *data⟩ in the
/// storage component *inside the critical region of twrite* (the manual
/// race-avoidance the paper describes in §III-C G1), so a micro-reboot never
/// loses file data.
///
/// Interface (service "ramfs"):
///   tsplit(compid, parent_fd, pathid [,hint]) -> fd    [creation]
///   tread(compid, fd, cbuf, sz) -> bytes                [desc_data_retadd(offset)]
///   twrite(compid, fd, cbuf, sz) -> bytes               [desc_data_retadd(offset)]
///   tlseek(compid, fd, offset)                          [sm_restore]
///   trelease(compid, fd)                                [terminal]
class RamFsComponent final : public kernel::Component {
 public:
  RamFsComponent(kernel::Kernel& kernel, c3::CbufManager& cbufs, c3::StorageComponent& storage,
                 kernel::FaultProfile profile, std::uint64_t seed);

  void reset_state() override;

  /// DEMONSTRATION KNOB for the race of §III-C (G1): when true, twrite's
  /// redundant storage update is deferred out of the critical region (to the
  /// next invocation) instead of being issued inside it. A crash in the
  /// window then loses the write — exactly why the paper places the storage
  /// interaction manually inside the critical region. Default: safe.
  void set_unsafe_deferred_sync(bool unsafe) { unsafe_deferred_sync_ = unsafe; }

  std::size_t open_files() const { return fds_.size(); }

  /// Fires when an open fd's file is gone from both our map and storage (the
  /// substrate lost the G1 copy): the caller gets kErrNoEnt instead of data —
  /// a degraded, but explicit, outcome. Wired to RecoveryCoordinator::
  /// note_degraded by the System builder.
  void set_degraded_hook(std::function<void()> hook) { degraded_hook_ = std::move(hook); }
  /// G1 records re-stored because the storage component rebooted under us.
  std::uint64_t storage_resyncs() const { return storage_resyncs_; }

  /// Reads a whole file's contents (test/diagnostic helper, not interface).
  std::string file_contents(kernel::Value pathid) const;

 private:
  struct File {
    c3::CbufManager::CbufId data = 0;
    kernel::Value size = 0;
  };
  struct OpenFd {
    kernel::Value pathid = 0;
    kernel::Value offset = 0;
    kernel::Value parent = 0;
  };

  kernel::Value tsplit(kernel::CallCtx& ctx, const kernel::Args& args);
  kernel::Value tread(kernel::CallCtx& ctx, const kernel::Args& args);
  kernel::Value twrite(kernel::CallCtx& ctx, const kernel::Args& args);
  kernel::Value tlseek(kernel::CallCtx& ctx, const kernel::Args& args);
  kernel::Value trelease(kernel::CallCtx& ctx, const kernel::Args& args);

  /// Finds the file, consulting the storage component (G1) when our own map
  /// was wiped by a micro-reboot. Returns nullptr if the file truly never
  /// existed.
  File* find_file(kernel::Value pathid);
  File& create_file(kernel::Value pathid);

  void apply_pending_sync();

  /// Lazy G1 repopulation: when the storage component's fault epoch moved
  /// (it was micro-rebooted and its contents wiped), re-store every file we
  /// still hold in memory. Called at handler entry like apply_pending_sync.
  void resync_storage();

  bool unsafe_deferred_sync_ = false;
  int storage_epoch_ = 0;            ///< Storage fault epoch last synced to.
  std::uint64_t storage_resyncs_ = 0;
  std::function<void()> degraded_hook_;
  kernel::Value pending_sync_ = -1;  ///< pathid awaiting a deferred G1 sync.
  std::map<kernel::Value, File> files_;   ///< pathid -> file.
  std::map<kernel::Value, OpenFd> fds_;   ///< fd -> open-descriptor state.
  kernel::Value next_fd_ = 1;
  c3::CbufManager& cbufs_;
  c3::StorageComponent& storage_;
  c3::NsId ns_ = c3::kNoNs;  ///< The "ramfs" storage namespace, interned once.
  kernel::FaultProfile profile_;
  Rng rng_;

  static constexpr std::size_t kMaxFileSize = 64 * 1024;
};

/// Typed client API.
class FsClient {
 public:
  FsClient(c3::Invoker& stub, c3::CbufManager& cbufs, kernel::CompId self)
      : stub_(stub),
        cbufs_(cbufs),
        self_(self),
        tsplit_(stub.resolve("tsplit")),
        tread_(stub.resolve("tread")),
        twrite_(stub.resolve("twrite")),
        tlseek_(stub.resolve("tlseek")),
        trelease_(stub.resolve("trelease")) {}

  static constexpr kernel::Value kRootFd = 0;

  kernel::Value open(kernel::Value pathid, kernel::Value parent_fd = kRootFd) {
    return stub_.call_id(tsplit_, {self_, parent_fd, pathid});
  }
  kernel::Value lseek(kernel::Value fd, kernel::Value offset) {
    return stub_.call_id(tlseek_, {self_, fd, offset});
  }
  kernel::Value close(kernel::Value fd) { return stub_.call_id(trelease_, {self_, fd}); }

  /// String conveniences (allocate a scratch cbuf per call).
  kernel::Value write(kernel::Value fd, const std::string& bytes);
  std::string read(kernel::Value fd, std::size_t max_bytes);

 private:
  c3::Invoker& stub_;
  c3::CbufManager& cbufs_;
  kernel::CompId self_;
  c3::FnId tsplit_, tread_, twrite_, tlseek_, trelease_;
};

}  // namespace sg::components
