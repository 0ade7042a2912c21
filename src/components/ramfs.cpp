#include "components/ramfs.hpp"

#include <algorithm>
#include <vector>

#include "util/assert.hpp"

namespace sg::components {

using kernel::Args;
using kernel::CallCtx;
using kernel::Value;

RamFsComponent::RamFsComponent(kernel::Kernel& kernel, c3::CbufManager& cbufs,
                               c3::StorageComponent& storage, kernel::FaultProfile profile,
                               std::uint64_t seed)
    : Component(kernel, "ramfs", /*image_bytes=*/48 * 1024),
      cbufs_(cbufs),
      storage_(storage),
      ns_(storage.intern_ns("ramfs")),
      profile_(profile),
      rng_(seed) {
  export_fn("tsplit", [this](CallCtx& ctx, const Args& a) { return tsplit(ctx, a); });
  export_fn("tread", [this](CallCtx& ctx, const Args& a) { return tread(ctx, a); });
  export_fn("twrite", [this](CallCtx& ctx, const Args& a) { return twrite(ctx, a); });
  export_fn("tlseek", [this](CallCtx& ctx, const Args& a) { return tlseek(ctx, a); });
  export_fn("trelease", [this](CallCtx& ctx, const Args& a) { return trelease(ctx, a); });
}

void RamFsComponent::apply_pending_sync() {
  resync_storage();
  if (pending_sync_ < 0) return;
  auto it = files_.find(pending_sync_);
  if (it != files_.end()) {
    storage_.store_data(ns_, pending_sync_, {0, it->second.size, it->second.data});
  }
  pending_sync_ = -1;
}

void RamFsComponent::resync_storage() {
  const int epoch = kernel().fault_epoch(storage_.id());
  if (epoch == storage_epoch_) return;
  // The storage component was micro-rebooted since we last published: its G1
  // records are gone. Re-store every file we still hold — we are the
  // authoritative copy while we are alive; G1 is redundancy for *our* next
  // reboot. Epoch is latched first so a storage crash mid-loop (bumping it
  // again) retriggers the resync at the next handler entry.
  storage_epoch_ = epoch;
  ++storage_resyncs_;
  for (const auto& [pathid, file] : files_) {
    storage_.store_data(ns_, pathid, {0, file.size, file.data});
  }
}

RamFsComponent::File* RamFsComponent::find_file(Value pathid) {
  auto it = files_.find(pathid);
  if (it != files_.end()) return &it->second;
  // G1: our map may have been wiped by a micro-reboot — the storage
  // component redundantly holds ⟨id, offset, length, *data⟩.
  const auto slice = storage_.fetch_data(ns_, pathid);
  if (!slice.has_value()) return nullptr;
  File& file = files_[pathid];
  file.data = slice->data;
  file.size = slice->length;
  return &file;
}

RamFsComponent::File& RamFsComponent::create_file(Value pathid) {
  File& file = files_[pathid];
  file.data = cbufs_.alloc(id(), kMaxFileSize);
  file.size = 0;
  // Register the (empty) file with storage inside the same critical region
  // that created it, so a crash between the two structures cannot lose it.
  storage_.store_data(ns_, pathid, {0, file.size, file.data});
  return file;
}

Value RamFsComponent::tsplit(CallCtx& ctx, const Args& args) {
  apply_pending_sync();
  kernel::simulate_server_work(ctx, profile_, rng_);
  SG_ASSERT(args.size() == 3 || args.size() == 4);
  const Value pathid = args[2];
  File* file = find_file(pathid);
  if (file == nullptr) {
    // A 4-arg call is a recovery replay (id hint): the file existed before
    // the fault, so a miss here means the substrate lost its G1 copy. It is
    // recreated empty — explicitly degraded, not silently wrong.
    if (args.size() == 4 && degraded_hook_) degraded_hook_();
    file = &create_file(pathid);
  }

  Value fd;
  if (args.size() == 4) {  // Recovery replay: reuse the previous fd.
    fd = args[3];
    next_fd_ = std::max(next_fd_, fd + 1);
  } else {
    fd = next_fd_++;
  }
  fds_[fd] = OpenFd{pathid, 0, args[1]};
  return fd;
}

Value RamFsComponent::tread(CallCtx& ctx, const Args& args) {
  apply_pending_sync();
  kernel::simulate_server_work(ctx, profile_, rng_);
  SG_ASSERT(args.size() == 4);
  auto it = fds_.find(args[1]);
  if (it == fds_.end()) return kernel::kErrInval;
  OpenFd& ofd = it->second;
  File* file = find_file(ofd.pathid);
  if (file == nullptr) {
    // The fd is live but the file is gone from both our map and storage:
    // the substrate lost the G1 copy. Explicit, degraded failure.
    if (degraded_hook_) degraded_hook_();
    return kernel::kErrNoEnt;
  }

  const auto want = static_cast<Value>(args[3]);
  const Value avail = std::max<Value>(0, file->size - ofd.offset);
  const Value n = std::min(want, avail);
  if (n <= 0) return 0;
  std::vector<unsigned char> tmp(static_cast<std::size_t>(n));
  SG_ASSERT(cbufs_.read(file->data, static_cast<std::size_t>(ofd.offset), tmp.data(),
                        tmp.size()));
  // The caller owns the destination cbuf; we cannot write it (read-only
  // producer rule) — the caller passed a cbuf *it* owns, so write on its
  // behalf is done via the trusted manager using the caller's identity.
  if (!cbufs_.write(ctx.client, args[2], 0, tmp.data(), tmp.size())) return kernel::kErrInval;
  ofd.offset += n;
  return n;
}

Value RamFsComponent::twrite(CallCtx& ctx, const Args& args) {
  apply_pending_sync();
  kernel::simulate_server_work(ctx, profile_, rng_);
  SG_ASSERT(args.size() == 4);
  auto it = fds_.find(args[1]);
  if (it == fds_.end()) return kernel::kErrInval;
  OpenFd& ofd = it->second;
  File* file = find_file(ofd.pathid);
  if (file == nullptr) {
    if (degraded_hook_) degraded_hook_();
    return kernel::kErrNoEnt;
  }

  const auto n = static_cast<std::size_t>(args[3]);
  if (static_cast<std::size_t>(ofd.offset) + n > kMaxFileSize) return kernel::kErrNoMem;
  std::vector<unsigned char> tmp(n);
  if (!cbufs_.read(args[2], 0, tmp.data(), n)) return kernel::kErrInval;
  SG_ASSERT(cbufs_.write(id(), file->data, static_cast<std::size_t>(ofd.offset), tmp.data(), n));
  ofd.offset += static_cast<Value>(n);
  file->size = std::max(file->size, ofd.offset);
  if (unsafe_deferred_sync_) {
    // The race the paper describes (§III-C G1): the RamFS structures are
    // updated but the redundant storage record is not yet — a crash in this
    // window silently loses the write. Kept as a demonstration knob.
    pending_sync_ = ofd.pathid;
  } else {
    // G1 critical region: update the redundant storage record *before*
    // returning, so no other thread can observe data that a crash would lose.
    storage_.store_data(ns_, ofd.pathid, {0, file->size, file->data});
  }
  return static_cast<Value>(n);
}

Value RamFsComponent::tlseek(CallCtx& ctx, const Args& args) {
  apply_pending_sync();
  kernel::simulate_server_work(ctx, profile_, rng_);
  SG_ASSERT(args.size() == 3);
  auto it = fds_.find(args[1]);
  if (it == fds_.end()) return kernel::kErrInval;
  if (args[2] < 0) return kernel::kErrInval;
  it->second.offset = args[2];
  return kernel::kOk;
}

Value RamFsComponent::trelease(CallCtx& ctx, const Args& args) {
  apply_pending_sync();
  kernel::simulate_server_work(ctx, profile_, rng_);
  SG_ASSERT(args.size() == 2);
  return fds_.erase(args[1]) != 0 ? kernel::kOk : kernel::kErrInval;
}

std::string RamFsComponent::file_contents(Value pathid) const {
  auto resolve = [this, pathid]() -> File {
    auto it = files_.find(pathid);
    if (it != files_.end()) return it->second;
    const auto slice = storage_.fetch_data(ns_, pathid);
    SG_ASSERT_MSG(slice.has_value(), "file_contents: no such file");
    return File{slice->data, slice->length};
  };
  const File file = resolve();
  std::string out(static_cast<std::size_t>(file.size), '\0');
  if (file.size > 0) {
    SG_ASSERT(cbufs_.read(file.data, 0, out.data(), out.size()));
  }
  return out;
}

void RamFsComponent::reset_state() {
  // File *data* lives in cbufs and storage records, both of which survive; a
  // micro-reboot only loses our maps — exactly the paper's failure model.
  // next_fd_ survives so fresh opens cannot collide with fds that client
  // stubs still track and will recover with id hints (ABA avoidance).
  files_.clear();
  fds_.clear();
  pending_sync_ = -1;  // The deferred sync is lost with the component state.
}

// ---------------------------------------------------------------------------
// FsClient conveniences
// ---------------------------------------------------------------------------

Value FsClient::write(Value fd, const std::string& bytes) {
  const auto cbuf = cbufs_.alloc(self_, bytes.size());
  cbufs_.write(self_, cbuf, 0, bytes.data(), bytes.size());
  const Value ret = stub_.call_id(twrite_, {self_, fd, cbuf, static_cast<Value>(bytes.size())});
  cbufs_.free(cbuf);
  return ret;
}

std::string FsClient::read(Value fd, std::size_t max_bytes) {
  const auto cbuf = cbufs_.alloc(self_, max_bytes);
  const Value n = stub_.call_id(tread_, {self_, fd, cbuf, static_cast<Value>(max_bytes)});
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    cbufs_.read(cbuf, 0, out.data(), out.size());
  }
  cbufs_.free(cbuf);
  return out;
}

}  // namespace sg::components
