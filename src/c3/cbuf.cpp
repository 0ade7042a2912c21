#include "c3/cbuf.hpp"

#include <cstring>

#include "util/assert.hpp"

namespace sg::c3 {

using kernel::Args;
using kernel::CallCtx;
using kernel::CompId;
using kernel::Value;

CbufManager::CbufManager(kernel::Kernel& kernel)
    : Component(kernel, "cbuf_mgr", /*image_bytes=*/32 * 1024) {
  // Exported so untyped callers (and the invocation-count accounting) can go
  // through the kernel; the typed methods below are the hot path for the
  // trusted in-process users.
  export_fn("cbuf_alloc", [this](CallCtx& ctx, const Args& args) -> Value {
    SG_ASSERT(args.size() == 1);
    return alloc(ctx.client, static_cast<std::size_t>(args[0]));
  });
  export_fn("cbuf_free", [this](CallCtx&, const Args& args) -> Value {
    SG_ASSERT(args.size() == 1);
    free(args[0]);
    return kernel::kOk;
  });
  export_fn("cbuf_size", [this](CallCtx&, const Args& args) -> Value {
    SG_ASSERT(args.size() == 1);
    return static_cast<Value>(size(args[0]));
  });
}

CbufManager::CbufId CbufManager::alloc(CompId owner, std::size_t size) {
  std::lock_guard<std::mutex> guard(mu_);
  if (capacity_bytes_ != 0 && live_bytes_ + size > capacity_bytes_) {
    return kernel::kErrNoMem;
  }
  const CbufId id = next_id_++;
  buffers_.emplace(id, Cbuf{owner, std::vector<unsigned char>(size, 0)});
  live_bytes_ += size;
  return id;
}

bool CbufManager::write(CompId writer, CbufId id, std::size_t offset, const void* data,
                        std::size_t len) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = buffers_.find(id);
  if (it == buffers_.end()) return false;
  Cbuf& buf = it->second;
  if (buf.owner != writer) return false;  // Read-only for non-producers.
  if (offset + len > buf.bytes.size()) return false;
  std::memcpy(buf.bytes.data() + offset, data, len);
  return true;
}

bool CbufManager::read(CbufId id, std::size_t offset, void* out, std::size_t len) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = buffers_.find(id);
  if (it == buffers_.end()) return false;
  const Cbuf& buf = it->second;
  if (offset + len > buf.bytes.size()) return false;
  std::memcpy(out, buf.bytes.data() + offset, len);
  return true;
}

const unsigned char* CbufManager::view(CbufId id, std::size_t offset, std::size_t len) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = buffers_.find(id);
  if (it == buffers_.end()) return nullptr;
  const Cbuf& buf = it->second;
  if (offset + len > buf.bytes.size()) return nullptr;
  return buf.bytes.data() + offset;
}

std::size_t CbufManager::size(CbufId id) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = buffers_.find(id);
  return it == buffers_.end() ? 0 : it->second.bytes.size();
}

void CbufManager::free(CbufId id) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = buffers_.find(id);
  if (it == buffers_.end()) return;
  live_bytes_ -= it->second.bytes.size();
  buffers_.erase(it);
}

bool CbufManager::chown(CompId from, CbufId id, CompId to) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = buffers_.find(id);
  if (it == buffers_.end() || it->second.owner != from) return false;
  it->second.owner = to;
  return true;
}

void CbufManager::reset_state() {
  // Trusted component: never micro-rebooted during fault campaigns (§II-E).
  // reset_state exists for full system teardown between campaign runs.
  std::lock_guard<std::mutex> guard(mu_);
  buffers_.clear();
  next_id_ = 1;
  live_bytes_ = 0;  // The budget itself (capacity_bytes_) is configuration.
}

}  // namespace sg::c3
