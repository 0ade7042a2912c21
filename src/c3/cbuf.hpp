#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernel/component.hpp"
#include "kernel/kernel.hpp"

namespace sg::c3 {

/// Zero-copy shared buffer manager (cbufs, §II-C / [17]). A trusted
/// component, like the kernel: it is *not* a fault-injection target (§II-E),
/// and its buffers survive micro-reboots of every other component — which is
/// precisely why the storage component can keep resource data in cbufs.
///
/// The producing component has write access; everyone else is read-only.
/// That asymmetry is what prevents fault propagation through shared buffers,
/// and it is enforced here structurally (writes are owner-checked).
class CbufManager final : public kernel::Component {
 public:
  using CbufId = kernel::Value;

  explicit CbufManager(kernel::Kernel& kernel);

  /// Allocates a buffer of `size` bytes owned (writable) by `owner`.
  /// Returns kernel::kErrNoMem when a byte budget is set and exhausted.
  CbufId alloc(kernel::CompId owner, std::size_t size);

  /// Optional byte budget modelling a fixed cbuf arena (embedded systems
  /// preallocate). 0 = unlimited (the default; no behavior change). When
  /// set, alloc() fails with kErrNoMem once live bytes would exceed it.
  void set_capacity_bytes(std::size_t capacity) {
    std::lock_guard<std::mutex> guard(mu_);
    capacity_bytes_ = capacity;
  }
  std::size_t live_bytes() const {
    std::lock_guard<std::mutex> guard(mu_);
    return live_bytes_;
  }

  /// Owner-only write. Returns false (and writes nothing) on a bounds or
  /// ownership violation.
  bool write(kernel::CompId writer, CbufId id, std::size_t offset, const void* data,
             std::size_t len);

  /// Read-only access for any component.
  bool read(CbufId id, std::size_t offset, void* out, std::size_t len) const;

  /// Zero-copy read-only view of `len` bytes at `offset`, or nullptr on a
  /// bounds/liveness miss. Safe to hold while the buffer is alive: a cbuf's
  /// byte storage is heap-allocated at alloc() and never resized afterward
  /// (write() is bounds-checked against the original size), so the pointer
  /// survives map rehashes and concurrent alloc/free of other buffers. This
  /// is the mechanism behind the web server's slice-served responses: the
  /// response is rendered once into a shared cbuf and every request serves a
  /// view of it, paying no per-request copy (docs/WEBSRV.md).
  const unsigned char* view(CbufId id, std::size_t offset, std::size_t len) const;

  std::size_t size(CbufId id) const;
  bool exists(CbufId id) const {
    std::lock_guard<std::mutex> guard(mu_);
    return buffers_.count(id) != 0;
  }
  void free(CbufId id);

  /// Transfers write ownership (used when a producer hands a buffer to the
  /// storage component for safekeeping).
  bool chown(kernel::CompId from, CbufId id, kernel::CompId to);

  std::size_t live_buffers() const {
    std::lock_guard<std::mutex> guard(mu_);
    return buffers_.size();
  }

  void reset_state() override;

 private:
  struct Cbuf {
    kernel::CompId owner;
    std::vector<unsigned char> bytes;
  };

  /// Guards all cbuf state. Trusted component reached by direct call from
  /// concurrently-running handlers at cores>1; pure data operations, so one
  /// short-hold mutex suffices (never held across kernel calls or hooks).
  mutable std::mutex mu_;
  std::unordered_map<CbufId, Cbuf> buffers_;
  CbufId next_id_ = 1;
  std::size_t capacity_bytes_ = 0;  ///< 0 = unlimited.
  std::size_t live_bytes_ = 0;
};

}  // namespace sg::c3
