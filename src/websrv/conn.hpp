#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "c3/cbuf.hpp"
#include "kernel/types.hpp"

namespace sg::websrv {

/// A by-reference byte range inside a cbuf — the currency of the zero-copy
/// response path: requests and responses travel as slices, never as
/// per-request std::string copies (docs/WEBSRV.md).
struct Slice {
  c3::CbufManager::CbufId buf = 0;
  std::uint32_t offset = 0;
  std::uint32_t len = 0;

  bool valid() const { return buf != 0 && len != 0; }
};

/// FNV-1a over the slice's bytes via the cbuf's zero-copy view (0 when the
/// slice does not resolve). Workers compare this against the precomputed
/// checksum of the expected response to verify correct bodies without
/// materializing a string.
std::uint64_t slice_checksum(const c3::CbufManager& cbufs, Slice slice);

/// The same checksum over an in-memory byte string — used to precompute the
/// expected-response oracle that slice_checksum is compared against.
std::uint64_t bytes_checksum(const std::string& bytes);

/// Simulated per-request network-stack cost (TCP/IP, socket syscalls, data
/// copies) that every server variant pays identically, now scaled per byte
/// *of the slices* so zero-copy serving changes who owns the bytes but not
/// what the wire costs. Implemented as repeated checksum passes over the
/// request and response views so it cannot be optimized away.
void network_stack_work(const c3::CbufManager& cbufs, Slice request, Slice response);

/// The connection layer: client sockets modeled as kernel-style descriptors
/// over cbufs. Each connection owns a request ring (one cbuf) into which the
/// load generator writes pipelined HTTP/1.1 requests back-to-back; workers
/// serve each request from its slice. Keep-alive means a connection's ring
/// is reused across requests; it is recycled (write cursor reset) only once
/// every submitted request on it has completed, so an in-flight slice is
/// never overwritten — a connection that fills up while requests are still
/// outstanding is retired and a fresh one opened (connection churn, as under
/// a real accept loop).
///
/// Trusted harness-level structure like CbufManager itself (not a SWIFI
/// target): one short-hold host mutex makes it safe for the generator and
/// workers to touch connections concurrently at cores>1.
class ConnectionLayer {
 public:
  ConnectionLayer(c3::CbufManager& cbufs, kernel::CompId owner,
                  std::size_t ring_bytes = 16 * 1024);
  ~ConnectionLayer();

  ConnectionLayer(const ConnectionLayer&) = delete;
  ConnectionLayer& operator=(const ConnectionLayer&) = delete;

  /// Opens a keep-alive connection; returns its descriptor.
  kernel::Value open();

  /// Closes a connection and frees its ring once drained (idempotent).
  void close(kernel::Value conn);

  /// Appends one request's bytes to `conn`'s pipeline and returns its slice.
  /// Returns nullopt when the ring cannot take the request (full with
  /// requests still in flight, or closed) — the caller opens a new
  /// connection. A drained full ring is recycled in place (keep-alive).
  std::optional<Slice> submit(kernel::Value conn, const std::string& raw);

  /// Marks one request on `conn` complete (its slice will not be read
  /// again). Unblocks ring recycling.
  void complete(kernel::Value conn);

  // --- accounting -----------------------------------------------------------
  std::uint64_t connections_opened() const;
  std::uint64_t submits() const;
  std::uint64_t ring_recycles() const;

 private:
  struct Conn {
    c3::CbufManager::CbufId ring = 0;
    std::uint32_t wr = 0;          ///< Ring write cursor.
    std::uint64_t submitted = 0;   ///< Requests written into the ring.
    std::uint64_t completed = 0;   ///< Requests fully served.
  };

  c3::CbufManager& cbufs_;
  kernel::CompId owner_;
  std::size_t ring_bytes_;

  mutable std::mutex mu_;
  std::map<kernel::Value, Conn> conns_;
  kernel::Value next_id_ = 1;
  std::uint64_t opened_ = 0;
  std::uint64_t submits_ = 0;
  std::uint64_t recycles_ = 0;
};

/// Cache of fully rendered responses: each response (status line, headers,
/// body) is written exactly once into a shared arena cbuf and thereafter
/// served by Slice reference. Entries are keyed by (pathid, recovery epoch):
/// when the RamFS or memory manager is micro-rebooted the serving epoch
/// moves, old entries stop matching, and the next request re-reads the file
/// through the recovered services and renders a fresh slice — the cache
/// invalidation the pre-rework worker loop was missing.
///
/// Zero-copy serving means a worker holds a Slice into the arena for the
/// whole network phase, *outside* the content lock. The arena is compacted
/// (rewound past the canned responses) once every stored entry is stale, so
/// a slice handed out by lookup()/store() is pinned until the caller's
/// unpin(): compaction defers while any pin is outstanding, which is what
/// keeps a response's bytes stable under a worker that was preempted
/// mid-serve by a micro-reboot of the very services the cache is keyed on.
class ResponseCache {
 public:
  ResponseCache(c3::CbufManager& cbufs, kernel::CompId owner,
                std::size_t arena_bytes = 256 * 1024);
  ~ResponseCache();

  ResponseCache(const ResponseCache&) = delete;
  ResponseCache& operator=(const ResponseCache&) = delete;

  /// Cached slice for `pathid` rendered under `epoch`, or nullopt. A hit is
  /// pinned — the caller must unpin() once done reading the slice.
  std::optional<Slice> lookup(kernel::Value pathid, std::int64_t epoch) const;

  /// Renders `bytes` once into the arena and caches the slice under
  /// (pathid, epoch). Returns the slice, pinned (caller unpins); an invalid
  /// Slice (not pinned) when the arena is exhausted — the caller serves the
  /// rendered string directly, correctness never depends on cache capacity.
  Slice store(kernel::Value pathid, std::int64_t epoch, const std::string& bytes);

  /// Releases one pin taken by lookup()/store(). When the last pin drops and
  /// a compaction was deferred, the arena is rewound here.
  void unpin();

  /// A canned response (400/404/405/...) rendered eagerly at construction;
  /// epoch-independent (no service state behind it).
  Slice canned(int status) const;

  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t invalidations() const;  ///< Lookups that missed on epoch only.
  std::uint64_t pins() const;           ///< Outstanding (un-unpinned) slices.

 private:
  Slice append_locked(const std::string& bytes);

  c3::CbufManager& cbufs_;
  kernel::CompId owner_;

  mutable std::mutex mu_;
  c3::CbufManager::CbufId arena_ = 0;
  std::uint32_t wr_ = 0;
  std::uint32_t canned_end_ = 0;  ///< Arena rewind point (past canned slices).
  std::uint32_t arena_bytes_ = 0;
  struct Entry {
    std::int64_t epoch = -1;
    Slice slice;
  };
  std::map<kernel::Value, Entry> entries_;
  std::map<int, Slice> canned_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
  mutable std::uint64_t invalidations_ = 0;
  mutable std::uint64_t pins_ = 0;
  mutable bool compact_pending_ = false;
};

}  // namespace sg::websrv
