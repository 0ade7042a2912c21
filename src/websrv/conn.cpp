#include "websrv/conn.hpp"

#include <atomic>

#include "util/assert.hpp"
#include "websrv/http.hpp"

namespace sg::websrv {

namespace {

/// Passes of the per-byte checksum work; chosen so the simulated stack cost
/// dominates per-request latency like a real TCP/IP stack does (DESIGN.md).
constexpr int SG_NETWORK_PASSES = 18;

/// Sink defeating dead-code elimination. Relaxed atomic: at cores>1 several
/// workers pay network cost genuinely in parallel.
std::atomic<std::uint64_t> g_network_sink{0};

std::uint64_t fnv1a(const unsigned char* data, std::size_t len, std::uint64_t seed) {
  std::uint64_t checksum = seed;
  for (std::size_t i = 0; i < len; ++i) {
    checksum = (checksum ^ data[i]) * 16777619u;
  }
  return checksum;
}

}  // namespace

std::uint64_t bytes_checksum(const std::string& bytes) {
  return fnv1a(reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size(), 0x811c9dc5);
}

std::uint64_t slice_checksum(const c3::CbufManager& cbufs, Slice slice) {
  if (!slice.valid()) return 0;
  const unsigned char* data = cbufs.view(slice.buf, slice.offset, slice.len);
  if (data == nullptr) return 0;
  return fnv1a(data, slice.len, 0x811c9dc5);
}

void network_stack_work(const c3::CbufManager& cbufs, Slice request, Slice response) {
  const unsigned char* req =
      request.valid() ? cbufs.view(request.buf, request.offset, request.len) : nullptr;
  const unsigned char* rsp =
      response.valid() ? cbufs.view(response.buf, response.offset, response.len) : nullptr;
  std::uint64_t checksum = 0x811c9dc5;
  for (int pass = 0; pass < SG_NETWORK_PASSES; ++pass) {
    if (req != nullptr) checksum = fnv1a(req, request.len, checksum);
    if (rsp != nullptr) checksum = fnv1a(rsp, response.len, checksum);
  }
  g_network_sink.fetch_add(checksum, std::memory_order_relaxed);
}

// --- ConnectionLayer ---------------------------------------------------------

ConnectionLayer::ConnectionLayer(c3::CbufManager& cbufs, kernel::CompId owner,
                                 std::size_t ring_bytes)
    : cbufs_(cbufs), owner_(owner), ring_bytes_(ring_bytes) {}

ConnectionLayer::~ConnectionLayer() {
  std::lock_guard<std::mutex> guard(mu_);
  for (auto& [id, conn] : conns_) cbufs_.free(conn.ring);
  conns_.clear();
}

kernel::Value ConnectionLayer::open() {
  const auto ring = cbufs_.alloc(owner_, ring_bytes_);
  std::lock_guard<std::mutex> guard(mu_);
  const kernel::Value id = next_id_++;
  conns_.emplace(id, Conn{ring, 0, 0, 0});
  ++opened_;
  return id;
}

void ConnectionLayer::close(kernel::Value conn) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = conns_.find(conn);
  if (it == conns_.end()) return;
  cbufs_.free(it->second.ring);
  conns_.erase(it);
}

std::optional<Slice> ConnectionLayer::submit(kernel::Value conn, const std::string& raw) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = conns_.find(conn);
  if (it == conns_.end()) return std::nullopt;
  Conn& c = it->second;
  if (c.wr + raw.size() > ring_bytes_) {
    // Ring full. Recycle in place only when every in-flight slice has been
    // served (keep-alive); otherwise the connection is saturated and the
    // caller must open a fresh one.
    if (c.completed < c.submitted) return std::nullopt;
    c.wr = 0;
    ++recycles_;
    if (raw.size() > ring_bytes_) return std::nullopt;
  }
  const std::uint32_t offset = c.wr;
  if (!cbufs_.write(owner_, c.ring, offset, raw.data(), raw.size())) return std::nullopt;
  c.wr += static_cast<std::uint32_t>(raw.size());
  ++c.submitted;
  ++submits_;
  return Slice{c.ring, offset, static_cast<std::uint32_t>(raw.size())};
}

void ConnectionLayer::complete(kernel::Value conn) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = conns_.find(conn);
  if (it != conns_.end()) ++it->second.completed;
}

std::uint64_t ConnectionLayer::connections_opened() const {
  std::lock_guard<std::mutex> guard(mu_);
  return opened_;
}

std::uint64_t ConnectionLayer::submits() const {
  std::lock_guard<std::mutex> guard(mu_);
  return submits_;
}

std::uint64_t ConnectionLayer::ring_recycles() const {
  std::lock_guard<std::mutex> guard(mu_);
  return recycles_;
}

// --- ResponseCache -----------------------------------------------------------

ResponseCache::ResponseCache(c3::CbufManager& cbufs, kernel::CompId owner,
                             std::size_t arena_bytes)
    : cbufs_(cbufs), owner_(owner), arena_bytes_(static_cast<std::uint32_t>(arena_bytes)) {
  arena_ = cbufs_.alloc(owner_, arena_bytes);
  std::lock_guard<std::mutex> guard(mu_);
  for (const int status : {400, 404, 405, 500}) {
    canned_[status] =
        append_locked(build_response(status, status_reason(status), status_reason(status)));
  }
  canned_end_ = wr_;
}

ResponseCache::~ResponseCache() { cbufs_.free(arena_); }

std::optional<Slice> ResponseCache::lookup(kernel::Value pathid, std::int64_t epoch) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = entries_.find(pathid);
  if (it == entries_.end()) {
    ++misses_;
    return std::nullopt;
  }
  if (it->second.epoch != epoch) {
    // The services behind this response were micro-rebooted since it was
    // rendered: the slice is stale by definition and must be re-rendered
    // through the recovered services.
    ++invalidations_;
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  ++pins_;
  return it->second.slice;
}

Slice ResponseCache::store(kernel::Value pathid, std::int64_t epoch, const std::string& bytes) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = entries_.find(pathid);
  if (it != entries_.end() && it->second.epoch == epoch) {  // Raced with another worker.
    ++pins_;
    return it->second.slice;
  }
  // Compact: once no live entry matches the current epoch, every stored
  // slice is stale and the arena can be rewound to just past the canned
  // responses — the cache survives arbitrarily many recovery epochs in a
  // fixed arena. A stale slice can still be mid-serve, though: a worker that
  // looked its response up under the pre-reboot epoch and was then preempted
  // by the micro-reboot is still reading those bytes during its network
  // phase. Rewinding under it would hand later stores the same arena range
  // and clobber the response mid-flight (a zero-copy use-after-free), so
  // while any slice is pinned the rewind is deferred to the last unpin() and
  // stores keep appending — worst case the arena fills and store() returns
  // an invalid slice, degrading to uncached (still correct) serving.
  bool any_current = false;
  for (const auto& [path, entry] : entries_) {
    if (entry.epoch == epoch) {
      any_current = true;
      break;
    }
  }
  if (!any_current && !entries_.empty()) {
    entries_.clear();
    if (pins_ == 0) {
      wr_ = canned_end_;
    } else {
      compact_pending_ = true;
    }
  }
  const Slice slice = append_locked(bytes);
  if (slice.valid()) {
    entries_[pathid] = Entry{epoch, slice};
    ++pins_;
  }
  return slice;
}

void ResponseCache::unpin() {
  std::lock_guard<std::mutex> guard(mu_);
  SG_ASSERT_MSG(pins_ > 0, "ResponseCache::unpin without a pinned slice");
  --pins_;
  if (pins_ == 0 && compact_pending_) {
    // Entries stored since the deferred compaction sit above the rewind
    // point; dropping them is safe (nothing is pinned) and they simply
    // re-render on the next miss.
    entries_.clear();
    wr_ = canned_end_;
    compact_pending_ = false;
  }
}

Slice ResponseCache::canned(int status) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = canned_.find(status);
  return it == canned_.end() ? Slice{} : it->second;
}

Slice ResponseCache::append_locked(const std::string& bytes) {
  if (wr_ + bytes.size() > arena_bytes_) return Slice{};
  if (!cbufs_.write(owner_, arena_, wr_, bytes.data(), bytes.size())) return Slice{};
  const Slice slice{arena_, wr_, static_cast<std::uint32_t>(bytes.size())};
  wr_ += static_cast<std::uint32_t>(bytes.size());
  return slice;
}

std::uint64_t ResponseCache::hits() const {
  std::lock_guard<std::mutex> guard(mu_);
  return hits_;
}

std::uint64_t ResponseCache::misses() const {
  std::lock_guard<std::mutex> guard(mu_);
  return misses_;
}

std::uint64_t ResponseCache::invalidations() const {
  std::lock_guard<std::mutex> guard(mu_);
  return invalidations_;
}

std::uint64_t ResponseCache::pins() const {
  std::lock_guard<std::mutex> guard(mu_);
  return pins_;
}

}  // namespace sg::websrv
