#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "components/system.hpp"
#include "websrv/conn.hpp"

namespace sg::websrv {

/// The request pipeline the serving harness (websrv/loadgen.hpp) drives under
/// both load models: HTTP parse in the httpd component, per-worker descriptor
/// caches against the six system services, slice-served responses out of a
/// shared ResponseCache, and the connection-layer network cost — identical
/// per byte for the componentized and monolithic variants.
///
/// Worker contexts each own a private application component, so their C3 /
/// SuperGlue client stubs are per-thread (no shared-stub mutation across
/// cores); all cross-worker state (response cache, connection rings, the
/// request queue in the harness) is either a trusted short-hold-mutex
/// structure or a plain atomic. That is what makes the suite clean under
/// ThreadSanitizer at SG_CORES=4 (enforced by CI).
class RequestEngine {
 public:
  RequestEngine(components::System& sys, bool componentized);
  ~RequestEngine();

  RequestEngine(const RequestEngine&) = delete;
  RequestEngine& operator=(const RequestEngine&) = delete;

  /// Per-worker serving context. Construct on the main thread (resolves
  /// invokers); call init() once on the worker's simulated thread (allocates
  /// its cache lock + idle timer), serve() per request, and shutdown() before
  /// the thread exits (closes the cached file descriptors — leaking them
  /// across runs was part of the stale-handle bug).
  class Worker {
   public:
    Worker(RequestEngine& engine, int index);
    ~Worker();

    void init();
    /// Serves one request slice end to end; returns true iff the response
    /// was the correct 200 for the requested document.
    bool serve(Slice request);
    void shutdown();

    /// Event wait/trigger through this worker's own component + stub (evt
    /// descriptors are global, so the generator's events work from here).
    kernel::Value wait(kernel::Value evtid);
    void notify(kernel::Value evtid);
    kernel::CompId comp_id() const;

   private:
    friend class RequestEngine;
    struct Impl;
    std::unique_ptr<Impl> impl_;
  };

  /// Documents served, keyed by pathid (hash of the textual path).
  const std::map<kernel::Value, std::string>& documents() const { return body_of_path_; }

  /// The serving epoch: moves whenever the RamFS or the memory manager is
  /// micro-rebooted. Epoch-keyed caches (response slices, worker fd/mapid
  /// handles) stop matching across a recovery, which is the invalidation
  /// that closes the stale-handle bug.
  std::int64_t serving_epoch() const;

  ResponseCache& cache() { return *cache_; }
  const ConnectionLayer& connections() const { return *conns_; }
  ConnectionLayer& connections() { return *conns_; }
  components::System& system() { return sys_; }
  bool componentized() const { return componentized_; }
  /// The network-interface component: owner of the connection rings and the
  /// response arena; the load generators invoke evt/ramfs through it.
  components::AppComponent& netif() { return *netif_; }
  kernel::CompId netif_id() const;
  /// The protocol component (componentized engines only) — exposed so tests
  /// can assert http_parse's distinct 400-vs-405 outcomes directly.
  kernel::CompId httpd_id() const;

  std::uint64_t handle_refreshes() const { return handle_refreshes_.load(); }

 private:
  friend class Worker;

  components::System& sys_;
  bool componentized_;
  components::AppComponent* netif_ = nullptr;
  std::unique_ptr<ConnectionLayer> conns_;
  std::unique_ptr<ResponseCache> cache_;
  class HttpdComponent;
  class MonolithComponent;
  std::unique_ptr<HttpdComponent> httpd_;
  std::unique_ptr<MonolithComponent> monolith_;
  std::map<kernel::Value, std::string> body_of_path_;
  /// Expected full-response checksum per pathid (the serve-correctness
  /// oracle, compared zero-copy against the served slice).
  std::map<kernel::Value, std::uint64_t> expected_sum_;
  std::atomic<std::uint64_t> handle_refreshes_{0};
};

/// The document set served by the benchmark (path -> body).
std::vector<std::pair<std::string, std::string>> bench_documents();

}  // namespace sg::websrv
