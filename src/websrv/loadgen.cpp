#include "websrv/loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "websrv/http.hpp"
#include "websrv/server.hpp"

namespace sg::websrv {

using components::System;
using kernel::Value;
using kernel::VirtualTime;

namespace {

/// What sets the two load models apart (docs/WEBSRV.md); serve() below is
/// the one harness both run on.
struct LoadModel {
  bool open = false;  ///< Poisson arrivals (open loop) or `ab` (closed loop).
  /// The open-loop generator outranks the workers (a lower number), so
  /// arrivals preempt serving and the schedule holds when the server falls
  /// behind — the defining property of an open loop.
  int priority = 20;
  int connections = 1;        ///< Connection pool size.
  VirtualTime window_us = 0;  ///< Accounting window.
  // Closed loop: `requests` requests with at most `concurrency` outstanding.
  std::uint64_t requests = 0;
  int concurrency = 0;
  // Open loop: arrivals at `rate` per virtual second up to `duration_us`.
  double rate = 0.0;
  VirtualTime duration_us = 0;
  std::uint64_t seed = 0;
};

/// One queued request: the connection it arrived on, its slice in that
/// connection's ring, and the virtual time it was issued at (in the open
/// loop, its nominal arrival time).
struct Item {
  Value conn = 0;
  Slice req;
  VirtualTime arrival = 0;
};

/// State shared between the generator, the workers and the crasher. Every
/// cross-thread datum is an atomic or sits behind the short-hold host mutex,
/// so workers may run in parallel at SG_CORES>1.
struct State {
  std::mutex mu;  ///< Guards queue, latency and windows.
  std::deque<Item> queue;
  /// Requests issued and not yet drained from the completion event (or, for
  /// the monolith, not yet served): the closed loop's gate.
  std::atomic<int> outstanding{0};
  std::atomic<std::uint64_t> issued{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<int> crashes{0};
  std::atomic<bool> ready{false};
  std::atomic<bool> done{false};
  // Service descriptors: written during setup (before `ready`), read-only after.
  Value done_evt = 0;
  std::vector<Value> worker_evts;
  LogHistogram latency;
  std::vector<OpenLoopResult::WindowStat> windows;
  VirtualTime window_us = 1;
  // Written by the generator; read after kern.run() joins.
  VirtualTime end_vt = 0;  ///< Virtual time when the last request completed.
  std::chrono::steady_clock::time_point start;
  std::chrono::steady_clock::time_point stop;

  /// The window holding virtual time `t`. Call with `mu` held.
  OpenLoopResult::WindowStat& window_at(VirtualTime t) {
    const auto index = static_cast<std::size_t>(t / window_us);
    if (windows.size() <= index) windows.resize(index + 1);
    return windows[index];
  }

  /// The oldest queued request, or an Item with an invalid slice.
  Item pop() {
    std::lock_guard<std::mutex> guard(mu);
    if (queue.empty()) return {};
    const Item item = queue.front();
    queue.pop_front();
    return item;
  }

  bool queue_empty() {
    std::lock_guard<std::mutex> guard(mu);
    return queue.empty();
  }
};

/// Every counter of one run (the closed loop reports a subset) and the host
/// time from the first request to the drain.
struct Tally {
  OpenLoopResult counts;
  double wall_sec = 0.0;
};

/// Runs one load model against a fresh RequestEngine: the generator (which
/// also sets up the services), `config.workers` workers and, with a fault
/// period, the crasher; drives the kernel to completion; harvests the
/// counters.
Tally serve(System& sys, const ServingConfig& config, const LoadModel& model) {
  auto& kern = sys.kernel();
  RequestEngine engine(sys, config.componentized);
  State state;
  state.window_us = std::max<VirtualTime>(1, model.window_us);
  std::vector<std::unique_ptr<RequestEngine::Worker>> workers;
  for (int index = 0; index < config.workers; ++index) {
    workers.push_back(std::make_unique<RequestEngine::Worker>(engine, index));
  }
  // A monolith thread has no completion event to wait on. The closed loop
  // yields; the open loop polls on a timed block, so the virtual clock can
  // idle-jump to the next arrival (a ready yield-spinner would pin it).
  const auto idle = [&kern, &model] {
    if (model.open) {
      kern.block_current_until(kern.now() + 10);
    } else {
      kern.yield();
    }
  };

  // --- generator: sets up the services, then issues the load ------------------
  kern.thd_create("loadgen", model.priority, [&] {
    components::EvtClient evt(sys.invoker(engine.netif(), "evt"));
    components::FsClient fs(sys.invoker(engine.netif(), "ramfs"), sys.cbufs(),
                            engine.netif_id());

    if (config.componentized) {
      state.done_evt = evt.split(engine.netif_id());
      for (int index = 0; index < config.workers; ++index) {
        state.worker_evts.push_back(evt.split(engine.netif_id()));
      }
      // Populate the document tree in the RamFS.
      for (const auto& [pathid, body] : engine.documents()) {
        const Value fd = fs.open(pathid);
        fs.write(fd, body);
        fs.close(fd);
      }
    }
    state.ready.store(true);

    // Workers signal each completion on done_evt; a wait returns how many
    // signals it drained.
    const auto await_completions = [&] {
      if (config.componentized) {
        const Value drained = evt.wait(engine.netif_id(), state.done_evt);
        state.outstanding.fetch_sub(static_cast<int>(std::max<Value>(drained, 0)));
      } else {
        idle();
      }
    };

    const auto paths = bench_documents();
    auto& conns = engine.connections();
    std::vector<Value> pool(static_cast<std::size_t>(std::max(1, model.connections)));
    for (auto& conn : pool) conn = conns.open();

    state.start = std::chrono::steady_clock::now();
    Rng rng(model.seed);
    const double rate = std::max(1e-9, model.rate);
    VirtualTime arrival = 0;
    std::size_t round_robin = 0;
    for (std::uint64_t sequence = 0;; ++sequence) {
      // The load model's gate.
      if (model.open) {
        // Exponential inter-arrival gap (Poisson process), floored at one
        // virtual µs so the clock always advances between arrivals.
        const double gap_us = -std::log(1.0 - rng.next_double()) * 1e6 / rate;
        arrival += std::max<VirtualTime>(1, static_cast<VirtualTime>(gap_us));
        if (arrival > model.duration_us) break;
        if (arrival > kern.now()) kern.block_current_until(arrival);
      } else {
        if (sequence >= model.requests) break;
        while (state.outstanding.load() >= model.concurrency) await_completions();
        arrival = kern.now();
      }

      const std::string& path = paths[sequence % paths.size()].first;
      const std::string raw = model.open ? build_request_keepalive(path) : build_request(path);
      const std::size_t slot = sequence % pool.size();
      auto slice = conns.submit(pool[slot], raw);
      if (!slice.has_value()) {
        // Ring full with requests still in flight: retire the connection
        // (drained rings recycle in place; this one is closed once drained,
        // at teardown) and open a fresh one — connection churn under load.
        pool[slot] = conns.open();
        slice = conns.submit(pool[slot], raw);
      }
      SG_ASSERT_MSG(slice.has_value(), "fresh connection rejected a request");
      {
        std::lock_guard<std::mutex> guard(state.mu);
        state.queue.push_back(Item{pool[slot], *slice, arrival});
        ++state.window_at(arrival).issued;
      }
      state.outstanding.fetch_add(1);
      state.issued.fetch_add(1);
      if (config.componentized) {
        evt.trigger(engine.netif_id(),
                    state.worker_evts[round_robin++ % state.worker_evts.size()]);
      }
    }
    // Drain: every request completes exactly once (ok or error).
    while (model.open ? state.completed.load() + state.errors.load() < state.issued.load()
                      : state.outstanding.load() > 0) {
      await_completions();
    }
    state.end_vt = kern.now();
    state.stop = std::chrono::steady_clock::now();
    state.done.store(true);
    if (config.componentized) {
      for (const Value worker_evt : state.worker_evts) evt.trigger(engine.netif_id(), worker_evt);
    }
  });

  // --- workers ------------------------------------------------------------------
  for (int index = 0; index < config.workers; ++index) {
    kern.thd_create("worker-" + std::to_string(index), 20, [&, index] {
      RequestEngine::Worker& w = *workers[static_cast<std::size_t>(index)];
      while (!state.ready.load()) kern.yield();
      w.init();
      for (;;) {
        if (config.componentized) w.wait(state.worker_evts[static_cast<std::size_t>(index)]);
        for (Item item = state.pop(); item.req.valid(); item = state.pop()) {
          const bool ok = w.serve(item.req);
          engine.connections().complete(item.conn);
          const VirtualTime now = kern.now();
          (ok ? state.completed : state.errors).fetch_add(1);
          {
            std::lock_guard<std::mutex> guard(state.mu);
            // Latency from the arrival time: in the open loop, generator-side
            // queueing counts (no coordinated omission).
            state.latency.record(now - item.arrival);
            auto& window = state.window_at(now);
            ++(ok ? window.ok : window.err);
          }
          if (config.componentized) {
            w.notify(state.done_evt);
          } else {
            // No completion event: the closed-loop generator polls this.
            state.outstanding.fetch_sub(1);
          }
        }
        if (state.done.load()) break;
        if (!config.componentized) {
          // A closed-loop monolith worker is done once every request is
          // issued and taken.
          if (!model.open && state.issued.load() >= model.requests && state.queue_empty()) break;
          idle();
        }
      }
      w.shutdown();
    });
  }

  // --- fault injector -------------------------------------------------------------
  if (config.fault_period > 0) {
    kern.thd_create("crasher", 5, [&] {
      const std::vector<std::string>& services =
          config.fault_targets.empty() ? sys.service_names() : config.fault_targets;
      for (std::size_t next = 0; !state.done.load(); ++next) {
        kern.block_current_until(kern.now() + config.fault_period);
        if (state.done.load()) break;
        kern.inject_crash(sys.service_component(services[next % services.size()]).id());
        state.crashes.fetch_add(1);
        std::lock_guard<std::mutex> guard(state.mu);
        ++state.window_at(kern.now()).crashes;
      }
    });
  }

  kern.run();

  Tally tally;
  tally.wall_sec = std::chrono::duration<double>(state.stop - state.start).count();
  OpenLoopResult& result = tally.counts;
  result.issued = state.issued.load();
  result.completed = state.completed.load();
  result.errors = state.errors.load();
  result.crashes_injected = state.crashes.load();
  result.latency = state.latency;
  result.windows = state.windows;
  result.duration_us = state.end_vt;
  result.window_us = model.window_us;
  result.offered_rate = model.rate;
  const double elapsed_sec = state.end_vt > 0 ? state.end_vt / 1e6 : 0.0;
  result.throughput_rps = elapsed_sec > 0 ? result.completed / elapsed_sec : 0.0;
  result.availability =
      result.issued > 0 ? static_cast<double>(result.completed) / result.issued : 0.0;
  std::uint64_t clean_ok = 0, fault_ok = 0;
  std::size_t clean_windows = 0, fault_windows = 0;
  for (const auto& window : result.windows) {
    if (window.crashes > 0) {
      fault_ok += static_cast<std::uint64_t>(window.ok);
      ++fault_windows;
    } else {
      clean_ok += static_cast<std::uint64_t>(window.ok);
      ++clean_windows;
    }
  }
  const double window_sec = model.window_us / 1e6;
  result.goodput_clean_rps =
      clean_windows > 0 ? clean_ok / (clean_windows * window_sec) : 0.0;
  result.goodput_fault_rps =
      fault_windows > 0 ? fault_ok / (fault_windows * window_sec) : 0.0;
  result.connections_opened = engine.connections().connections_opened();
  result.submits = engine.connections().submits();
  result.ring_recycles = engine.connections().ring_recycles();
  result.cache_hits = engine.cache().hits();
  result.cache_misses = engine.cache().misses();
  result.cache_invalidations = engine.cache().invalidations();
  result.handle_refreshes = engine.handle_refreshes();
  return tally;
}

std::string fmt_num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  return buf;
}

}  // namespace

WebServerResult run_web_server(System& sys, const WebServerConfig& config) {
  WebServerResult result;
  const Tally tally =
      serve(sys, config,
            {.priority = 20,
             .connections = config.concurrency,
             .window_us = result.window_us,
             .requests = static_cast<std::uint64_t>(std::max(0, config.total_requests)),
             .concurrency = config.concurrency});
  const OpenLoopResult& counts = tally.counts;
  result.completed = static_cast<int>(counts.completed);
  result.errors = static_cast<int>(counts.errors);
  result.crashes_injected = counts.crashes_injected;
  result.elapsed_sec = tally.wall_sec;
  result.requests_per_sec = result.elapsed_sec > 0 ? result.completed / result.elapsed_sec : 0.0;
  for (std::size_t index = 0; index < counts.windows.size(); ++index) {
    const OpenLoopResult::WindowStat& window = counts.windows[index];
    result.completed_per_window.push_back(window.ok + window.err);
    result.crash_windows.insert(result.crash_windows.end(),
                                static_cast<std::size_t>(window.crashes),
                                static_cast<int>(index));
  }
  // The timeline ends at the last completion; later windows hold only crashes.
  while (!result.completed_per_window.empty() && result.completed_per_window.back() == 0) {
    result.completed_per_window.pop_back();
  }
  result.cache_hits = counts.cache_hits;
  result.cache_misses = counts.cache_misses;
  result.cache_invalidations = counts.cache_invalidations;
  result.handle_refreshes = counts.handle_refreshes;
  result.connections_opened = counts.connections_opened;
  return result;
}

OpenLoopResult run_open_loop(System& sys, const OpenLoopConfig& config) {
  return serve(sys, config,
               {.open = true,
                .priority = 10,
                .connections = config.connections,
                .window_us = config.window_us,
                .rate = config.rate,
                .duration_us = config.duration_us,
                .seed = config.seed})
      .counts;
}

std::string OpenLoopResult::to_json(const std::string& variant) const {
  std::string json = "{\n";
  json += "  \"bench\": \"fig7_open_loop\",\n";
  json += "  \"variant\": \"" + variant + "\",\n";
  json += "  \"config\": {\"rate_rps\": " + fmt_num(offered_rate) +
          ", \"window_us\": " + std::to_string(window_us) + "},\n";
  json += "  \"issued\": " + std::to_string(issued) + ",\n";
  json += "  \"completed\": " + std::to_string(completed) + ",\n";
  json += "  \"errors\": " + std::to_string(errors) + ",\n";
  json += "  \"crashes\": " + std::to_string(crashes_injected) + ",\n";
  json += "  \"duration_us\": " + std::to_string(duration_us) + ",\n";
  json += "  \"availability\": " + fmt_num(availability) + ",\n";
  json += "  \"throughput_rps\": " + fmt_num(throughput_rps) + ",\n";
  json += "  \"latency_us\": {\"mean\": " + fmt_num(latency.mean()) +
          ", \"p50\": " + std::to_string(latency.percentile(50)) +
          ", \"p90\": " + std::to_string(latency.percentile(90)) +
          ", \"p99\": " + std::to_string(latency.percentile(99)) +
          ", \"p999\": " + std::to_string(latency.percentile(99.9)) +
          ", \"max\": " + std::to_string(latency.max()) + "},\n";
  json += "  \"goodput_rps\": {\"clean\": " + fmt_num(goodput_clean_rps) +
          ", \"fault\": " + fmt_num(goodput_fault_rps) + "},\n";
  json += "  \"connections\": {\"opened\": " + std::to_string(connections_opened) +
          ", \"submits\": " + std::to_string(submits) +
          ", \"ring_recycles\": " + std::to_string(ring_recycles) + "},\n";
  json += "  \"cache\": {\"hits\": " + std::to_string(cache_hits) +
          ", \"misses\": " + std::to_string(cache_misses) +
          ", \"invalidations\": " + std::to_string(cache_invalidations) +
          ", \"handle_refreshes\": " + std::to_string(handle_refreshes) + "},\n";
  json += "  \"windows\": [";
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (i != 0) json += ", ";
    const WindowStat& w = windows[i];
    json += "{\"t_us\": " + std::to_string(static_cast<std::uint64_t>(i) * window_us) +
            ", \"issued\": " + std::to_string(w.issued) + ", \"ok\": " + std::to_string(w.ok) +
            ", \"err\": " + std::to_string(w.err) +
            ", \"crashes\": " + std::to_string(w.crashes) + "}";
  }
  json += "]\n}\n";
  return json;
}

}  // namespace sg::websrv
