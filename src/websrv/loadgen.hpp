#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "components/system.hpp"
#include "util/histogram.hpp"

namespace sg::websrv {

// The serving harness: one load generator, one worker pool, one fault
// injector and one counter harvest drive the RequestEngine (websrv/server.hpp)
// on an already-constructed System, whose FtMode decides base/C3/SuperGlue.
// Two load models set the generator's pace (docs/WEBSRV.md):
//   - closed loop, run_web_server: `ab` (§V-E) keeps at most `concurrency`
//     requests outstanding, so a slow server slows the generator down;
//   - open loop, run_open_loop: arrivals come from a seeded Poisson process
//     on the virtual clock and are issued at their nominal times regardless
//     of completions, so queueing delay (and recovery stalls) show up in the
//     latency tail instead of hiding in a depressed request rate
//     (coordinated omission).

/// What both load models share: the server, its workers and the live fault
/// injector.
struct ServingConfig {
  int workers = 3;
  /// false => monolithic fast path (the Apache stand-in, see DESIGN.md).
  bool componentized = true;
  /// Crash one system component every `fault_period` virtual µs (0 = never),
  /// rotating through the six services: live SWIFI under load, the red
  /// crosses of Fig 7.
  kernel::VirtualTime fault_period = 0;
  /// Restrict crash injection to these services (names as in
  /// System::service_names()); empty = rotate through all six. The
  /// stale-handle regression tests pin this to ramfs/mman so base mode (no
  /// recovery stubs) is exercised against exactly the services whose
  /// descriptors the workers cache.
  std::vector<std::string> fault_targets;
};

/// The closed loop (§V-E): `ab` issues `total_requests` with at most
/// `concurrency` outstanding; the server is either the componentized
/// COMPOSITE web server (using all six system services) or the monolithic
/// baseline standing in for Apache-on-Linux.
struct WebServerConfig : ServingConfig {
  int total_requests = 50000;
  int concurrency = 10;
};

struct WebServerResult {
  int completed = 0;
  int errors = 0;
  double elapsed_sec = 0.0;
  double requests_per_sec = 0.0;
  int crashes_injected = 0;
  /// Completed requests per virtual-time window (for the Fig 7 timeline),
  /// plus the windows in which a crash was injected.
  kernel::VirtualTime window_us = 20000;
  std::vector<int> completed_per_window;
  std::vector<int> crash_windows;
  /// Connection-layer + response-cache accounting (zero-copy path proof).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_invalidations = 0;
  std::uint64_t handle_refreshes = 0;
  std::uint64_t connections_opened = 0;
};

/// Runs the closed loop to completion and returns the measured throughput
/// (wall clock, from the first request to the drain).
WebServerResult run_web_server(components::System& system, const WebServerConfig& config);

/// The open loop, for the Fig 7-at-scale experiment.
struct OpenLoopConfig : ServingConfig {
  /// Offered load in requests per virtual second.
  double rate = 20000.0;
  /// Virtual length of the arrival schedule.
  kernel::VirtualTime duration_us = 1'000'000;
  std::uint64_t seed = 42;
  /// Keep-alive connection pool the generator pipelines requests onto.
  int connections = 16;
  /// Virtual-time reporting window for availability/goodput.
  kernel::VirtualTime window_us = 50'000;
};

struct OpenLoopResult {
  /// Per-window accounting: arrivals by nominal arrival time, completions by
  /// completion time, crashes by injection time.
  struct WindowStat {
    int issued = 0;
    int ok = 0;
    int err = 0;
    int crashes = 0;
  };

  std::uint64_t issued = 0;
  std::uint64_t completed = 0;  ///< Correct 200 responses.
  std::uint64_t errors = 0;
  int crashes_injected = 0;
  /// Per-request virtual-time latency, measured from the *nominal* arrival
  /// time (so generator-side queueing counts, per open-loop methodology).
  LogHistogram latency;
  kernel::VirtualTime duration_us = 0;  ///< Virtual time at which the last request completed.
  kernel::VirtualTime window_us = 0;
  double offered_rate = 0.0;
  double throughput_rps = 0.0;        ///< Correct completions per virtual second.
  double availability = 0.0;          ///< completed / issued.
  double goodput_clean_rps = 0.0;     ///< Goodput over windows without a crash.
  double goodput_fault_rps = 0.0;     ///< Goodput over windows with >= 1 crash.
  std::vector<WindowStat> windows;
  std::uint64_t connections_opened = 0;
  std::uint64_t submits = 0;
  std::uint64_t ring_recycles = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_invalidations = 0;
  std::uint64_t handle_refreshes = 0;

  /// Canonical JSON rendering of the run. Contains only virtual-time and
  /// counter data (no wall-clock anything), formatted with fixed precision:
  /// two runs with the same config produce byte-identical strings — the
  /// determinism property BENCH_fig7.json and the regression tests pin.
  std::string to_json(const std::string& variant) const;
};

/// Runs the open loop until every arrival of the schedule has completed.
OpenLoopResult run_open_loop(components::System& system, const OpenLoopConfig& config);

}  // namespace sg::websrv
