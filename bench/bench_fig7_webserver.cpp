// Fig 7: web-server throughput, closed- and open-loop.
//
// Closed loop (default): measures requests/second of (a) the monolithic
// baseline standing in for Apache-on-Linux, (b) the base componentized
// COMPOSITE web server, (c) COMPOSITE+C3, (d) COMPOSITE+SuperGlue, and
// (e)/(f) the FT variants with a crash injected into a rotating system
// component periodically (the red crosses of Fig 7). Each variant runs
// SG_REPS times; we report mean (stdev) like the paper's 20 repetitions.
//
// Open loop (--open-loop): the Fig 7-at-scale experiment. A seeded Poisson
// arrival process on the virtual clock offers --rate requests/s for
// --duration virtual µs against each variant while live SWIFI rotates
// crashes through the system services; per-request latency is recorded from
// the nominal arrival time into a log-bucketed histogram (p50/p99/p999) and
// per-window availability/goodput is reported. Every open-loop run executes
// with event tracing on and its whole event stream is checked against the
// recovery invariants; a violation fails the bench, and so does a run whose
// trace overflowed the log, since its check could only be lenient. All
// open-loop outputs are virtual-time only, so BENCH_fig7.json is
// byte-identical across runs for a fixed seed. A malformed knob is a usage
// error (exit status 2; see usage()).

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "c3stubs/c3_stubs.hpp"
#include "components/trace_check.hpp"
#include "util/stats.hpp"
#include "websrv/loadgen.hpp"

namespace sg {
namespace {

using components::FtMode;

struct Variant {
  const char* label;
  FtMode mode;
  bool componentized;
  bool faults;
};

constexpr Variant kVariants[] = {
    {"Apache-like monolith (Linux stand-in)", FtMode::kNone, false, false},
    {"COMPOSITE (base, no FT)", FtMode::kNone, true, false},
    {"COMPOSITE + C3", FtMode::kC3, true, false},
    {"COMPOSITE + SuperGlue", FtMode::kSuperGlue, true, false},
    {"COMPOSITE + C3, faults injected", FtMode::kC3, true, true},
    {"COMPOSITE + SuperGlue, faults injected", FtMode::kSuperGlue, true, true},
};

/// A fresh System for `variant`. The open loop traces every run, to check
/// its recovery invariants.
std::unique_ptr<components::System> make_system(const Variant& variant, bool traced) {
  components::SystemConfig config;
  config.mode = variant.mode;
  config.trace = config.trace || traced;
  auto sys = std::make_unique<components::System>(config);
  if (variant.mode == FtMode::kC3) c3stubs::install_c3_stubs(*sys);
  return sys;
}

websrv::WebServerResult run_once(const Variant& variant, int requests,
                                 kernel::VirtualTime fault_period) {
  websrv::WebServerConfig web;
  web.total_requests = requests;
  web.componentized = variant.componentized;
  web.fault_period = variant.faults ? fault_period : 0;
  return websrv::run_web_server(*make_system(variant, /*traced=*/false), web);
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_fig7_webserver [--json] "
               "[--open-loop [--rate=R] [--duration=US] [--seed=S]]\n"
               "SG_REPS, SG_REQUESTS, SG_FAULT_PERIOD_US and SG_DURATION_US (--duration) "
               "must be whole counts >= 1, SG_SEED (--seed) >= 0, SG_RATE (--rate) a "
               "positive number\n");
  return 2;
}

/// bench::env_count for an int knob of at least 1; unset leaves `*out`.
bool env_int_count(const char* name, int* out) {
  long long value = *out;
  if (!bench::env_count(name, 1, &value) || value > INT_MAX) return false;
  *out = static_cast<int>(value);
  return true;
}

/// Parses a finite request rate above zero into `*out`.
bool parse_rate(const char* text, double* out) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno != 0 || !(value > 0) || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

int open_loop_main(int argc, char** argv, bool emit_json, int requests,
                   kernel::VirtualTime fault_period) {
  double rate = 20000;
  long long duration_us = 1000000;
  long long seed = 42;
  const char* env_rate = std::getenv("SG_RATE");
  if ((env_rate != nullptr && !parse_rate(env_rate, &rate)) ||
      !bench::env_count("SG_DURATION_US", 1, &duration_us) ||
      !bench::env_count("SG_SEED", 0, &seed)) {
    return usage();
  }
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if ((std::strncmp(arg, "--rate=", 7) == 0 && !parse_rate(arg + 7, &rate)) ||
        (std::strncmp(arg, "--duration=", 11) == 0 &&
         !bench::parse_count(arg + 11, 1, &duration_us)) ||
        (std::strncmp(arg, "--seed=", 7) == 0 && !bench::parse_count(arg + 7, 0, &seed))) {
      return usage();
    }
  }
  const auto duration = static_cast<kernel::VirtualTime>(duration_us);

  bench::banner("Open-loop web frontend: tail latency + availability under live SWIFI",
                "Fig 7 at scale");
  std::printf("rate: %.0f req/s, duration: %llu virtual us, seed: %llu, fault period: %llu us\n\n",
              rate, static_cast<unsigned long long>(duration),
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(fault_period));

  TextTable table;
  table.add_row({"Variant", "issued", "avail", "p50us", "p99us", "p999us", "maxus",
                 "goodput ok/s (clean|fault)", "crashes", "trace events", "dropped"});
  std::string runs_json;
  double open_loop_fault_avail = -1.0;
  bool invariants_ok = true;
  bool whole_streams = true;

  for (const Variant& variant : kVariants) {
    const auto sys = make_system(variant, /*traced=*/true);
    websrv::OpenLoopConfig open;
    open.rate = rate;
    open.duration_us = duration;
    open.seed = static_cast<std::uint64_t>(seed);
    open.componentized = variant.componentized;
    open.fault_period = variant.faults ? fault_period : 0;
    const auto result = websrv::run_open_loop(*sys, open);

    const auto violations = components::check_recovery_invariants(*sys);
    for (const auto& violation : violations) {
      std::fprintf(stderr, "INVARIANT VIOLATION [%s]: %s\n", variant.label, violation.c_str());
    }
    if (!violations.empty()) invariants_ok = false;
    const trace::Tracer& tracer = sys->kernel().tracer();
    if (tracer.dropped() != 0) whole_streams = false;

    char avail[32], goodput[64];
    std::snprintf(avail, sizeof(avail), "%.4f", result.availability);
    std::snprintf(goodput, sizeof(goodput), "%.0f | %.0f", result.goodput_clean_rps,
                  result.goodput_fault_rps);
    table.add_row({variant.label, std::to_string(result.issued), avail,
                   std::to_string(result.latency.percentile(50)),
                   std::to_string(result.latency.percentile(99)),
                   std::to_string(result.latency.percentile(99.9)),
                   std::to_string(result.latency.max()), goodput,
                   std::to_string(result.crashes_injected),
                   std::to_string(tracer.recorded()), std::to_string(tracer.dropped())});

    if (variant.mode == FtMode::kSuperGlue && variant.faults) {
      open_loop_fault_avail = result.availability;
    }
    if (!runs_json.empty()) runs_json += ",\n";
    std::string body = result.to_json(variant.label);
    while (!body.empty() && body.back() == '\n') body.pop_back();
    runs_json += body;
  }
  std::printf("%s\n", table.render().c_str());

  // Smoke assertion: the open-loop SuperGlue-under-faults run must be at
  // least as available as the closed-loop equivalent — recovery that holds
  // up when the generator backs off but not under sustained offered load
  // would silently regress Fig 7 at scale.
  const auto closed = run_once(kVariants[5], requests, fault_period);
  const double closed_avail =
      closed.completed + closed.errors > 0
          ? static_cast<double>(closed.completed) / (closed.completed + closed.errors)
          : 0.0;
  std::printf("availability under faults: open-loop %.6f vs closed-loop baseline %.6f\n",
              open_loop_fault_avail, closed_avail);

  if (emit_json) {
    std::string json = "{\n  \"bench\": \"fig7_webserver_open_loop\",\n";
    json += "  \"rate_rps\": " + bench::json_num(rate) + ",\n";
    json += "  \"duration_us\": " + std::to_string(duration) + ",\n";
    json += "  \"seed\": " + std::to_string(seed) + ",\n";
    json += "  \"fault_period_us\": " + std::to_string(fault_period) + ",\n";
    json += "  " + bench::host_meta_json() + ",\n";
    json += "  \"runs\": [\n" + runs_json + "\n  ]\n}";
    bench::write_json_file("BENCH_fig7.json", json);
  }

  if (!invariants_ok) {
    std::fprintf(stderr, "FAIL: recovery invariant violations during open-loop runs\n");
    return 1;
  }
  if (!whole_streams) {
    std::fprintf(stderr,
                 "FAIL: an open-loop run's trace overflowed the log, so its invariant check "
                 "skipped the dropped events\n");
    return 1;
  }
  if (open_loop_fault_avail + 1e-9 < closed_avail) {
    std::fprintf(stderr,
                 "FAIL: open-loop availability under faults (%.6f) below closed-loop "
                 "baseline (%.6f)\n",
                 open_loop_fault_avail, closed_avail);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sg

int main(int argc, char** argv) {
  const bool emit_json = sg::bench::has_flag(argc, argv, "--json");
  int requests = 20000;
  // The paper crashes one system component every 10 s of a ~17k req/s run,
  // i.e. roughly every 170k requests; our runs are shorter, so we scale the
  // crash rate so each faulty run sees several recoveries.
  long long fault_period_us = 120000;
  if (!sg::env_int_count("SG_REQUESTS", &requests) ||
      !sg::bench::env_count("SG_FAULT_PERIOD_US", 1, &fault_period_us)) {
    return sg::usage();
  }
  const auto fault_period = static_cast<sg::kernel::VirtualTime>(fault_period_us);
  if (sg::bench::has_flag(argc, argv, "--open-loop")) {
    return sg::open_loop_main(argc, argv, emit_json, requests, fault_period);
  }
  int reps = 7;
  if (!sg::env_int_count("SG_REPS", &reps)) return sg::usage();
  sg::bench::banner("Web server throughput: Apache-like / COMPOSITE / +C3 / +SuperGlue",
                    "Fig 7 of the paper");
  std::printf("requests per run: %d, repetitions: %d (override with SG_REQUESTS/SG_REPS)\n\n",
              requests, reps);

  // Warm-up pass (first run pays allocator/frequency ramp-up).
  (void)sg::run_once(sg::kVariants[0], requests / 4, fault_period);

  std::vector<double> per_variant[6];
  int crashes[6] = {0};
  int errors[6] = {0};
  // Interleave variants across repetitions so wall-clock drift cancels.
  for (int rep = 0; rep < reps; ++rep) {
    for (int v = 0; v < 6; ++v) {
      const auto result = sg::run_once(sg::kVariants[v], requests, fault_period);
      per_variant[v].push_back(result.requests_per_sec);
      crashes[v] += result.crashes_injected;
      errors[v] += result.errors;
    }
  }

  // Outlier-trimmed statistics: host-scheduler hiccups contaminate single
  // reps, so the headline is the trimmed mean (the paper averages 20 runs).
  double mean[6];
  double stdev[6];
  for (int v = 0; v < 6; ++v) sg::bench::trimmed_stats(per_variant[v], &mean[v], &stdev[v]);
  const double base = mean[1];
  sg::TextTable table;
  table.add_row({"Variant", "req/s trimmed mean (stdev)", "vs base", "crashes", "failed reqs"});
  for (int v = 0; v < 6; ++v) {
    char vs[32];
    std::snprintf(vs, sizeof(vs), "%+.2f%%", 100.0 * (mean[v] - base) / base);
    char cell[64];
    std::snprintf(cell, sizeof(cell), "%.0f (%.0f)", mean[v], stdev[v]);
    table.add_row({sg::kVariants[v].label, cell, vs, std::to_string(crashes[v]),
                   std::to_string(errors[v])});
  }
  std::printf("%s\n", table.render().c_str());

  if (emit_json) {
    std::string rows;
    for (int v = 0; v < 6; ++v) {
      if (!rows.empty()) rows += ",\n";
      rows += "    {\"variant\": " + sg::bench::json_str(sg::kVariants[v].label) +
              ", \"mean_req_per_sec\": " + sg::bench::json_num(mean[v]) +
              ", \"stdev_req_per_sec\": " + sg::bench::json_num(stdev[v]) +
              ", \"vs_base_pct\": " + sg::bench::json_num(100.0 * (mean[v] - base) / base) +
              ", \"crashes\": " + std::to_string(crashes[v]) +
              ", \"failed_requests\": " + std::to_string(errors[v]) + "}";
    }
    sg::bench::write_json_file(
        "BENCH_fig7.json",
        "{\n  \"bench\": \"fig7_webserver\",\n  \"requests\": " + std::to_string(requests) +
            ",\n  \"reps\": " + std::to_string(reps) + ",\n  " + sg::bench::host_meta_json() +
            ",\n  \"variants\": [\n" + rows + "\n  ]\n}");
  }

  // Timeline of one faulty SuperGlue run: service continues through crashes.
  auto faulty = sg::run_once(sg::kVariants[5], requests, fault_period);
  std::printf("timeline of one faulty SuperGlue run (completed requests per %.0f ms of\n"
              "virtual time; 'X' marks a crash+micro-reboot in that window):\n",
              faulty.window_us / 1000.0);
  for (std::size_t w = 0; w < faulty.completed_per_window.size(); ++w) {
    const bool crashed = std::find(faulty.crash_windows.begin(), faulty.crash_windows.end(),
                                   static_cast<int>(w)) != faulty.crash_windows.end();
    std::printf("  window %2zu: %5d %s\n", w, faulty.completed_per_window[w],
                crashed ? "X  <- component crash, recovered in-line" : "");
  }
  std::printf("\nPaper's numbers: Apache 17.6k req/s; COMPOSITE 16.2k; +C3 -10.5%%;\n"
              "+SuperGlue -11.84%%; with a fault every 10s, -13.6%%, with service\n"
              "disturbed for <2s per crash and never dropping to zero.\n");
  return 0;
}
