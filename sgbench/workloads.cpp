#include "workloads.hpp"

#include <exception>
#include <memory>
#include <stdexcept>

#include "campaign/campaign.hpp"
#include "components/system.hpp"
#include "components/trace_check.hpp"
#include "explore/explorer.hpp"
#include "swifi/swifi.hpp"
#include "util/histogram.hpp"
#include "websrv/loadgen.hpp"

namespace sg::perf {

using components::FtMode;
using components::System;
using components::SystemConfig;

void Result::fail(const std::string& why) {
  correct = false;
  if (errors.size() < 8) errors.push_back(why);
}

double reference_batch_s(const Result& result) {
  if (result.norm_segments.empty()) return 0;
  double total = 0;
  for (std::size_t segment = 0; segment < result.norm_segments.front().size(); ++segment) {
    std::vector<double> times;
    for (const std::vector<double>& batch : result.norm_segments) {
      if (segment < batch.size()) times.push_back(batch[segment]);
    }
    total += median(times);
  }
  return total;
}

namespace {

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// Whether another batch of the median length still ends inside the budget.
bool another_fits(const Budget& budget, std::int64_t start_ns, const std::vector<double>& batch_s) {
  return seconds_since(start_ns) + median(batch_s) <= budget.seconds;
}

/// `seconds` at the reference host speed, from the reference routine's time
/// just before and just after the segment.
double normalised(double seconds, double ref_before_ms, double ref_after_ms) {
  return seconds * kReferenceMs / ((ref_before_ms + ref_after_ms) / 2.0);
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  return out.append(json_escape(text)).append("\"");
}

std::string num(double value) { return format_number(value); }

// --- swifi-campaign -----------------------------------------------------------

/// The six Table II services plus the storage substrate, in campaign order.
const std::vector<std::string>& swifi_targets() {
  static const std::vector<std::string> kTargets = {"sched", "mman", "ramfs", "lock",
                                                    "evt",   "tmr",  "storage"};
  return kTargets;
}

/// Campaign settings: SuperGlue on demand, 80 workload iterations,
/// transparent supervision, kernel tracer off, one core.
constexpr int kSwifiIterations = 80;

swifi::Campaign swifi_driver(std::uint64_t seed) {
  swifi::CampaignConfig config;
  config.seed = seed;
  config.mode = FtMode::kSuperGlue;
  config.policy = c3::RecoveryPolicy::kOnDemand;
  config.trace = false;
  return swifi::Campaign(config);
}

swifi::EpisodeOptions swifi_options() {
  swifi::EpisodeOptions options;
  options.profile = swifi::InjectionProfile::kRegisterFlip;
  options.workload_iterations = kSwifiIterations;
  options.check_invariants = false;
  options.supervision = supervisor::Policy{};
  options.cores = 1;
  return options;
}

std::uint64_t swifi_seed(std::uint64_t master, const std::string& target, std::uint64_t episode) {
  return swifi::episode_seed(
      master, campaign::cell_tag(target, swifi::InjectionProfile::kRegisterFlip), episode);
}

bool same_tally(const campaign::Tally& a, const campaign::Tally& b) {
  return a.injected == b.injected && a.recovered == b.recovered && a.degraded == b.degraded &&
         a.undetected == b.undetected && a.segfault == b.segfault &&
         a.propagated == b.propagated && a.hang == b.hang && a.quarantined == b.quarantined &&
         a.other == b.other && a.invariant_violations == b.invariant_violations &&
         a.virtual_time_total == b.virtual_time_total;
}

std::uint64_t bucket_sum(const campaign::Tally& t) {
  return t.recovered + t.degraded + t.undetected + t.segfault + t.propagated + t.hang +
         t.quarantined + t.other;
}

/// Outcome classes whose episode time is reported per layer.
const char* timed_outcome(swifi::Outcome outcome) {
  switch (outcome) {
    case swifi::Outcome::kRecovered: return "recovered";
    case swifi::Outcome::kUndetected: return "undetected";
    case swifi::Outcome::kSegfault: return "segfault";
    default: return nullptr;
  }
}

// --- explore-matrix -------------------------------------------------------------

struct Cell {
  std::string service;
  std::string target;
};

std::vector<Cell> explore_cells(bool full) {
  if (!full) return {Cell{"storage", "storage"}};
  std::vector<Cell> cells;
  for (const std::string& service : swifi_targets()) {
    for (const std::string& target : swifi_targets()) cells.push_back(Cell{service, target});
  }
  return cells;
}

/// d=2, one crash, DPOR on, one worker, and an execution cap no row reaches.
explore::Options explore_options(std::uint64_t seed, const Cell& cell) {
  explore::Options opts;
  opts.service = cell.service;
  opts.target = cell.target;
  opts.max_preemptions = 2;
  opts.max_crashes = 1;
  opts.max_executions = 1'000'000;
  opts.iterations = 2;
  opts.seed = seed;
  opts.stop_at_first_failure = false;
  opts.dpor = true;
  opts.workers = 1;
  return opts;
}

/// Schedules replayed through run_one in a traced run, spread over the sweep.
constexpr std::size_t kReplaySamples = 1000;

// --- web-open-loop ----------------------------------------------------------------

SystemConfig web_system(std::uint64_t seed) {
  SystemConfig config;
  config.seed = seed;
  config.mode = FtMode::kSuperGlue;
  config.policy = c3::RecoveryPolicy::kOnDemand;
  config.trace = true;
  config.cores = 1;
  return config;
}

/// Poisson arrivals at 20k req/s of virtual time, a crash every 120 ms of
/// virtual time, and the loadgen's default workers and connections.
websrv::OpenLoopConfig web_load(std::uint64_t seed, std::uint64_t duration_us) {
  websrv::OpenLoopConfig open;
  open.rate = 20000.0;
  open.duration_us = duration_us;
  open.seed = seed;
  open.componentized = true;
  open.fault_period = 120'000;
  return open;
}

}  // namespace

// --- swifi-campaign -----------------------------------------------------------

void setup_swifi(std::uint64_t seed) {
  const swifi::Campaign driver = swifi_driver(seed);
  for (const std::string& target : swifi_targets()) {
    driver.run_episode_detail(target, swifi_seed(seed, target, 0), swifi_options());
  }
}

Result run_swifi(std::uint64_t seed, const Budget& budget, SpanLog* spans, int min_per_class) {
  Result result;
  const swifi::Campaign driver = swifi_driver(seed);
  const swifi::EpisodeOptions options = swifi_options();
  const std::vector<std::string>& targets = swifi_targets();
  std::vector<campaign::Tally> tallies(targets.size());
  std::vector<campaign::Tally> first_batch;
  Digest first_digest;

  auto short_of_samples = [&] {
    if (min_per_class <= 0) return false;
    for (const std::string& target : targets) {
      if (result.timings["swifi.episode_us." + target].size() <
          static_cast<std::size_t>(min_per_class)) {
        return true;
      }
    }
    for (const char* outcome : {"recovered", "undetected", "segfault"}) {
      if (result.timings[std::string("swifi.episode_us.") + outcome].size() <
          static_cast<std::size_t>(min_per_class)) {
        return true;
      }
    }
    return false;
  };

  double ref_before = reference_ms();
  const std::int64_t start = now_ns();
  for (int batch = 0;; ++batch) {
    if (budget.max_batches > 0 && batch >= budget.max_batches) break;
    if (batch >= budget.min_batches &&
        !(min_per_class > 0 ? short_of_samples() : another_fits(budget, start, result.batch_s))) {
      break;
    }
    const int batch_span =
        spans ? spans->open("swifi.batch", -1, "batch " + std::to_string(batch)) : -1;
    const std::uint64_t ops_before = result.ops;
    const std::int64_t batch_start = now_ns();
    for (std::size_t cell = 0; cell < targets.size(); ++cell) {
      const std::string& target = targets[cell];
      for (int k = 0; k < kSwifiPerCell; ++k) {
        const auto episode = static_cast<std::uint64_t>(batch * kSwifiPerCell + k);
        ++result.attempted;
        const int span = spans ? spans->open("swifi.episode", batch_span, target) : -1;
        const std::int64_t t0 = now_ns();
        swifi::EpisodeResult episode_result;
        try {
          episode_result =
              driver.run_episode_detail(target, swifi_seed(seed, target, episode), options);
        } catch (const std::exception& error) {
          if (spans) spans->close(span);
          ++result.failed;
          result.fail(target + " episode " + std::to_string(episode) + " threw: " + error.what());
          continue;
        }
        const double us = static_cast<double>(now_ns() - t0) / 1e3;
        const char* outcome = swifi::to_string(episode_result.outcome);
        if (spans) {
          spans->close(span, target + " " + outcome);
          result.timings["swifi.episode_us." + target].push_back(us);
          if (const char* timed = timed_outcome(episode_result.outcome)) {
            result.timings[std::string("swifi.episode_us.") + timed].push_back(us);
          }
        }
        tallies[cell].add(episode_result);
        ++result.ops;
        if (batch == 0) {
          first_digest.add(target);
          first_digest.add(episode);
          first_digest.add(outcome);
          first_digest.add(episode_result.crashed ? 1 + static_cast<std::uint64_t>(
                                                            episode_result.crash_kind)
                                                  : 0);
          first_digest.add(episode_result.quarantined ? 1 : 0);
          first_digest.add(episode_result.virtual_end);
        }
      }
    }
    const double batch_seconds = seconds_since(batch_start);
    if (spans) spans->close(batch_span);
    const double ref_after = reference_ms();
    result.batch_s.push_back(batch_seconds);
    result.norm_segments.push_back({normalised(batch_seconds, ref_before, ref_after)});
    result.batch_units.push_back(static_cast<double>(result.ops - ops_before));
    ref_before = ref_after;
    result.busy_s += batch_seconds;
    if (batch == 0) first_batch = tallies;
    for (const campaign::Tally& tally : tallies) {
      if (bucket_sum(tally) != tally.injected) result.fail("outcome buckets do not sum to injected");
      if (tally.invariant_violations != 0) result.fail("invariant violations with checking off");
    }
  }

  // The first batch again through campaign::run: same seeds, same tallies.
  campaign::Config check;
  check.master_seed = seed;
  check.injections_per_cell = kSwifiPerCell;
  check.workload_iterations = kSwifiIterations;
  check.services = targets;
  const campaign::Result replay = campaign::run(check);
  for (std::size_t cell = 0; cell < targets.size() && cell < first_batch.size(); ++cell) {
    if (!same_tally(replay.cells[cell].tally, first_batch[cell])) {
      result.fail(targets[cell] + ": first batch differs from campaign::run of the same seeds");
    }
  }

  campaign::Tally total;
  for (const campaign::Tally& tally : tallies) total.merge(tally);
  const std::uint64_t unrecovered = total.activated() - total.recovered;
  result.sim["sim.first_batch_digest"] = quoted(first_digest.hex());
  result.sim["sim.episodes"] = num(static_cast<double>(total.injected));
  result.sim["sim.recovered"] = num(static_cast<double>(total.recovered));
  result.sim["sim.degraded"] = num(static_cast<double>(total.degraded));
  result.sim["sim.undetected"] = num(static_cast<double>(total.undetected));
  result.sim["sim.segfault"] = num(static_cast<double>(total.segfault));
  result.sim["sim.propagated"] = num(static_cast<double>(total.propagated));
  result.sim["sim.hang"] = num(static_cast<double>(total.hang));
  result.sim["sim.other"] = num(static_cast<double>(total.other));
  result.sim["sim.unrecovered_share"] =
      num(total.activated() == 0 ? 0.0
                                 : static_cast<double>(unrecovered) /
                                       static_cast<double>(total.activated()));
  result.sim["sim.virtual_us_per_episode"] =
      num(total.injected == 0 ? 0.0
                              : static_cast<double>(total.virtual_time_total) /
                                    static_cast<double>(total.injected));
  return result;
}

// --- explore-matrix -------------------------------------------------------------

void setup_explore(std::uint64_t seed) {
  const explore::Explorer explorer(explore_options(seed, Cell{"storage", "storage"}));
  const explore::Execution execution = explorer.run_one(explore::Schedule{});
  if (execution.failed) throw std::runtime_error("empty schedule failed: " + execution.reason);
}

Result run_explore(std::uint64_t seed, const Budget& budget, SpanLog* spans, bool full) {
  Result result;
  const std::vector<Cell> cells = explore_cells(full);
  std::vector<explore::Report> reports(cells.size());
  std::string first_digest;
  std::size_t executions = 0;
  std::size_t pruned = 0;

  double ref_before = reference_ms();
  const std::int64_t start = now_ns();
  for (int sweep = 0;; ++sweep) {
    if (budget.max_batches > 0 && sweep >= budget.max_batches) break;
    if (sweep >= budget.min_batches && !another_fits(budget, start, result.batch_s)) break;
    const int sweep_span =
        spans ? spans->open("explore.sweep", -1, "sweep " + std::to_string(sweep)) : -1;
    const std::uint64_t ops_before = result.ops;
    Digest digest;
    executions = 0;
    pruned = 0;
    double sweep_seconds = 0;
    std::vector<double> cell_norm;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const Cell& cell = cells[c];
      const std::string name = cell.service + "/" + cell.target;
      const int span = spans ? spans->open("explore.cell", sweep_span, name) : -1;
      const std::int64_t cell_start = now_ns();
      const explore::Explorer explorer(explore_options(seed, cell));
      reports[c] = explorer.explore();
      const double cell_seconds = seconds_since(cell_start);
      if (spans) spans->close(span);
      const double ref_after = reference_ms();
      sweep_seconds += cell_seconds;
      cell_norm.push_back(normalised(cell_seconds, ref_before, ref_after));
      ref_before = ref_after;
      const explore::Report& report = reports[c];
      result.attempted += report.executions;
      result.failed += report.failures;
      if (report.failures != 0) result.fail(name + ": failing executions");
      if (report.truncated) result.fail(name + ": sweep truncated at the execution cap");
      if (report.failures == 0 && !report.truncated) ++result.ops;
      executions += report.executions;
      pruned += report.pruned();
      digest.add(name);
      digest.add(report.executions);
      digest.add(report.pruned_picks);
      digest.add(report.pruned_crashes);
      digest.add(report.window_clipped ? 1 : 0);
      for (const std::string& schedule : report.explored) digest.add(schedule);
    }
    if (spans) spans->close(sweep_span);
    result.batch_s.push_back(sweep_seconds);
    result.norm_segments.push_back(std::move(cell_norm));
    result.batch_units.push_back(static_cast<double>(result.ops - ops_before));
    result.busy_s += sweep_seconds;
    if (sweep == 0) {
      first_digest = digest.hex();
    } else if (digest.hex() != first_digest) {
      result.fail("explored set changed between sweeps of one seed");
    }
  }

  result.sim["sim.explored_digest"] = quoted(first_digest);
  result.sim["sim.cells"] = num(static_cast<double>(cells.size()));
  result.sim["sim.executions"] = num(static_cast<double>(executions));
  result.sim["sim.pruned"] = num(static_cast<double>(pruned));

  if (spans == nullptr) return result;

  // Replay an even spread of the explored schedules one at a time.
  std::size_t explored = 0;
  for (const explore::Report& report : reports) explored += report.explored.size();
  const std::size_t stride = std::max<std::size_t>(1, explored / kReplaySamples);
  std::vector<double>& replay_us = result.timings["explore.replay_us"];
  std::size_t index = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const explore::Explorer explorer(explore_options(seed, cells[c]));
    for (const std::string& text : reports[c].explored) {
      if (index++ % stride != 0) continue;
      const explore::Schedule schedule = explore::Schedule::parse(text);
      const int span = spans->open("explore.replay", -1, text);
      const std::int64_t t0 = now_ns();
      const explore::Execution execution = explorer.run_one(schedule);
      replay_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      spans->close(span);
      if (execution.failed) result.fail("replay of " + text + " failed: " + execution.reason);
    }
  }
  double replay_mean_s = 0;
  for (const double us : replay_us) replay_mean_s += us / 1e6;
  if (!replay_us.empty()) replay_mean_s /= static_cast<double>(replay_us.size());
  result.layers.set("explore.executions", static_cast<double>(executions), "count");
  result.layers.set("explore.pruned", static_cast<double>(pruned), "count");
  result.layers.set("explore.pruning_ratio",
                    executions == 0 ? 1.0
                                    : static_cast<double>(executions + pruned) /
                                          static_cast<double>(executions),
                    "ratio");
  result.layers.set("explore.frontier_self_s",
                    median(result.batch_s) - static_cast<double>(executions) * replay_mean_s, "s");
  return result;
}

// --- web-open-loop ----------------------------------------------------------------

void setup_web(std::uint64_t seed) {
  System sys(web_system(seed));
  const websrv::OpenLoopResult warm = websrv::run_open_loop(sys, web_load(seed, 20'000));
  if (warm.issued == 0 || warm.completed != warm.issued) {
    throw std::runtime_error("warm-up open loop lost requests");
  }
}

Result run_web(std::uint64_t seed, const Budget& budget, SpanLog* spans, int segments) {
  Result result;
  std::string first_digest;

  double ref_before = reference_ms();
  const std::int64_t start = now_ns();
  for (int batch = 0;; ++batch) {
    if (budget.max_batches > 0 && batch >= budget.max_batches) break;
    if (batch >= budget.min_batches && !another_fits(budget, start, result.batch_s)) break;
    const int batch_span =
        spans ? spans->open("websrv.batch", -1, "batch " + std::to_string(batch)) : -1;
    Digest digest;
    LogHistogram latency;
    std::uint64_t issued = 0, completed = 0, invocations = 0, events = 0, dropped = 0;
    std::uint64_t hits = 0, lookups = 0, recycles = 0, refreshes = 0;
    int reboots = 0, crashes = 0;
    double seconds = 0, clean_rps = 0, fault_rps = 0;
    std::vector<double> segment_norm;
    for (int segment = 0; segment < segments; ++segment) {
      const std::uint64_t segment_seed = seed * kWebSegments + static_cast<std::uint64_t>(segment);
      const int segment_span =
          spans ? spans->open("websrv.segment", batch_span, std::to_string(segment)) : -1;

      // Timed: boot, serve the open loop, tear down. The invariant check is
      // the benchmark's own oracle and is timed apart.
      int span = spans ? spans->open("components.boot", segment_span) : -1;
      std::int64_t t0 = now_ns();
      auto sys = std::make_unique<System>(web_system(segment_seed));
      double busy = seconds_since(t0);
      if (spans) spans->close(span);

      span = spans ? spans->open("websrv.open_loop", segment_span) : -1;
      t0 = now_ns();
      const websrv::OpenLoopResult served =
          websrv::run_open_loop(*sys, web_load(segment_seed, kWebSegmentUs));
      busy += seconds_since(t0);
      if (spans) spans->close(span);

      span = spans ? spans->open("trace.check", segment_span) : -1;
      t0 = now_ns();
      const std::vector<std::string> violations = components::check_recovery_invariants(*sys);
      const double check_ms = static_cast<double>(now_ns() - t0) / 1e6;
      if (spans) spans->close(span);

      const kernel::Kernel& kern = sys->kernel();
      invocations += kern.invocation_count();
      reboots += kern.total_reboots();
      if (spans) {
        const trace::Tracer::Snapshot snap = kern.tracer().snapshot();
        events += snap.events.size();
        dropped += snap.dropped;
        result.timings["trace.check_ms"].push_back(check_ms);
      }

      span = spans ? spans->open("components.teardown", segment_span) : -1;
      t0 = now_ns();
      sys.reset();
      busy += seconds_since(t0);
      if (spans) spans->close(span);
      if (spans) spans->close(segment_span);

      const double ref_after = reference_ms();
      seconds += busy;
      segment_norm.push_back(normalised(busy, ref_before, ref_after));
      ref_before = ref_after;

      if (served.issued == 0) result.fail("open loop issued no requests");
      if (served.completed != served.issued || served.errors != 0) {
        result.fail("segment " + std::to_string(segment) + ": completed " +
                    std::to_string(served.completed) + " of " + std::to_string(served.issued) +
                    " requests");
      }
      for (const std::string& violation : violations) result.fail("invariant: " + violation);
      issued += served.issued;
      completed += served.completed;
      crashes += served.crashes_injected;
      latency.merge(served.latency);
      hits += served.cache_hits;
      lookups += served.cache_hits + served.cache_misses;
      recycles += served.ring_recycles;
      refreshes += served.handle_refreshes;
      clean_rps += served.goodput_clean_rps / segments;
      fault_rps += served.goodput_fault_rps / segments;
      digest.add(served.to_json("superglue"));
    }
    if (spans) spans->close(batch_span);

    result.batch_s.push_back(seconds);
    result.norm_segments.push_back(std::move(segment_norm));
    result.batch_units.push_back(static_cast<double>(completed));
    result.busy_s += seconds;
    result.attempted += issued;
    result.failed += issued - std::min(issued, completed);
    result.ops += completed;
    if (spans) {
      const auto ratio = [](double part, double whole) { return whole == 0 ? 0.0 : part / whole; };
      result.layers.set("kernel.invocations_per_request",
                        ratio(static_cast<double>(invocations), static_cast<double>(issued)),
                        "count");
      result.layers.set("kernel.reboots", reboots, "count");
      result.layers.set("trace.events", static_cast<double>(events), "count");
      result.layers.set("trace.dropped", static_cast<double>(dropped), "count");
      result.layers.set("websrv.cache_hit_ratio",
                        ratio(static_cast<double>(hits), static_cast<double>(lookups)), "ratio");
      result.layers.set("websrv.ring_recycles", static_cast<double>(recycles), "count");
      result.layers.set("websrv.handle_refreshes", static_cast<double>(refreshes), "count");
    }
    if (batch == 0) {
      first_digest = digest.hex();
      result.sim["sim.run_digest"] = quoted(first_digest);
      result.sim["sim.segments"] = num(segments);
      result.sim["sim.issued"] = num(static_cast<double>(issued));
      result.sim["sim.completed"] = num(static_cast<double>(completed));
      result.sim["sim.crashes"] = num(crashes);
      result.sim["sim.latency_us_p50"] = num(static_cast<double>(latency.percentile(50)));
      result.sim["sim.latency_us_p99"] = num(static_cast<double>(latency.percentile(99)));
      result.sim["sim.latency_us_p999"] = num(static_cast<double>(latency.percentile(99.9)));
      result.sim["sim.availability"] =
          num(issued == 0 ? 0.0 : static_cast<double>(completed) / static_cast<double>(issued));
      result.sim["sim.goodput_clean_rps"] = num(clean_rps);
      result.sim["sim.goodput_fault_rps"] = num(fault_rps);
    } else if (digest.hex() != first_digest) {
      result.fail("open-loop results changed between batches of one seed");
    }
  }
  return result;
}

}  // namespace sg::perf
