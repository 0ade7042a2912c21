// sgbench: the repository's benchmark binary. One workload per process:
//
//   sgbench --workload swifi-campaign|explore-matrix|web-open-loop
//           --seed N --seconds S --trace 0|1 [--spans FILE] [--revision REV]
//   sgbench --workload W --seed N --setup-only
//
// The process pins itself to one host CPU before any System is built and
// neutralises the SG_TRACE / SG_CORES / SG_PIN_CPU environment knobs, so
// every workload sets cores and tracing explicitly. --trace 0 prints the
// end-to-end metrics, --trace 1 the per-layer ones: spans around every call
// the workload makes into a layer, the fixed probe set, and small fixed runs
// of the other two workloads for the layers only they exercise. Either way
// the last stdout line is {"correct", "attempted", "failed", "metrics"};
// HOST and SIM lines before it carry the host block and the simulated-time
// digest.

#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace sg::perf {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 0;
  int trace = -1;
  bool setup_only = false;
  std::string spans_path;
  std::string revision = "unknown";
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (flag == "--setup-only") {
      args.setup_only = true;
      continue;
    }
    const std::size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      args.seed_given = end != value.c_str() && *end == '\0';
      if (!args.seed_given) return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1" ? 1 : 0;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else if (flag == "--revision") {
      args.revision = value;
    } else {
      return false;
    }
  }
  const bool known = args.workload == "swifi-campaign" || args.workload == "explore-matrix" ||
                     args.workload == "web-open-loop";
  return known && args.seed_given && (args.setup_only || (args.seconds > 0 && args.trace >= 0));
}

struct Host {
  int cpus = 0;
  int allowed_cpus = 0;
  int pinned_cpu = -1;
};

/// Pins the whole process (threads created later inherit the mask) to the
/// highest-numbered CPU it may run on.
Host pin_to_one_cpu() {
  Host host;
  host.cpus = static_cast<int>(std::thread::hardware_concurrency());
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return host;
  host.allowed_cpus = CPU_COUNT(&allowed);
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) == 0) host.pinned_cpu = cpu;
    break;
  }
  return host;
}

std::string host_json(const Host& host, const Args& args) {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  return "{\"ndebug\": " + std::string(ndebug ? "true" : "false") +
         ", \"optimized\": " + (optimized ? "true" : "false") + ", \"compiler\": \"" +
         json_escape(__VERSION__) + "\", \"cpus\": " + std::to_string(host.cpus) +
         ", \"allowed_cpus\": " + std::to_string(host.allowed_cpus) +
         ", \"pinned_cpu\": " + std::to_string(host.pinned_cpu) + ", \"revision\": \"" +
         json_escape(args.revision) + "\", \"cores\": 1}";
}

/// Peak resident set of this process image. VmHWM, not ru_maxrss: the
/// latter keeps the resident size the forking parent had before exec.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::strtod(line + 6, nullptr);
  }
  std::fclose(status);
  return kb / 1024.0;
}

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

void setup(const std::string& workload, std::uint64_t seed) {
  if (workload == "swifi-campaign") {
    setup_swifi(seed);
  } else if (workload == "explore-matrix") {
    setup_explore(seed);
  } else {
    setup_web(seed);
  }
}

Result run(const std::string& workload, std::uint64_t seed, const Budget& budget, SpanLog* spans) {
  if (workload == "swifi-campaign") return run_swifi(seed, budget, spans);
  if (workload == "explore-matrix") {
    return run_explore(seed, Budget{budget.seconds, kExploreSweeps, 0}, spans, /*full=*/true);
  }
  return run_web(seed, budget, spans);
}

std::string unit_of(const std::string& name) {
  const auto ends_with = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends_with("_ns")) return "ns";
  if (ends_with("_ms")) return "ms";
  return "us";
}

/// Folds a run's layer samples and counts into `layers`; the first run to
/// report a metric wins.
void absorb(Metrics& layers, const Result& part) {
  Metrics summaries;
  for (const auto& [name, samples] : part.timings) {
    summaries.set_summary(name, summarize(samples), unit_of(name));
  }
  layers.merge_missing(summaries);
  layers.merge_missing(part.layers);
}

/// Units of one batch per second of reference-speed time.
double units_per_s(const Result& result) {
  const double seconds = reference_batch_s(result);
  return seconds > 0 ? median(result.batch_units) / seconds : 0.0;
}

void print_summary(const std::string& workload, const Result& result, const SpanLog* spans) {
  std::fprintf(stderr,
               "%s: %zu batches, %llu units in %.3f s busy, median batch %.4f s on this host, "
               "%.4f s at reference speed\n",
               workload.c_str(), result.batch_s.size(),
               static_cast<unsigned long long>(result.ops), result.busy_s,
               median(result.batch_s), reference_batch_s(result));
  for (const std::string& error : result.errors) std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  if (spans == nullptr) return;
  std::fprintf(stderr, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, totals] : totals_by_name(spans->spans())) {
    std::fprintf(stderr, "%-28s %8zu %12.3f %12.3f\n", name.c_str(), totals.count,
                 static_cast<double>(totals.total_ns) / 1e6,
                 static_cast<double>(totals.self_ns) / 1e6);
  }
}

int bench_main(int argc, char** argv) {
  const std::int64_t process_start = now_ns();
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: sgbench --workload swifi-campaign|explore-matrix|web-open-loop "
                 "--seed N (--setup-only | --seconds S --trace 0|1) [--spans FILE] "
                 "[--revision REV]\n");
    return 2;
  }
  for (const char* knob : {"SG_TRACE", "SG_CORES", "SG_PIN_CPU", "SG_TRACE_DUMP"}) unsetenv(knob);
  const Host host = pin_to_one_cpu();

  setup(args.workload, args.seed);
  const double setup_raw_s = static_cast<double>(now_ns() - process_start) / 1e9;
  const double setup_s =
      setup_raw_s * kReferenceMs / median({reference_ms(), reference_ms(), reference_ms()});
  if (args.setup_only) {
    std::printf("SETUP %s\n", format_number(setup_s).c_str());
    return 0;
  }

  SpanLog spans;
  SpanLog* span_log = args.trace == 1 ? &spans : nullptr;
  const Budget budget{args.seconds, 1, 0};
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  const std::int64_t run_start = now_ns();
  Result result = run(args.workload, args.seed, budget, span_log);
  const double run_s = static_cast<double>(now_ns() - run_start) / 1e9;
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  const std::size_t workload_spans = spans.size();

  Metrics metrics;
  if (args.trace == 0) {
    metrics.set("ops_per_s", units_per_s(result), "1/s");
    metrics.set("batch_s", reference_batch_s(result), "s");
    metrics.set("setup_s", setup_s, "s");
    metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    absorb(metrics, result);
    metrics.merge_missing(run_probes(spans));
    std::vector<Result> others;
    if (args.workload != "swifi-campaign") {
      others.push_back(run_swifi(args.seed, Budget{0, 1, 30}, &spans, 10));
    }
    if (args.workload != "explore-matrix") {
      others.push_back(run_explore(args.seed, Budget{0, 1, 1}, &spans, false));
    }
    if (args.workload != "web-open-loop") {
      others.push_back(run_web(args.seed, Budget{0, 1, 1}, &spans, 2));
    }
    for (const Result& other : others) {
      absorb(metrics, other);
      for (const std::string& error : other.errors) result.fail(error);
    }

    const double user_s = seconds_of(after.ru_utime) - seconds_of(before.ru_utime);
    const double sys_s = seconds_of(after.ru_stime) - seconds_of(before.ru_stime);
    const double switches = static_cast<double>((after.ru_nvcsw - before.ru_nvcsw) +
                                                (after.ru_nivcsw - before.ru_nivcsw));
    metrics.set("host.sys_share", user_s + sys_s > 0 ? sys_s / (user_s + sys_s) : 0.0, "ratio");
    metrics.set("host.ctx_switches_per_op",
                result.ops > 0 ? switches / static_cast<double>(result.ops) : 0.0, "count");
    metrics.set("host.raw_batch_s", median(result.batch_s), "s");
    metrics.set("host.speed_index", reference_batch_s(result) / median(result.batch_s), "ratio");
    metrics.set("bench.traced_ops_per_s", units_per_s(result), "1/s");
    metrics.set("bench.span_overhead_share",
                static_cast<double>(workload_spans) * span_cost_ns() / (run_s * 1e9), "ratio");
    if (!args.spans_path.empty() && !spans.write_chrome(args.spans_path)) {
      std::fprintf(stderr, "cannot write spans to %s\n", args.spans_path.c_str());
      return 1;
    }
  }

  std::string sim = "{";
  for (const auto& [name, value] : result.sim) {
    sim += (sim.size() > 1 ? ", \"" : "\"") + name + "\": " + value;
  }
  sim += "}";
  print_summary(args.workload, result, span_log);
  std::printf("HOST %s\n", host_json(host, args).c_str());
  std::printf("SIM %s\n", sim.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.json().c_str());
  return 0;
}

}  // namespace
}  // namespace sg::perf

int main(int argc, char** argv) {
  try {
    return sg::perf::bench_main(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sgbench: %s\n", error.what());
    return 1;
  }
}
