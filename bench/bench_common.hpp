#pragma once

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <unistd.h>

namespace sg::bench {

/// Reads an integer knob from the environment (used to scale bench runs:
/// SG_REQUESTS, SG_REPS, ...).
inline int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

/// Parses a whole decimal count of at least `min` into `*out`. Junk, overflow
/// and values below `min` are rejected, so a bad count becomes a usage error
/// instead of wrapping into an endless unsigned run.
inline bool parse_count(const char* text, long long min, long long* out) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno != 0 || value < min) return false;
  *out = value;
  return true;
}

/// parse_count over the environment variable `name`; unset leaves `*out`.
inline bool env_count(const char* name, long long min, long long* out) {
  const char* value = std::getenv(name);
  return value == nullptr || parse_count(value, min, out);
}

/// Wall-clock microseconds of `fn()`.
template <typename Fn>
double time_us(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(stop - start).count();
}

/// Mean/stdev over the central 90% of samples (drops host-scheduler
/// outliers that would swamp sub-microsecond measurements).
inline void trimmed_stats(std::vector<double> samples, double* mean_out, double* stdev_out) {
  std::sort(samples.begin(), samples.end());
  const std::size_t cut =
      samples.size() >= 5 ? std::max<std::size_t>(1, samples.size() / 20) : 0;
  double sum = 0;
  std::size_t n = 0;
  for (std::size_t i = cut; i + cut < samples.size(); ++i, ++n) sum += samples[i];
  const double mean = n > 0 ? sum / n : 0.0;
  double var = 0;
  for (std::size_t i = cut; i + cut < samples.size(); ++i) {
    var += (samples[i] - mean) * (samples[i] - mean);
  }
  *mean_out = mean;
  *stdev_out = n > 1 ? std::sqrt(var / (n - 1)) : 0.0;
}

/// Standard banner so bench outputs are self-describing in bench_output.txt.
inline void banner(const std::string& title, const std::string& paper_ref) {
  std::string bar(78, '=');
  std::printf("%s\n%s\n  (reproduces %s)\n%s\n", bar.c_str(), title.c_str(), paper_ref.c_str(),
              bar.c_str());
}

/// True if argv contains `flag` (the benches take at most `--json`).
inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == flag) return true;
  }
  return false;
}

/// Minimal JSON formatting for `--json` artifacts; enough for CI to diff
/// machine-readable bench results without pulling in a JSON library.
inline std::string json_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

inline std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

/// Host/run metadata embedded in every BENCH_*.json artifact so the perf
/// trajectory is comparable across machines: the host's hardware
/// concurrency, the SG_CORES the run saw (0 when unset), and the worker
/// count the bench actually used (pass 0 when not applicable).
inline std::string host_meta_json(int workers = 0) {
  const char* sg_cores = std::getenv("SG_CORES");
  std::string out = "\"host\": {";
  out += "\"hardware_concurrency\": " +
         json_num(static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  out += ", \"sg_cores\": " +
         json_num(sg_cores != nullptr ? std::atof(sg_cores) : 0.0);
  out += ", \"workers\": " + json_num(static_cast<double>(workers));
  out += "}";
  return out;
}

/// Splices the host metadata object into an existing JSON body as a final
/// top-level member (inserted before the last closing brace).
inline std::string with_host_meta(std::string body, int workers = 0) {
  const std::size_t pos = body.rfind('}');
  if (pos == std::string::npos) return body;
  body.insert(pos, ",\n  " + host_meta_json(workers) + "\n");
  return body;
}

/// Writes `body` to `path` and echoes the path so CI logs show the artifact.
inline void write_json_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  std::fputs(body.c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace sg::bench
