#pragma once

// Measurement helpers shared by the benchmark's workloads and probes:
// percentile summaries under the ten-samples-beyond rule, an in-memory span
// log with self-time arithmetic and a Chrome trace writer, an FNV-1a digest
// for simulated results, and a named metric list that renders as JSON.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sg::perf {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

/// Milliseconds a fixed reference routine takes on this host right now (the
/// median of three runs): condition-variable handoffs between two threads,
/// thread spawn and join, and allocator churn -- the host primitives the
/// simulator spends its time in, written without the library so a library
/// change cannot move it.
double reference_ms();

// --- percentiles ------------------------------------------------------------

/// The highest of p99.9, p99, p90 and p50 that still has at least ten of `n`
/// samples beyond it; 100 (the maximum) when even p50 has fewer than ten.
double tail_level(std::size_t n);

/// Nearest-rank percentile of ascending `sorted` (0 for an empty vector).
double percentile(const std::vector<double>& sorted, double level);

struct Summary {
  double p50 = 0;
  double tail = 0;        ///< Value at tail_level(n).
  double tail_level = 0;  ///< Which percentile `tail` is.
  std::size_t n = 0;
};

Summary summarize(std::vector<double> samples);

double median(std::vector<double> values);

// --- spans --------------------------------------------------------------------

/// One timed call into a layer, recorded from the benchmark's own code.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< Index of the enclosing span in the log, -1 at top level.
  std::string detail;
};

/// Spans stay in memory while the benchmark runs and are written at exit.
class SpanLog {
 public:
  /// Opens a span now; returns its index for close() and for children.
  int open(std::string name, int parent = -1, std::string detail = {});
  /// Ends span `index` now; a non-empty `detail` replaces the one given at open().
  void close(int index, std::string detail = {});
  const std::vector<Span>& spans() const { return spans_; }
  std::size_t size() const { return spans_.size(); }

  /// Chrome trace_event JSON ("X" events, microseconds from the first span).
  bool write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover (children clipped to the parent, overlaps
/// counted once).
std::vector<std::int64_t> self_ns(const std::vector<Span>& spans);

/// Per span name: count, total and self nanoseconds.
struct SpanTotals {
  std::size_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};
std::map<std::string, SpanTotals> totals_by_name(const std::vector<Span>& spans);

// --- digest -------------------------------------------------------------------

/// FNV-1a over a canonical byte stream of simulated results.
class Digest {
 public:
  void add(const std::string& text);
  void add(std::uint64_t value);
  std::uint64_t value() const { return hash_; }
  std::string hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// --- metrics ------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// Ordered name -> (value, unit) list.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// `<name>.p50`, `<name>.tail` in `unit` and `<name>.n` as a count.
  void set_summary(const std::string& name, const Summary& summary, const std::string& unit);
  bool has(const std::string& name) const { return index_.count(name) != 0; }
  const std::vector<Metric>& all() const { return items_; }
  /// Copies every metric of `other` this list does not hold yet.
  void merge_missing(const Metrics& other);
  /// {"name": {"value": v, "unit": "u"}, ...} with every digit of each value.
  std::string json() const;

 private:
  std::vector<Metric> items_;
  std::map<std::string, std::size_t> index_;
};

/// Shortest decimal rendering that reads back as the same double.
std::string format_number(double value);

std::string json_escape(const std::string& text);

}  // namespace sg::perf
