#pragma once

// The benchmark's three workloads. Each runs fixed-size batches until its
// time budget is spent, checks every batch's outputs, and reports host time
// per batch plus a digest of the simulated results. Given a SpanLog (the
// traced run) it also records a span around every call it makes into a
// layer and keeps the per-layer samples.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"

namespace sg::perf {

/// reference_ms() on an unloaded host of the kind the baseline was taken on.
inline constexpr double kReferenceMs = 1.0;

struct Budget {
  double seconds = 0;  ///< Start another batch only while it is expected to fit.
  int min_batches = 1;
  int max_batches = 0;  ///< 0: no cap.
};

struct Result {
  bool correct = true;
  std::vector<std::string> errors;  ///< First few failed checks.
  std::uint64_t attempted = 0;      ///< Operations whose output was checked.
  std::uint64_t failed = 0;         ///< Operations whose check failed.
  std::uint64_t ops = 0;            ///< Units completed correctly.
  std::vector<double> batch_s;      ///< Host seconds per batch.
  /// Per batch, the host seconds of each of its timed segments rescaled to
  /// the reference host speed: kReferenceMs over the mean reference_ms()
  /// measured on either side of the segment. A segment is a swifi batch, an
  /// explorer cell or a web open-loop run; segment i is the same work in
  /// every batch of the explorer and web workloads.
  std::vector<std::vector<double>> norm_segments;
  std::vector<double> batch_units;  ///< Units completed correctly in each batch.
  double busy_s = 0;                ///< Host seconds the batches took in total.
  /// Simulated (virtual-time) results as JSON literals, keyed `sim.*`; not gated.
  std::map<std::string, std::string> sim;
  std::map<std::string, std::vector<double>> timings;  ///< Layer samples (traced runs).
  Metrics layers;                                      ///< Layer counts (traced runs).

  void fail(const std::string& why);
};

/// Host seconds one batch takes at the reference speed: for each segment the
/// median over batches of its rescaled time, summed over the segments.
double reference_batch_s(const Result& result);

/// Table II register-flip episodes: each batch runs `kSwifiPerCell` episodes
/// on each of the seven targets. A unit is one episode. `min_per_class`
/// keeps a capped run going until every target and the recovered,
/// undetected and segfault outcomes have that many timed episodes.
inline constexpr int kSwifiPerCell = 10;
void setup_swifi(std::uint64_t seed);
Result run_swifi(std::uint64_t seed, const Budget& budget, SpanLog* spans,
                 int min_per_class = 0);

/// Bounded explorer sweep, d=2 and one crash, over workload x target cells.
/// A batch is one sweep of every cell; a unit is one cell explored to the
/// bound. A measured run makes at least kExploreSweeps sweeps, so a noisy
/// host moment inside one long cell is outvoted. `full` sweeps the 7x7
/// matrix, otherwise the storage/storage cell only.
inline constexpr int kExploreSweeps = 4;
void setup_explore(std::uint64_t seed);
Result run_explore(std::uint64_t seed, const Budget& budget, SpanLog* spans, bool full);

/// Open-loop Poisson web load under live SWIFI. A batch is 2 virtual seconds
/// served as `segments` consecutive 125 ms open-loop runs, each on its own
/// long-lived System, with the host-speed reference taken between them. A
/// unit is one correctly served request.
inline constexpr int kWebSegments = 16;
inline constexpr std::uint64_t kWebSegmentUs = 125'000;
void setup_web(std::uint64_t seed);
Result run_web(std::uint64_t seed, const Budget& budget, SpanLog* spans,
               int segments = kWebSegments);

}  // namespace sg::perf
