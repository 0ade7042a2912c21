#pragma once

// The fixed probe set of the traced run: timed calls into each layer's
// public functions, identical on every workload.

#include "harness.hpp"

namespace sg::perf {

/// Runs every probe and returns its summaries (`<name>.p50/.tail/.n`) plus
/// c3.tracking_overhead_ns. Records one span per probe in `spans`.
Metrics run_probes(SpanLog& spans);

/// Host nanoseconds one open()/close() pair of the span log costs.
double span_cost_ns();

}  // namespace sg::perf
