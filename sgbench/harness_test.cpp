// Tests for the benchmark's own helpers: the percentile rule, span self-time
// arithmetic, and digest stability across two small in-process runs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "harness.hpp"
#include "workloads.hpp"

namespace sg::perf {
namespace {

TEST(TailLevel, KeepsAtLeastTenSamplesBeyondThePercentile) {
  EXPECT_EQ(tail_level(19), 100.0);
  EXPECT_EQ(tail_level(20), 50.0);
  EXPECT_EQ(tail_level(99), 50.0);
  EXPECT_EQ(tail_level(100), 90.0);
  EXPECT_EQ(tail_level(999), 90.0);
  EXPECT_EQ(tail_level(1000), 99.0);
  EXPECT_EQ(tail_level(9999), 99.0);
  EXPECT_EQ(tail_level(10000), 99.9);
  for (std::size_t n = 20; n <= 20000; n += 7) {
    const double level = tail_level(n);
    const auto beyond = static_cast<double>(n) * (1.0 - level / 100.0);
    EXPECT_GE(beyond, 10.0 - 1e-6) << "n=" << n;
  }
}

TEST(Percentile, NearestRank) {
  std::vector<double> sorted;
  for (int i = 1; i <= 100; ++i) sorted.push_back(i);
  EXPECT_EQ(percentile(sorted, 50), 50);
  EXPECT_EQ(percentile(sorted, 90), 90);
  EXPECT_EQ(percentile(sorted, 99), 99);
  EXPECT_EQ(percentile(sorted, 100), 100);
  EXPECT_EQ(percentile({}, 50), 0);
}

TEST(Summarize, ReportsTheTailTheSampleCountAllows) {
  std::vector<double> samples;
  for (int i = 1000; i >= 1; --i) samples.push_back(i);
  const Summary summary = summarize(samples);
  EXPECT_EQ(summary.n, 1000u);
  EXPECT_EQ(summary.p50, 500);
  EXPECT_EQ(summary.tail_level, 99.0);
  EXPECT_EQ(summary.tail, 990);
}

Span span(const char* name, std::int64_t start, std::int64_t end, int parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfDirectChildrenClippedToTheParent) {
  const std::vector<Span> spans = {
      span("batch", 0, 100, -1),
      span("unit", 10, 30, 0),
      span("unit", 20, 50, 0),    // Overlaps the first child: counted once.
      span("unit", 90, 120, 0),   // Runs past the parent: clipped at 100.
      span("layer", 12, 18, 1),   // A grandchild reduces only its own parent.
      span("other", 200, 260, -1),
  };
  const std::vector<std::int64_t> self = self_ns(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
  EXPECT_EQ(self[5], 60);

  const auto totals = totals_by_name(spans);
  EXPECT_EQ(totals.at("unit").count, 3u);
  EXPECT_EQ(totals.at("unit").total_ns, 20 + 30 + 30);
  EXPECT_EQ(totals.at("unit").self_ns, 14 + 30 + 30);
  EXPECT_EQ(totals.at("batch").self_ns, 50);
}

TEST(Digest, SeparatesFieldsAndRepeats) {
  Digest a;
  a.add("ab");
  a.add("c");
  Digest b;
  b.add("a");
  b.add("bc");
  Digest c;
  c.add("ab");
  c.add("c");
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(a.value(), c.value());
  EXPECT_EQ(a.hex().size(), 16u);
}

TEST(Metrics, RendersEveryDigit) {
  EXPECT_EQ(format_number(0.1), "0.1");
  const double third = 1.0 / 3.0;
  EXPECT_EQ(std::strtod(format_number(third).c_str(), nullptr), third);
  Metrics metrics;
  metrics.set("a", 2, "s");
  metrics.set_summary("b_us", Summary{1.5, 3, 90, 100}, "us");
  EXPECT_EQ(metrics.json(),
            "{\"a\": {\"value\": 2, \"unit\": \"s\"}, \"b_us.p50\": {\"value\": 1.5, \"unit\": "
            "\"us\"}, \"b_us.tail\": {\"value\": 3, \"unit\": \"us\"}, \"b_us.n\": {\"value\": "
            "100, \"unit\": \"count\"}}");
}

TEST(DigestStability, SwifiBatchRepeatsInProcess) {
  const Budget one{0, 1, 1};
  const Result first = run_swifi(7, one, nullptr);
  const Result second = run_swifi(7, one, nullptr);
  ASSERT_TRUE(first.correct) << (first.errors.empty() ? "" : first.errors.front());
  ASSERT_TRUE(second.correct);
  EXPECT_EQ(first.attempted, 7u * kSwifiPerCell);
  EXPECT_EQ(first.sim.at("sim.first_batch_digest"), second.sim.at("sim.first_batch_digest"));
  EXPECT_EQ(first.sim, second.sim);
  EXPECT_NE(run_swifi(8, one, nullptr).sim.at("sim.first_batch_digest"),
            first.sim.at("sim.first_batch_digest"));
}

TEST(DigestStability, WebRunRepeatsInProcess) {
  const Budget two{0, 2, 2};
  const Result first = run_web(7, two, nullptr, 1);
  const Result second = run_web(7, two, nullptr, 1);
  ASSERT_TRUE(first.correct) << (first.errors.empty() ? "" : first.errors.front());
  ASSERT_TRUE(second.correct);
  EXPECT_EQ(first.failed, 0u);
  EXPECT_EQ(first.sim, second.sim);
}

TEST(DigestStability, ExploreCellRepeatsInProcess) {
  const Budget one{0, 1, 1};
  const Result first = run_explore(7, one, nullptr, /*full=*/false);
  const Result second = run_explore(7, one, nullptr, /*full=*/false);
  ASSERT_TRUE(first.correct) << (first.errors.empty() ? "" : first.errors.front());
  EXPECT_EQ(first.failed, 0u);
  EXPECT_GT(first.attempted, 0u);
  EXPECT_EQ(first.sim, second.sim);
}

}  // namespace
}  // namespace sg::perf
