#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/assert.hpp"
#include "util/histogram.hpp"
#include "util/loc_counter.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"

namespace sg {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

class RngBoundTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBoundTest, NextBelowStaysInRange) {
  Rng rng(7);
  const std::uint64_t bound = GetParam();
  for (int i = 0; i < 2000; ++i) EXPECT_LT(rng.next_below(bound), bound);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundTest, ::testing::Values(1u, 2u, 3u, 8u, 32u, 1000u));

TEST(RngTest, UniformCoversRange) {
  Rng rng(99);
  bool seen[6] = {};
  for (int i = 0; i < 500; ++i) seen[rng.uniform(0, 5)] = true;
  for (const bool hit : seen) EXPECT_TRUE(hit);
}

TEST(RngTest, ChanceIsCalibrated) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    if (rng.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

TEST(StatsTest, MeanAndStdev) {
  OnlineStats stats;
  for (const double sample : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(sample);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.stdev(), 2.138, 0.001);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_EQ(stats.min(), 2.0);
  EXPECT_EQ(stats.max(), 9.0);
}

TEST(StatsTest, SingleSampleHasZeroVariance) {
  OnlineStats stats;
  stats.add(3.5);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(StatsTest, Percentile) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  EXPECT_NEAR(percentile(samples, 50), 50.5, 0.01);
  EXPECT_NEAR(percentile(samples, 0), 1.0, 0.01);
  EXPECT_NEAR(percentile(samples, 100), 100.0, 0.01);
  EXPECT_THROW(percentile({}, 50), AssertionError);
}

TEST(TextTableTest, AlignsColumns) {
  TextTable table;
  table.add_row({"a", "long-header"});
  table.add_row({"value", "x"});
  const std::string rendered = table.render();
  EXPECT_NE(rendered.find("| a     | long-header |"), std::string::npos);
  EXPECT_NE(rendered.find("| value | x           |"), std::string::npos);
}

TEST(LocCounterTest, CountsOnlyCode) {
  EXPECT_EQ(count_loc(""), 0);
  EXPECT_EQ(count_loc("\n\n\n"), 0);
  EXPECT_EQ(count_loc("int x;\n"), 1);
  EXPECT_EQ(count_loc("// comment only\n"), 0);
  EXPECT_EQ(count_loc("int x; // trailing\n"), 1);
  EXPECT_EQ(count_loc("/* block\n   spanning\n   lines */\n"), 0);
  EXPECT_EQ(count_loc("/* block */ int y;\n"), 1);
  EXPECT_EQ(count_loc("int a;\n/* c */\nint b;\n"), 2);
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("\t a b \n"), "a b");
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(starts_with("hello", "he"));
  EXPECT_FALSE(starts_with("he", "hello"));
  EXPECT_TRUE(ends_with("hello", "lo"));
  EXPECT_FALSE(ends_with("lo", "hello"));
}

TEST(StringUtilTest, ReplaceAll) {
  EXPECT_EQ(replace_all("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(replace_all("IDL_fname(IDL_fname)", "IDL_fname", "f"), "f(f)");
  EXPECT_THROW(replace_all("x", "", "y"), AssertionError);
}

// --- LogHistogram ----------------------------------------------------------------

TEST(HistogramTest, BucketBoundsRoundTrip) {
  // Every value lies inside the bounds of its own bucket, and bucket bounds
  // tile the value space without gaps.
  for (std::uint64_t v = 0; v < 100000; ++v) {
    const std::size_t i = LogHistogram::index_of(v);
    EXPECT_LE(LogHistogram::bucket_low(i), v);
    EXPECT_GE(LogHistogram::bucket_high(i), v);
  }
  Rng rng(7);
  for (int n = 0; n < 20000; ++n) {
    const std::uint64_t v = rng.next_u64();
    const std::size_t i = LogHistogram::index_of(v);
    EXPECT_LE(LogHistogram::bucket_low(i), v);
    EXPECT_GE(LogHistogram::bucket_high(i), v);
    EXPECT_EQ(LogHistogram::index_of(LogHistogram::bucket_low(i)), i);
    EXPECT_EQ(LogHistogram::index_of(LogHistogram::bucket_high(i)), i);
  }
  // Adjacent buckets are contiguous over the low range.
  for (std::size_t i = 0; i + 1 < 20 * LogHistogram::kSubBuckets; ++i) {
    EXPECT_EQ(LogHistogram::bucket_high(i) + 1, LogHistogram::bucket_low(i + 1));
  }
}

TEST(HistogramTest, PercentileMatchesBruteForceSort) {
  // percentile(p) must return the upper bucket bound of the same rank a
  // sorted vector would pick: exact <= hist <= exact * (1 + 2^-kSubBits).
  Rng rng(42);
  LogHistogram hist;
  std::vector<std::uint64_t> values;
  for (int n = 0; n < 5000; ++n) {
    // Heavy-tailed mix, like a latency distribution with recovery stalls.
    std::uint64_t v = 1 + rng.next_u64() % 50;
    if (rng.next_u64() % 20 == 0) v += rng.next_u64() % 100000;
    values.push_back(v);
    hist.record(v);
  }
  std::sort(values.begin(), values.end());
  for (const double p : {0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    std::uint64_t rank = static_cast<std::uint64_t>(p / 100.0 * values.size() + 0.9999999);
    if (rank < 1) rank = 1;
    if (rank > values.size()) rank = values.size();
    const std::uint64_t exact = values[rank - 1];
    const std::uint64_t approx = hist.percentile(p);
    EXPECT_EQ(approx, LogHistogram::bucket_high(LogHistogram::index_of(exact)))
        << "p=" << p;
    EXPECT_GE(approx, exact) << "p=" << p;
    EXPECT_LE(approx, exact + exact / LogHistogram::kSubBuckets + 1) << "p=" << p;
  }
}

TEST(HistogramTest, MergeEqualsCombinedRecording) {
  Rng rng(5);
  LogHistogram a, b, combined;
  for (int n = 0; n < 1000; ++n) {
    const std::uint64_t v = 1 + rng.next_u64() % 100000;
    ((n % 2 == 0) ? a : b).record(v);
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_DOUBLE_EQ(a.mean(), combined.mean());
  for (const double p : {1.0, 25.0, 50.0, 75.0, 99.0}) {
    EXPECT_EQ(a.percentile(p), combined.percentile(p));
  }
}

TEST(HistogramTest, EmptyAndZeroBehaviour) {
  LogHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.percentile(50.0), 0u);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 0u);
  EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
  hist.record(0);  // Clamped to 1: virtual latencies are >= 1 µs.
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_EQ(hist.min(), 1u);
  EXPECT_EQ(hist.max(), 1u);
  EXPECT_EQ(hist.percentile(100.0), 1u);
}

TEST(ParallelForTest, RunsEveryIndexOnceOnDenseWorkerIds) {
  for (const int workers : {1, 3, 8}) {
    std::vector<std::atomic<int>> hits(50);
    std::vector<std::atomic<int>> worker_of(50);
    parallel_for(hits.size(), workers, [&](int worker, std::size_t i) {
      ++hits[i];
      worker_of[i] = worker;
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << i;
      EXPECT_GE(worker_of[i].load(), 0);
      EXPECT_LT(worker_of[i].load(), workers);
    }
  }
}

TEST(ParallelForTest, OneWorkerRunsInlineOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  int on_caller = 0;
  parallel_for(10, 1, [&](int, std::size_t) {
    if (std::this_thread::get_id() == caller) ++on_caller;
  });
  EXPECT_EQ(on_caller, 10);
}

TEST(ParallelForTest, ExceptionIsRethrownOnTheCaller) {
  for (const int workers : {1, 4}) {
    EXPECT_THROW(parallel_for(100, workers,
                              [](int, std::size_t i) {
                                if (i == 3) throw std::runtime_error("index 3");
                              }),
                 std::runtime_error);
  }
}

TEST(AssertTest, ThrowsWithLocation) {
  try {
    SG_ASSERT_MSG(false, "ctx");
    FAIL() << "should have thrown";
  } catch (const AssertionError& error) {
    EXPECT_NE(std::string(error.what()).find("ctx"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("util_test.cpp"), std::string::npos);
  }
}

}  // namespace
}  // namespace sg
