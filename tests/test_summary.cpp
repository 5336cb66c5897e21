// Unit tests for the Welford summary accumulator (stats/summary.hpp) and
// the fixed-memory latency histogram (stats/latency_histogram.hpp).

#include "stats/summary.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "stats/latency_histogram.hpp"

namespace {

using gpusel::stats::Accumulator;
using gpusel::stats::LatencyHistogram;

TEST(Accumulator, EmptySummary) {
    Accumulator a;
    const auto s = a.summary();
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.mean, 0.0);
    EXPECT_EQ(s.stddev, 0.0);
}

TEST(Accumulator, SingleValue) {
    Accumulator a;
    a.add(5.0);
    const auto s = a.summary();
    EXPECT_EQ(s.count, 1u);
    EXPECT_DOUBLE_EQ(s.mean, 5.0);
    EXPECT_DOUBLE_EQ(s.stddev, 0.0);
    EXPECT_DOUBLE_EQ(s.min, 5.0);
    EXPECT_DOUBLE_EQ(s.max, 5.0);
}

TEST(Accumulator, KnownMeanAndStddev) {
    Accumulator a;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(x);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    // sample stddev of this classic dataset: sqrt(32/7)
    EXPECT_NEAR(a.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
}

TEST(Accumulator, ResetClears) {
    Accumulator a;
    a.add(1.0);
    a.add(2.0);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    a.add(10.0);
    EXPECT_DOUBLE_EQ(a.mean(), 10.0);
}

TEST(Accumulator, NumericallyStableForLargeOffsets) {
    Accumulator a;
    const double off = 1e12;
    for (double x : {off + 1.0, off + 2.0, off + 3.0}) a.add(x);
    EXPECT_NEAR(a.mean(), off + 2.0, 1e-3);
    EXPECT_NEAR(a.stddev(), 1.0, 1e-6);
}

TEST(FormatMeanStd, ContainsBothNumbers) {
    Accumulator a;
    a.add(1.0);
    a.add(3.0);
    const auto s = gpusel::stats::format_mean_std(a.summary());
    EXPECT_NE(s.find("2"), std::string::npos);
    EXPECT_NE(s.find("+/-"), std::string::npos);
}

// ---- LatencyHistogram -------------------------------------------------------

/// The exact-sort percentile the histogram replaces: the element of rank
/// floor(pct / 100 * (n - 1)) in sorted order.
double exact_percentile(std::vector<double> v, double pct) {
    const auto rank = static_cast<std::size_t>(pct / 100.0 * static_cast<double>(v.size() - 1));
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
    return v[rank];
}

TEST(LatencyHistogram, EmptyReportsZero) {
    const LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(50.0), 0.0);
}

// Over 10^5 latencies spanning five decades (log-normal around 100 us with
// a heavy tail), p50 and p99 stay within the stated bound of the exact
// sort: |err| <= kRelativeError * exact + 1 ns (integer bucketing), where
// kRelativeError = 1/64 is half a sub-bucket over its power-of-two edge.
TEST(LatencyHistogram, PercentilesWithinStatedBoundOfExactSort) {
    ASSERT_DOUBLE_EQ(LatencyHistogram::kRelativeError, 1.0 / 64.0);
    std::mt19937_64 rng(2026);
    std::lognormal_distribution<double> lat(std::log(1e5), 1.5);
    std::vector<double> v(100000);
    LatencyHistogram h;
    for (double& x : v) {
        x = lat(rng);
        h.add(x);
    }
    EXPECT_EQ(h.count(), v.size());
    for (const double pct : {50.0, 99.0}) {
        const double exact = exact_percentile(v, pct);
        const double bound = LatencyHistogram::kRelativeError * exact + 1.0;
        EXPECT_NEAR(h.percentile(pct), exact, bound) << "p" << pct;
    }
    // The extremes are tracked exactly.
    EXPECT_EQ(h.percentile(0.0), *std::min_element(v.begin(), v.end()));
    EXPECT_EQ(h.percentile(100.0), *std::max_element(v.begin(), v.end()));
}

TEST(LatencyHistogram, SmallValuesAreExact) {
    LatencyHistogram h;
    for (int i = 0; i < 32; ++i) h.add(static_cast<double>(i));
    EXPECT_EQ(h.percentile(50.0), 15.0);  // rank floor(0.5 * 31) = 15
    h.add(-5.0);                          // negative latencies count as 0
    EXPECT_EQ(h.percentile(0.0), 0.0);
}

}  // namespace
