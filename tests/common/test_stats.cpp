#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"

namespace impress::common {
namespace {

TEST(Mean, EmptyIsZero) { EXPECT_EQ(mean({}), 0.0); }

TEST(Mean, SimpleAverage) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stddev, FewerThanTwoIsZero) {
  EXPECT_EQ(stddev({}), 0.0);
  const std::vector<double> one{5.0};
  EXPECT_EQ(stddev(one), 0.0);
}

TEST(Stddev, KnownSample) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Sample stddev (n-1): sqrt(32/7).
  EXPECT_NEAR(stddev(xs), 2.13809, 1e-4);
}

TEST(Stddev, ConstantSampleIsZero) {
  const std::vector<double> xs{3.0, 3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(stddev(xs), 0.0);
}

TEST(Median, OddCount) {
  const std::vector<double> xs{9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(median(xs), 5.0);
}

TEST(Median, EvenCountAveragesMiddle) {
  const std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
}

TEST(Median, DoesNotMutateInput) {
  const std::vector<double> xs{3.0, 1.0, 2.0};
  (void)median(xs);
  EXPECT_EQ(xs[0], 3.0);
  EXPECT_EQ(xs[1], 1.0);
}

TEST(MedianSorted, EmptySingleOddEven) {
  EXPECT_EQ(median_sorted({}), 0.0);
  const std::vector<double> one{-2.5};
  EXPECT_EQ(median_sorted(one), -2.5);
  const std::vector<double> odd{-3.0, 0.5, 7.0};
  EXPECT_EQ(median_sorted(odd), 0.5);
  const std::vector<double> even{-4.0, 1.0, 2.0, 9.0};
  EXPECT_EQ(median_sorted(even), 1.5);
}

TEST(MedianSorted, MatchesMedianOfUnsortedInputBitForBit) {
  // Callers that keep their sample sorted (the coordinator's design pool)
  // must get exactly the double median() returns for the same multiset in
  // any order: EXPECT_EQ, not EXPECT_DOUBLE_EQ. Small integers times 0.1
  // give duplicates, negatives and inexact even-n midpoints.
  Rng rng(7);
  for (std::size_t n = 0; n < 40; ++n) {
    std::vector<double> xs;
    for (std::size_t i = 0; i < n; ++i)
      xs.push_back(static_cast<double>(rng.below(9)) * 0.1 - 0.4);
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(median_sorted(sorted), median(xs)) << "n=" << n;
  }
}

TEST(Percentile, Endpoints) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 75.0), 7.5);
}

TEST(Percentile, ClampsOutOfRangeP) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(xs, -10.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 200.0), 3.0);
}

TEST(MinMax, EmptyIsZero) {
  EXPECT_EQ(min_of({}), 0.0);
  EXPECT_EQ(max_of({}), 0.0);
}

TEST(MinMax, FindsExtremes) {
  const std::vector<double> xs{3.0, -2.0, 7.0, 0.0};
  EXPECT_DOUBLE_EQ(min_of(xs), -2.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 7.0);
}

TEST(Summarize, ConsistentFields) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  const auto s = summarize(xs);
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p25, 2.0);
  EXPECT_DOUBLE_EQ(s.p75, 4.0);
}

TEST(Summarize, EmptyIsAllZero) {
  const auto s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.median, 0.0);
}

TEST(NetDeltaPct, Basics) {
  EXPECT_DOUBLE_EQ(net_delta_pct(10.0, 15.0), 50.0);
  EXPECT_DOUBLE_EQ(net_delta_pct(10.0, 5.0), -50.0);
  EXPECT_DOUBLE_EQ(net_delta_pct(-10.0, -5.0), 50.0);
  EXPECT_DOUBLE_EQ(net_delta_pct(0.0, 5.0), 0.0);  // documented guard
}

TEST(Pearson, PerfectCorrelation) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> ys{2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
}

TEST(Pearson, PerfectAntiCorrelation) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const std::vector<double> ys{3.0, 2.0, 1.0};
  EXPECT_NEAR(pearson(xs, ys), -1.0, 1e-12);
}

TEST(Pearson, DegenerateInputsGiveZero) {
  const std::vector<double> xs{1.0, 1.0, 1.0};
  const std::vector<double> ys{1.0, 2.0, 3.0};
  EXPECT_EQ(pearson(xs, ys), 0.0);  // constant side
  const std::vector<double> shorter{1.0};
  EXPECT_EQ(pearson(shorter, shorter), 0.0);  // n < 2
  EXPECT_EQ(pearson(xs, shorter), 0.0);       // length mismatch
}

TEST(BootstrapMedianCi, ContainsTheMedian) {
  std::vector<double> xs;
  for (int i = 0; i < 50; ++i) xs.push_back(static_cast<double>(i));
  const auto ci = bootstrap_median_ci(xs, 0.95, 500, 1);
  const double m = median(xs);
  EXPECT_LE(ci.lo, m);
  EXPECT_GE(ci.hi, m);
  EXPECT_LT(ci.lo, ci.hi);
}

TEST(BootstrapMedianCi, TinySampleCollapses) {
  const std::vector<double> xs{7.0};
  const auto ci = bootstrap_median_ci(xs);
  EXPECT_EQ(ci.lo, 7.0);
  EXPECT_EQ(ci.hi, 7.0);
}

TEST(BootstrapMedianCi, DeterministicInSeed) {
  std::vector<double> xs{1, 5, 3, 8, 2, 9, 4, 7, 6, 0};
  const auto a = bootstrap_median_ci(xs, 0.9, 300, 77);
  const auto b = bootstrap_median_ci(xs, 0.9, 300, 77);
  EXPECT_EQ(a.lo, b.lo);
  EXPECT_EQ(a.hi, b.hi);
}

TEST(FormatFixed, RendersDecimals) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(-0.5, 1), "-0.5");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
}

// Property: percentile is monotone in p for any sample.
class PercentileMonotone : public ::testing::TestWithParam<int> {};

TEST_P(PercentileMonotone, MonotoneInP) {
  std::vector<double> xs;
  // Deterministic pseudo-sample from the parameter.
  unsigned state = static_cast<unsigned>(GetParam()) * 2654435761u + 1u;
  for (int i = 0; i < 37; ++i) {
    state = state * 1664525u + 1013904223u;
    xs.push_back(static_cast<double>(state % 1000) / 10.0);
  }
  double prev = percentile(xs, 0.0);
  for (int p = 5; p <= 100; p += 5) {
    const double cur = percentile(xs, static_cast<double>(p));
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Samples, PercentileMonotone,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace impress::common
