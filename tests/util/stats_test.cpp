#include "src/util/stats.h"

#include <gtest/gtest.h>

namespace cloudcache {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.Add(5.0);
  EXPECT_EQ(s.count(), 1);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
  EXPECT_EQ(s.sum(), 5.0);
}

TEST(RunningStatsTest, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // Unbiased.
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, StableOverManySamples) {
  RunningStats s;
  for (int i = 0; i < 1'000'000; ++i) s.Add(1e9 + (i % 2));
  EXPECT_NEAR(s.mean(), 1e9 + 0.5, 1e-3);
  EXPECT_NEAR(s.variance(), 0.25, 1e-6);
}

TEST(TimeSeriesTest, AppendsAndReads) {
  TimeSeries ts;
  ts.Add(0.0, 1.0);
  ts.Add(1.0, 2.0);
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts.Last(), 2.0);
  EXPECT_EQ(ts.times()[0], 0.0);
  EXPECT_EQ(ts.values()[1], 2.0);
}

TEST(TimeSeriesTest, EmptyLastIsZero) {
  TimeSeries ts;
  EXPECT_EQ(ts.Last(), 0.0);
}

TEST(TimeSeriesTest, DownsampleKeepsEndpoints) {
  TimeSeries ts;
  for (int i = 0; i < 1000; ++i) ts.Add(i, i * 2.0);
  TimeSeries down = ts.Downsample(10);
  EXPECT_EQ(down.size(), 10u);
  EXPECT_EQ(down.times().front(), 0.0);
  EXPECT_EQ(down.times().back(), 999.0);
  EXPECT_EQ(down.values().back(), 1998.0);
}

TEST(TimeSeriesTest, DownsampleNoOpWhenSmall) {
  TimeSeries ts;
  ts.Add(0, 1);
  ts.Add(1, 2);
  EXPECT_EQ(ts.Downsample(10).size(), 2u);
}

}  // namespace
}  // namespace cloudcache
