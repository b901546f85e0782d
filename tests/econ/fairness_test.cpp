#include "src/econ/fairness.h"

#include <gtest/gtest.h>

#include "src/sim/metrics.h"

namespace cloudcache {
namespace {

TEST(JainsIndexTest, UniformAllocationIsPerfectlyFair) {
  EXPECT_DOUBLE_EQ(JainsIndex({5.0, 5.0, 5.0, 5.0}), 1.0);
  EXPECT_DOUBLE_EQ(JainsIndex({0.25}), 1.0);
}

TEST(JainsIndexTest, MonopolyIsOneOverN) {
  // One tenant holds everything: J = x^2 / (4 * x^2) = 1/4.
  EXPECT_DOUBLE_EQ(JainsIndex({8.0, 0.0, 0.0, 0.0}), 0.25);
  EXPECT_DOUBLE_EQ(JainsIndex({0.0, 3.0}), 0.5);
}

TEST(JainsIndexTest, HandComputedMixedAllocation) {
  // (1+2+3)^2 / (3 * (1+4+9)) = 36/42 = 6/7.
  EXPECT_DOUBLE_EQ(JainsIndex({1.0, 2.0, 3.0}), 6.0 / 7.0);
  // (4+2)^2 / (2 * (16+4)) = 36/40 = 0.9.
  EXPECT_DOUBLE_EQ(JainsIndex({4.0, 2.0}), 0.9);
}

TEST(JainsIndexTest, DegenerateInputsAreTriviallyFair) {
  EXPECT_DOUBLE_EQ(JainsIndex({}), 1.0);
  EXPECT_DOUBLE_EQ(JainsIndex({0.0, 0.0, 0.0}), 1.0);
}

TEST(MaxMinShareTest, UniformIsOne) {
  EXPECT_DOUBLE_EQ(MaxMinShare({2.0, 2.0, 2.0}), 1.0);
  EXPECT_DOUBLE_EQ(MaxMinShare({7.5}), 1.0);
}

TEST(MaxMinShareTest, StarvedTenantIsZero) {
  EXPECT_DOUBLE_EQ(MaxMinShare({6.0, 0.0, 3.0}), 0.0);
}

TEST(MaxMinShareTest, HandComputedWorstOffShare) {
  // min 1, mean 2 -> the worst-off tenant gets half the fair share.
  EXPECT_DOUBLE_EQ(MaxMinShare({1.0, 2.0, 3.0}), 0.5);
}

TEST(MaxMinShareTest, DegenerateInputsAreTriviallyFair) {
  EXPECT_DOUBLE_EQ(MaxMinShare({}), 1.0);
  EXPECT_DOUBLE_EQ(MaxMinShare({0.0, 0.0}), 1.0);
}

TEST(MaxMinShareLowerBetterTest, TracksTheWorstOffLatency) {
  // Uniform latencies are fair; a single dominated tenant drags the
  // share toward 1/n, in the same direction as Jain's index (the plain
  // min/mean form would move the other way for lower-is-better values).
  EXPECT_DOUBLE_EQ(MaxMinShareLowerBetter({2.0, 2.0, 2.0}), 1.0);
  EXPECT_DOUBLE_EQ(MaxMinShareLowerBetter({7.5}), 1.0);
  // mean 32.5, max 100: the starved-tenant run scores low...
  EXPECT_DOUBLE_EQ(MaxMinShareLowerBetter({10.0, 10.0, 10.0, 100.0}),
                   32.5 / 100.0);
  // ...and lower than the favored-tenant run (mean 7.75, max 10).
  EXPECT_LT(MaxMinShareLowerBetter({10.0, 10.0, 10.0, 100.0}),
            MaxMinShareLowerBetter({1.0, 10.0, 10.0, 10.0}));
}

TEST(MaxMinShareLowerBetterTest, DegenerateInputsAreTriviallyFair) {
  EXPECT_DOUBLE_EQ(MaxMinShareLowerBetter({}), 1.0);
  EXPECT_DOUBLE_EQ(MaxMinShareLowerBetter({0.0, 0.0}), 1.0);
}

TEST(NormalizedBreadthTest, SpansZeroToOne) {
  // Monopoly: J = 1/n -> breadth 0; uniform: J = 1 -> breadth 1.
  EXPECT_DOUBLE_EQ(NormalizedBreadth({9.0, 0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedBreadth({3.0, 3.0, 3.0}), 1.0);
  // {1,2,3}: J = 6/7 -> (3 * 6/7 - 1) / 2 = 11/14.
  EXPECT_DOUBLE_EQ(NormalizedBreadth({1.0, 2.0, 3.0}), 11.0 / 14.0);
}

TEST(NormalizedBreadthTest, SingleBackerAndNoMassAreConcentrated) {
  EXPECT_DOUBLE_EQ(NormalizedBreadth({}), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedBreadth({4.0}), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedBreadth({0.0, 0.0}), 0.0);
}

TEST(ComputeFairnessTest, SingleTenantMatchesDefaultReport) {
  // A one-tenant run must compute exactly the defaults a classic run
  // carries, or the --tenants=1 bit-for-bit equivalence would break.
  std::vector<TenantMetrics> tenants(1);
  tenants[0].response_hist.Add(0.5);
  tenants[0].operating_cost.cpu_dollars = 3.25;
  const FairnessReport report = ComputeFairness(tenants);
  const FairnessReport defaults;
  EXPECT_EQ(report.response_jain, defaults.response_jain);
  EXPECT_EQ(report.response_max_min, defaults.response_max_min);
  EXPECT_EQ(report.billed_jain, defaults.billed_jain);
  EXPECT_EQ(report.billed_max_min, defaults.billed_max_min);
}

TEST(ComputeFairnessTest, HandBuiltSlices) {
  std::vector<TenantMetrics> tenants(2);
  // Mean responses 1.0 and 3.0; billed dollars 4.0 and 2.0.
  tenants[0].response_hist.Add(1.0);
  tenants[1].response_hist.Add(3.0);
  tenants[0].operating_cost.network_dollars = 4.0;
  tenants[1].operating_cost.io_dollars = 2.0;
  const FairnessReport report = ComputeFairness(tenants);
  // (1+3)^2 / (2*(1+9)) = 16/20.
  EXPECT_DOUBLE_EQ(report.response_jain, 0.8);
  // Lower-is-better share: mean 2 / max 3.
  EXPECT_DOUBLE_EQ(report.response_max_min, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(report.billed_jain, 0.9);
  // min 2, mean 3.
  EXPECT_DOUBLE_EQ(report.billed_max_min, 2.0 / 3.0);
}

}  // namespace
}  // namespace cloudcache
