#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "tests/testing/gaussian.h"

namespace cloudcache {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDifferentStreams) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanIsHalf) {
  Rng rng(11);
  double sum = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NextBoundedStaysInBound) {
  Rng rng(5);
  for (uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBounded(bound), bound);
  }
}

TEST(RngTest, NextBoundedCoversAllResidues) {
  Rng rng(9);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10'000; ++i) ++seen[rng.NextBounded(10)];
  for (int count : seen) EXPECT_GT(count, 800);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(17);
  double sum = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.15);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(29);
  double sum = 0, sq = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    const double x = testing::NextGaussian(rng);
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, ForkIsIndependentOfParentConsumption) {
  Rng parent(31);
  Rng fork_before = parent.Fork(1);
  parent.Next();
  parent.Next();
  Rng fork_after = parent.Fork(1);
  // Forking does not depend on how much the parent has consumed.
  EXPECT_EQ(fork_before.Next(), fork_after.Next());
}

TEST(RngTest, ForksWithDifferentIdsDiffer) {
  Rng parent(31);
  Rng a = parent.Fork(1);
  Rng b = parent.Fork(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(ZipfTest, UniformWhenSkewZero) {
  ZipfSampler zipf(10, 0.0);
  Rng rng(37);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50'000; ++i) ++counts[zipf.Sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, 5000, 600);
}

TEST(ZipfTest, PmfSumsToOne) {
  for (double skew : {0.5, 1.0, 1.5}) {
    ZipfSampler zipf(100, skew);
    double sum = 0;
    for (uint64_t r = 0; r < 100; ++r) sum += zipf.Pmf(r);
    EXPECT_NEAR(sum, 1.0, 1e-9) << "skew=" << skew;
  }
}

TEST(ZipfTest, RankZeroIsMostPopular) {
  ZipfSampler zipf(50, 1.0);
  Rng rng(41);
  std::vector<int> counts(50, 0);
  for (int i = 0; i < 100'000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[10], counts[49]);
}

TEST(ZipfTest, EmpiricalMatchesPmf) {
  ZipfSampler zipf(20, 1.2);
  Rng rng(43);
  std::vector<int> counts(20, 0);
  const int n = 200'000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(rng)];
  for (uint64_t r = 0; r < 20; ++r) {
    const double expected = zipf.Pmf(r) * n;
    EXPECT_NEAR(counts[r], expected, 5 * std::sqrt(expected) + 20)
        << "rank " << r;
  }
}

TEST(ZipfTest, SingleElementAlwaysZero) {
  ZipfSampler zipf(1, 1.0);
  Rng rng(47);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.Sample(rng), 0u);
}

class ZipfSkewSweep : public ::testing::TestWithParam<double> {};

TEST_P(ZipfSkewSweep, SamplesStayInRange) {
  ZipfSampler zipf(1000, GetParam());
  Rng rng(53);
  for (int i = 0; i < 20'000; ++i) EXPECT_LT(zipf.Sample(rng), 1000u);
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfSkewSweep,
                         ::testing::Values(0.0, 0.2, 0.5, 0.8, 0.99, 1.0,
                                           1.01, 1.5, 2.0, 3.0));

TEST(DiscreteSamplerTest, RespectsWeights) {
  DiscreteSampler sampler({1.0, 3.0, 6.0});
  Rng rng(59);
  std::vector<int> counts(3, 0);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) ++counts[sampler.Sample(rng)];
  EXPECT_NEAR(counts[0], n * 0.1, n * 0.01);
  EXPECT_NEAR(counts[1], n * 0.3, n * 0.015);
  EXPECT_NEAR(counts[2], n * 0.6, n * 0.015);
}

TEST(DiscreteSamplerTest, ZeroWeightNeverSampled) {
  DiscreteSampler sampler({0.0, 1.0});
  Rng rng(61);
  for (int i = 0; i < 10'000; ++i) EXPECT_EQ(sampler.Sample(rng), 1u);
}

TEST(DiscreteSamplerTest, SingleBucket) {
  DiscreteSampler sampler({5.0});
  Rng rng(67);
  EXPECT_EQ(sampler.Sample(rng), 0u);
}

}  // namespace
}  // namespace cloudcache
