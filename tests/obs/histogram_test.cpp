#include "src/obs/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/persist/codec.h"
#include "src/util/rng.h"

namespace cloudcache::obs {
namespace {

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.Quantile(0.0), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.Quantile(1.0), 0.0);
}

TEST(HistogramTest, BucketBoundariesAreHalfOpenPowersOfTwo) {
  // Each octave [2^e, 2^(e+1)) splits into kSubBuckets linear pieces.
  // Pin the geometry at a handful of hand-computable points.
  const size_t first = Histogram::BucketIndex(1.0);  // 2^0 exactly.
  EXPECT_EQ(Histogram::BucketLower(first), 1.0);
  EXPECT_EQ(Histogram::BucketUpper(first),
            1.0 + 1.0 / Histogram::kSubBuckets);

  // A value just below an octave edge lands in the previous octave's
  // last sub-bucket; the edge itself opens the next octave.
  const double below = std::nextafter(2.0, 0.0);
  EXPECT_EQ(Histogram::BucketIndex(below) + 1, Histogram::BucketIndex(2.0));
  EXPECT_EQ(Histogram::BucketUpper(Histogram::BucketIndex(below)), 2.0);
  EXPECT_EQ(Histogram::BucketLower(Histogram::BucketIndex(2.0)), 2.0);

  // Every bucket's [lower, upper) actually contains the values that
  // index into it: lower maps to the bucket, upper maps to the next.
  for (size_t i = 0; i < Histogram::kNumBuckets; i += 97) {
    const double lower = Histogram::BucketLower(i);
    EXPECT_EQ(Histogram::BucketIndex(lower), i) << "bucket " << i;
    if (i + 1 < Histogram::kNumBuckets) {
      EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketUpper(i)), i + 1)
          << "bucket " << i;
    }
  }
}

TEST(HistogramTest, BucketRelativeErrorIsBounded) {
  // The worst-case relative width of any bucket is 1/kSubBuckets: a
  // reported quantile can never be further than that from the recorded
  // value.
  Rng rng(11);
  for (int i = 0; i < 10'000; ++i) {
    const double x = std::exp(rng.NextGaussian() * 3);  // Spans octaves.
    const size_t index = Histogram::BucketIndex(x);
    const double lower = Histogram::BucketLower(index);
    const double upper = Histogram::BucketUpper(index);
    ASSERT_LE(lower, x);
    ASSERT_LT(x, upper);
    EXPECT_LE((upper - lower) / lower, 1.0 / Histogram::kSubBuckets + 1e-12);
  }
}

TEST(HistogramTest, ExactExtremesAndMoments) {
  Histogram h;
  for (double x : {0.5, 2.0, 8.0, 0.25}) h.Add(x);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.min(), 0.25);
  EXPECT_EQ(h.max(), 8.0);
  EXPECT_DOUBLE_EQ(h.sum(), 10.75);
  EXPECT_DOUBLE_EQ(h.mean(), 10.75 / 4);
  EXPECT_EQ(h.Quantile(0.0), 0.25);
  EXPECT_EQ(h.Quantile(1.0), 8.0);
}

TEST(HistogramTest, QuantileInterpolatesWithinTheCoveringBucket) {
  // 100 identical values in one bucket: every interior quantile must
  // stay inside that bucket (clamped into [min, max]).
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Add(3.0);
  EXPECT_EQ(h.Quantile(0.5), 3.0);
  EXPECT_EQ(h.Quantile(0.99), 3.0);

  // Two well-separated spikes: the median interpolates inside the lower
  // spike's bucket, p99 inside the upper one's — never in between.
  Histogram two;
  for (int i = 0; i < 90; ++i) two.Add(1.0);
  for (int i = 0; i < 10; ++i) two.Add(1024.0);
  const double p50 = two.Quantile(0.5);
  EXPECT_GE(p50, 1.0);
  EXPECT_LT(p50, 1.0 + 1.0 / Histogram::kSubBuckets);
  EXPECT_EQ(two.Quantile(0.99), 1024.0);  // Clamped to the exact max.
  // Monotone in q.
  double prev = two.Quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = two.Quantile(q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(HistogramTest, QuantileTracksExactOrderStatistics) {
  // Against a sorted sample: the histogram quantile must agree with the
  // true order statistic to within one bucket's relative width.
  Rng rng(7);
  Histogram h;
  std::vector<double> values;
  for (int i = 0; i < 20'000; ++i) {
    const double x = std::exp(rng.NextGaussian());
    values.push_back(x);
    h.Add(x);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.01, 0.25, 0.5, 0.9, 0.95, 0.99}) {
    const double exact =
        values[static_cast<size_t>(q * (values.size() - 1))];
    EXPECT_NEAR(h.Quantile(q), exact,
                exact * 2.5 / Histogram::kSubBuckets)
        << "q=" << q;
  }
}

TEST(HistogramTest, UnderflowAndOverflowAreCounted) {
  Histogram h;
  h.Add(0.0);     // Non-positive -> underflow.
  h.Add(-1.0);    // Clamped to 0 -> underflow.
  h.Add(1e-300);  // Below 2^kMinExponent -> underflow.
  h.Add(1e300);   // Above 2^kMaxExponent -> overflow.
  h.Add(4.0);
  EXPECT_EQ(h.underflow(), 3u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(), 5u);
  // Underflow contributes at min, overflow at max; quantiles stay inside
  // the observed range.
  EXPECT_EQ(h.Quantile(0.0), 0.0);
  EXPECT_EQ(h.Quantile(1.0), 1e300);
}

void ExpectRoundTrips(const Histogram& h) {
  persist::Encoder enc;
  h.SaveState(&enc);
  persist::Decoder dec(enc.buffer().data(), enc.size());
  Histogram restored;
  restored.Add(99.0);  // Restore must overwrite pre-existing state.
  ASSERT_TRUE(restored.RestoreState(&dec).ok());
  EXPECT_TRUE(BitIdentical(restored, h));
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(restored.Quantile(q), h.Quantile(q)) << "q=" << q;
  }
}

TEST(HistogramTest, PersistRoundTripsEveryShape) {
  // Empty (±inf extremes must survive the codec bit for bit).
  ExpectRoundTrips(Histogram());

  // Dense-ish populated histogram.
  Rng rng(5);
  Histogram h;
  for (int i = 0; i < 5'000; ++i) h.Add(std::exp(rng.NextGaussian()));
  ExpectRoundTrips(h);

  // Underflow/overflow counters without any bucketed values.
  Histogram edges;
  edges.Add(0.0);
  edges.Add(1e300);
  ExpectRoundTrips(edges);
}

TEST(HistogramTest, PersistIsSparse) {
  // One observation must not serialize all ~2k buckets: the sparse
  // encoding keeps snapshot growth proportional to occupied buckets.
  Histogram h;
  h.Add(1.0);
  persist::Encoder enc;
  h.SaveState(&enc);
  EXPECT_LT(enc.size(), 200u);
}

TEST(HistogramTest, TruncatedRestoreIsRefused) {
  Histogram h;
  h.Add(1.0);
  h.Add(7.5);
  persist::Encoder enc;
  h.SaveState(&enc);
  for (size_t cut = 0; cut < enc.size(); ++cut) {
    persist::Decoder dec(enc.buffer().data(), cut);
    Histogram out;
    EXPECT_FALSE(out.RestoreState(&dec).ok()) << "cut=" << cut;
  }
}

}  // namespace
}  // namespace cloudcache::obs
