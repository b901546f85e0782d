#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/persist/codec.h"
#include "src/util/status.h"

namespace cloudcache {
namespace obs {

/// Constant-memory, mergeable latency histogram over positive values.
///
/// Buckets are log2-spaced: every octave [2^e, 2^(e+1)) for
/// e in [kMinExponent, kMaxExponent) is split into kSubBuckets
/// equal-width linear sub-buckets, giving a worst-case relative error of
/// 1/kSubBuckets (~3%) per recorded value — far below the run-to-run
/// noise of the simulated workloads — at a fixed 15 KiB of counters.
///
/// Everything about the histogram is deterministic and platform-stable:
/// bucket indices come from the value's IEEE-754 exponent and mantissa
/// (frexp), never from std::log, so the same double always lands in the
/// same bucket and counts are integers. That is what lets p50/p95/p99 be
/// pinned bit-identical across repeats, restores and sweep thread
/// counts.
///
/// Values below 2^kMinExponent (≈ 1 ns) or non-positive land in the
/// underflow counter; values at or above 2^kMaxExponent (≈ 34 yr) in the
/// overflow counter. Exact min/max/sum/count ride alongside the buckets,
/// so Quantile(0)/Quantile(1) are exact and interpolated quantiles can be
/// clamped into the observed range.
class Histogram {
 public:
  static constexpr int kMinExponent = -30;
  static constexpr int kMaxExponent = 30;
  static constexpr int kSubBuckets = 32;
  static constexpr size_t kNumBuckets =
      static_cast<size_t>(kMaxExponent - kMinExponent) * kSubBuckets;

  Histogram() : buckets_(kNumBuckets, 0) {}

  /// Records one observation.
  void Add(double x);

  /// Value at quantile q in [0, 1]; 0 if empty. q=0 returns the exact
  /// min, q=1 the exact max; interior quantiles interpolate linearly
  /// within the covering bucket and are clamped into [min, max].
  /// Underflowed samples contribute at min, overflowed at max.
  double Quantile(double q) const;

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  uint64_t underflow() const { return underflow_; }
  uint64_t overflow() const { return overflow_; }
  const std::vector<uint64_t>& buckets() const { return buckets_; }

  /// Bucket geometry, exposed for tests and exposition: the bucket a
  /// value lands in and a bucket's half-open [lower, upper) range. Index
  /// must be < kNumBuckets; BucketIndex requires a value inside the
  /// covered range (callers route under/overflow first, as Add does).
  static size_t BucketIndex(double x);
  static double BucketLower(size_t index);
  static double BucketUpper(size_t index);

  /// Serializes the complete state (sparse: only non-zero buckets) /
  /// restores it bit for bit, including the ±inf min/max of an empty
  /// histogram.
  void SaveState(persist::Encoder* enc) const;
  Status RestoreState(persist::Decoder* dec);

  /// Exact state equality, double bits included — the test harness's
  /// definition of "the same histogram".
  friend bool BitIdentical(const Histogram& a, const Histogram& b);

 private:
  /// The snapshot header: the counts, sum, min and max. The sparse
  /// buckets follow it, hand-laid by SaveState/RestoreState.
  template <typename Codec, typename Self>
  static void HeaderFields(Codec& c, Self& self);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t underflow_ = 0;
  uint64_t overflow_ = 0;
  double sum_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

bool BitIdentical(const Histogram& a, const Histogram& b);

}  // namespace obs
}  // namespace cloudcache
