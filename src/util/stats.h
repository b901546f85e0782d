#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace cloudcache {

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// Numerically stable over millions of samples; used for per-template
/// statistics in the examples.
class RunningStats {
 public:
  /// Adds one observation.
  void Add(double x);

  int64_t count() const { return count_; }
  /// Mean of the observations; 0 if empty.
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 with fewer than two observations.
  double variance() const;
  /// sqrt(variance()).
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  int64_t count_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double sum_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// (time, value) series with down-sampling for reports.
class TimeSeries {
 public:
  /// Appends a point; times must be non-decreasing.
  void Add(double time, double value);

  size_t size() const { return times_.size(); }
  const std::vector<double>& times() const { return times_; }
  const std::vector<double>& values() const { return values_; }

  /// Last value, or 0 if empty.
  double Last() const { return values_.empty() ? 0.0 : values_.back(); }

  /// Keeps the points at even positions (the first among them) and drops
  /// the rest, halving the series in place.
  void KeepEveryOther();

  /// At most `max_points` evenly-spaced-by-index points, keeping first and
  /// last. Returns the whole series if it is already small enough.
  TimeSeries Downsample(size_t max_points) const;

  /// The snapshot field list (src/persist/codec.h): the point count,
  /// every time, then every value.
  template <typename Codec, typename Self>
  static void Fields(Codec& c, Self& self) {
    uint64_t size = self.times_.size();
    c.Length(size);
    if constexpr (Codec::kDecoding) {
      if (!c.ok()) return;
      self.times_.resize(size);
      self.values_.resize(size);
    }
    for (auto& time : self.times_) c.F64(time);
    for (auto& value : self.values_) c.F64(value);
  }

 private:
  std::vector<double> times_;
  std::vector<double> values_;
};

}  // namespace cloudcache
