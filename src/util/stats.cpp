#include "src/util/stats.h"

#include <algorithm>
#include <cmath>

namespace cloudcache {

void RunningStats::Add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void TimeSeries::Add(double time, double value) {
  times_.push_back(time);
  values_.push_back(value);
}

void TimeSeries::KeepEveryOther() {
  size_t kept = 0;
  for (size_t i = 0; i < times_.size(); i += 2, ++kept) {
    times_[kept] = times_[i];
    values_[kept] = values_[i];
  }
  times_.resize(kept);
  values_.resize(kept);
}

TimeSeries TimeSeries::Downsample(size_t max_points) const {
  TimeSeries out;
  const size_t n = times_.size();
  if (n <= max_points || max_points < 2) {
    out.times_ = times_;
    out.values_ = values_;
    return out;
  }
  for (size_t k = 0; k < max_points; ++k) {
    const size_t i = k * (n - 1) / (max_points - 1);
    out.Add(times_[i], values_[i]);
  }
  return out;
}

}  // namespace cloudcache
