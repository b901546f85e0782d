#include "src/obs/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace cloudcache {
namespace obs {

namespace {
// Covered value range, as exact powers of two (hex-float literals keep
// them compile-time constants without relying on a constexpr ldexp).
constexpr double kMinValue = 0x1p-30;
constexpr double kMaxValue = 0x1p+30;
}  // namespace

size_t Histogram::BucketIndex(double x) {
  // x = f * 2^e with f in [0.5, 1): the octave is e-1, and f*64 - 32 is
  // the exact linear position within it scaled to [0, 32). All arithmetic
  // is power-of-two multiplies and integer truncation — no transcendental
  // calls, so every platform buckets every double identically.
  int e = 0;
  const double f = std::frexp(x, &e);
  const int octave = (e - 1) - kMinExponent;
  int sub = static_cast<int>(f * 64.0 - 32.0);
  if (sub > kSubBuckets - 1) sub = kSubBuckets - 1;
  return static_cast<size_t>(octave) * kSubBuckets +
         static_cast<size_t>(sub);
}

double Histogram::BucketLower(size_t index) {
  const int octave = static_cast<int>(index) / kSubBuckets;
  const int sub = static_cast<int>(index) % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets,
                    kMinExponent + octave);
}

double Histogram::BucketUpper(size_t index) {
  const int octave = static_cast<int>(index) / kSubBuckets;
  const int sub = static_cast<int>(index) % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub + 1) / kSubBuckets,
                    kMinExponent + octave);
}

void Histogram::Add(double x) {
  if (x < 0) x = 0;
  ++count_;
  sum_ += x;
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
  if (x < kMinValue) {
    ++underflow_;
  } else if (x >= kMaxValue) {
    ++overflow_;
  } else {
    ++buckets_[BucketIndex(x)];
  }
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q == 0.0) return min_;
  if (q == 1.0) return max_;
  const double target = q * static_cast<double>(count_);
  // Underflowed samples sit below every bucket; they contribute at the
  // exact minimum (which is where they were observed, give or take less
  // than a nanosecond).
  double cum = static_cast<double>(underflow_);
  if (target <= cum) return min_;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    const uint64_t n = buckets_[i];
    if (n == 0) continue;
    const double next = cum + static_cast<double>(n);
    if (next >= target) {
      const double frac = (target - cum) / static_cast<double>(n);
      const double lower = BucketLower(i);
      const double value = lower + frac * (BucketUpper(i) - lower);
      return std::clamp(value, min_, max_);
    }
    cum = next;
  }
  return max_;
}

template <typename Codec, typename Self>
void Histogram::HeaderFields(Codec& c, Self& self) {
  c.U64(self.count_);
  c.U64(self.underflow_);
  c.U64(self.overflow_);
  c.F64(self.sum_);
  c.F64(self.min_);
  c.F64(self.max_);
}

void Histogram::SaveState(persist::Encoder* enc) const {
  HeaderFields(*enc, *this);
  // Sparse bucket encoding: latency histograms of a run occupy a handful
  // of octaves, so (index, count) pairs keep snapshots small.
  uint64_t nonzero = 0;
  for (uint64_t b : buckets_) nonzero += b != 0 ? 1 : 0;
  enc->Length(nonzero);
  for (uint32_t i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    enc->U32(i);
    enc->U64(buckets_[i]);
  }
}

Status Histogram::RestoreState(persist::Decoder* dec) {
  Histogram fresh;
  HeaderFields(*dec, fresh);
  uint64_t nonzero = 0;
  dec->Length(nonzero);
  CLOUDCACHE_RETURN_IF_ERROR(dec->status());
  uint64_t in_buckets = 0;
  uint32_t prev = 0;
  for (uint64_t k = 0; k < nonzero; ++k) {
    uint32_t index = 0;
    uint64_t value = 0;
    dec->U32(index);
    dec->U64(value);
    CLOUDCACHE_RETURN_IF_ERROR(dec->status());
    if (index >= kNumBuckets || value == 0 || (k > 0 && index <= prev)) {
      return Status::InvalidArgument(
          "corrupt histogram bucket entry in snapshot");
    }
    fresh.buckets_[index] = value;
    in_buckets += value;
    prev = index;
  }
  if (in_buckets + fresh.underflow_ + fresh.overflow_ != fresh.count_) {
    return Status::InvalidArgument(
        "histogram bucket counts do not sum to the sample count");
  }
  *this = std::move(fresh);
  return Status::OK();
}

bool BitIdentical(const Histogram& a, const Histogram& b) {
  const auto bits = [](double x) {
    uint64_t v = 0;
    std::memcpy(&v, &x, sizeof(v));
    return v;
  };
  return a.buckets_ == b.buckets_ && a.count_ == b.count_ &&
         a.underflow_ == b.underflow_ && a.overflow_ == b.overflow_ &&
         bits(a.sum_) == bits(b.sum_) && bits(a.min_) == bits(b.min_) &&
         bits(a.max_) == bits(b.max_);
}

}  // namespace obs
}  // namespace cloudcache
