#include "src/util/rng.h"

#include <cassert>
#include <cmath>

namespace cloudcache {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

constexpr uint64_t Rotl(uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 finalizer over the combined words; the golden-ratio stride
  // separates stream 0 from the raw base seed.
  uint64_t state = seed + stream * 0x9e3779b97f4a7c15ull;
  return SplitMix64(state);
}

Rng::Rng(uint64_t seed) : seed_(seed) {
  uint64_t sm = seed;
  for (auto& word : state_) word = SplitMix64(sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  assert(bound >= 1);
  // Lemire's nearly-divisionless method.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t lo = static_cast<uint64_t>(m);
  if (lo < bound) {
    uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  return lo + static_cast<int64_t>(
                  NextBounded(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextUniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextExponential(double mean) {
  assert(mean > 0);
  // 1 - NextDouble() is in (0, 1], so the log is finite.
  return -mean * std::log(1.0 - NextDouble());
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return NextDouble() < p;
}

Rng Rng::Fork(uint64_t stream_id) const {
  // Mix the parent seed with the stream id through splitmix so sibling
  // streams are uncorrelated.
  uint64_t sm = seed_ ^ (0x5851f42d4c957f2dull * (stream_id + 1));
  return Rng(SplitMix64(sm));
}

ZipfSampler::ZipfSampler(uint64_t n, double skew) : n_(n), skew_(skew) {
  assert(n >= 1);
  assert(skew >= 0);
  h_integral_x1_ = HIntegral(1.5) - 1.0;
  h_integral_n_ = HIntegral(static_cast<double>(n) + 0.5);
  s_ = 2.0 - HIntegralInverse(HIntegral(2.5) - H(2.0));
  harmonic_ = 0.0;
  for (uint64_t k = 1; k <= n_; ++k) {
    harmonic_ += std::pow(static_cast<double>(k), -skew_);
  }
}

double ZipfSampler::H(double x) const { return std::pow(x, -skew_); }

double ZipfSampler::HIntegral(double x) const {
  const double log_x = std::log(x);
  // Integral of x^-s: handles s == 1 via the expm1 form, numerically stable
  // for s near 1.
  const double t = log_x * (1.0 - skew_);
  if (std::abs(t) < 1e-8) {
    return log_x * (1.0 + t / 2.0 + t * t / 6.0);
  }
  return std::expm1(t) / (1.0 - skew_);
}

double ZipfSampler::HIntegralInverse(double x) const {
  double t = x * (1.0 - skew_);
  if (t < -1.0) t = -1.0;
  if (std::abs(t) < 1e-8) {
    return std::exp(x * (1.0 - t / 2.0 + t * t / 3.0));
  }
  return std::exp(std::log1p(t) / (1.0 - skew_));
}

uint64_t ZipfSampler::Sample(Rng& rng) const {
  if (n_ == 1) return 0;
  if (skew_ == 0.0) return rng.NextBounded(n_);
  while (true) {
    const double u =
        h_integral_n_ + rng.NextDouble() * (h_integral_x1_ - h_integral_n_);
    const double x = HIntegralInverse(u);
    uint64_t k = static_cast<uint64_t>(x + 0.5);
    if (k < 1) k = 1;
    if (k > n_) k = n_;
    const double kd = static_cast<double>(k);
    if (kd - x <= s_ || u >= HIntegral(kd + 0.5) - H(kd)) {
      return k - 1;  // External interface is 0-based.
    }
  }
}

double ZipfSampler::Pmf(uint64_t rank) const {
  assert(rank < n_);
  return std::pow(static_cast<double>(rank + 1), -skew_) / harmonic_;
}

DiscreteSampler::DiscreteSampler(const std::vector<double>& weights) {
  const size_t n = weights.size();
  assert(n >= 1);
  double total = 0;
  for (double w : weights) {
    assert(w >= 0);
    total += w;
  }
  assert(total > 0);
  prob_.resize(n);
  alias_.resize(n);
  std::vector<double> scaled(n);
  std::vector<uint32_t> small, large;
  for (size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] / total * static_cast<double>(n);
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const uint32_t s = small.back();
    small.pop_back();
    const uint32_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (uint32_t i : large) prob_[i] = 1.0;
  for (uint32_t i : small) prob_[i] = 1.0;  // Numerical leftovers.
}

size_t DiscreteSampler::Sample(Rng& rng) const {
  const size_t n = prob_.size();
  const size_t column = rng.NextBounded(n);
  return rng.NextDouble() < prob_[column] ? column : alias_[column];
}

}  // namespace cloudcache
