#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cloudcache {

/// Deterministic 64-bit PRNG (xoshiro256**), seeded via splitmix64.
///
/// The standard-library engines are not guaranteed bit-identical across
/// implementations; simulations in this library must replay exactly from a
/// seed on any platform, so we carry our own generator and our own
/// distribution transforms.
class Rng {
 public:
  /// Seeds the four-word state by iterating splitmix64 over `seed`.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1) with 53 random bits.
  double NextDouble();

  /// Uniform integer in [0, bound), bias-free (Lemire rejection).
  /// `bound` must be >= 1.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [lo, hi).
  double NextUniform(double lo, double hi);

  /// Exponentially distributed value with the given mean (> 0). Used for
  /// Poisson arrival processes.
  double NextExponential(double mean);

  /// True with probability p (clamped to [0, 1]).
  bool NextBernoulli(double p);

  /// Forks an independent stream: deterministic function of this stream's
  /// seed lineage and `stream_id`, without consuming this stream's output.
  Rng Fork(uint64_t stream_id) const;

  /// Copies the raw generator state (four xoshiro words + the retained
  /// seed) for checkpointing. A generator restored from these words
  /// continues the stream exactly where the saved one left off.
  void SaveState(uint64_t out[5]) const;
  void RestoreState(const uint64_t in[5]);

 private:
  uint64_t state_[4];
  uint64_t seed_;  // Retained for Fork().
};

/// splitmix64 mix of (seed, stream): deterministic, and far apart for
/// adjacent streams so derived streams do not correlate. This is the seed
/// discipline shared by the sweep engine (per-cell seeds) and the
/// multi-tenant simulator (per-tenant seeds): derived seed = pure function
/// of (base seed, index), so results are bit-identical regardless of
/// thread count or evaluation order.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

/// Zipf(N, s) sampler over ranks {0, .., n-1} using the Gray/Jakobsson
/// rejection-inversion method; O(1) per sample after O(1) setup, exact for
/// any skew s >= 0 (s = 0 degenerates to uniform).
class ZipfSampler {
 public:
  /// `n` must be >= 1; `skew` must be >= 0.
  ZipfSampler(uint64_t n, double skew);

  /// Draws a rank in [0, n); rank 0 is the most popular.
  uint64_t Sample(Rng& rng) const;

  uint64_t n() const { return n_; }
  double skew() const { return skew_; }

  /// Exact probability mass of `rank` (for tests).
  double Pmf(uint64_t rank) const;

 private:
  double HIntegral(double x) const;
  double HIntegralInverse(double x) const;
  double H(double x) const;

  uint64_t n_;
  double skew_;
  double h_integral_x1_;
  double h_integral_n_;
  double s_;
  double harmonic_;  // Normalization constant for Pmf().
};

/// Weighted discrete sampler (alias method): O(n) build, O(1) sample.
class DiscreteSampler {
 public:
  /// Weights must be non-negative with a positive sum.
  explicit DiscreteSampler(const std::vector<double>& weights);

  /// Draws an index in [0, weights.size()).
  size_t Sample(Rng& rng) const;

  size_t size() const { return prob_.size(); }

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
};

}  // namespace cloudcache
