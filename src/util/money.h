#pragma once

#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace cloudcache {

/// Exact monetary amount, stored as a signed 64-bit count of micro-dollars
/// (1e-6 USD).
///
/// All account arithmetic in the economy (credit `CR`, regret, profit,
/// amortized charges) is integral so that a simulation of millions of
/// queries accumulates zero floating-point drift and runs are bit-exact
/// reproducible. Rates (e.g. $/GB-month) enter as `double` via FromDollars()
/// and are rounded half-away-from-zero once, at the conversion boundary.
///
/// Range: +/- 9.2 trillion dollars; far beyond anything a cloud account
/// touches, so overflow is a programming error and checked only in debug.
class Money {
 public:
  /// Zero dollars.
  constexpr Money() = default;

  /// Exact construction from a micro-dollar count.
  static constexpr Money FromMicros(int64_t micros) { return Money(micros); }

  /// Construction from dollars, rounded half-away-from-zero to the nearest
  /// micro-dollar: std::llround's rounding, inlined because every Ce the
  /// plan pricing loop writes ends here. Within int64 range the fraction
  /// micros - trunc(micros) is exact, so comparing it with +-0.5 rounds
  /// exactly as llround does; out-of-range values and NaN defer to it.
  static Money FromDollars(double dollars) {
    const double micros = dollars * 1e6;
    if (!(std::fabs(micros) < 9.0e18)) {
      return Money(static_cast<int64_t>(std::llround(micros)));
    }
    const auto whole = static_cast<int64_t>(micros);
    const double frac = micros - static_cast<double>(whole);
    return Money(whole + (frac >= 0.5) - (frac <= -0.5));
  }

  /// The stored micro-dollar count.
  constexpr int64_t micros() const { return micros_; }

  /// Value in dollars (lossy; for reporting only).
  constexpr double ToDollars() const {
    return static_cast<double>(micros_) / 1e6;
  }

  /// True iff the amount is exactly zero.
  constexpr bool IsZero() const { return micros_ == 0; }
  /// True iff the amount is strictly positive.
  constexpr bool IsPositive() const { return micros_ > 0; }
  /// True iff the amount is strictly negative.

  /// Renders as e.g. "$12.345678" (micro-dollar precision, trailing zeros
  /// trimmed to cents).
  std::string ToString() const;

  constexpr Money operator-() const { return Money(-micros_); }
  constexpr Money operator+(Money other) const {
    return Money(micros_ + other.micros_);
  }
  constexpr Money operator-(Money other) const {
    return Money(micros_ - other.micros_);
  }
  constexpr Money& operator+=(Money other) {
    micros_ += other.micros_;
    return *this;
  }
  constexpr Money& operator-=(Money other) {
    micros_ -= other.micros_;
    return *this;
  }

  /// Integer scaling (e.g. n queries x per-query charge).
  constexpr Money operator*(int64_t factor) const {
    return Money(micros_ * factor);
  }
  /// Disambiguates Money * <int literal> (would otherwise tie between the
  /// int64_t and double overloads).
  constexpr Money operator*(int factor) const {
    return Money(micros_ * factor);
  }
  /// Fractional scaling, rounded half-away-from-zero.
  Money operator*(double factor) const;
  /// Equal division over n shares, rounded toward zero; the caller is
  /// responsible for distributing the remainder if exactness matters
  /// (see SplitEvenly()).
  constexpr Money operator/(int64_t divisor) const {
    return Money(micros_ / divisor);
  }
  /// Ratio of two amounts as a double (for thresholds such as Eq. 3).
  constexpr double Ratio(Money denominator) const {
    return static_cast<double>(micros_) /
           static_cast<double>(denominator.micros_);
  }

  constexpr bool operator==(Money other) const {
    return micros_ == other.micros_;
  }
  constexpr bool operator!=(Money other) const {
    return micros_ != other.micros_;
  }
  constexpr bool operator<(Money other) const {
    return micros_ < other.micros_;
  }
  constexpr bool operator<=(Money other) const {
    return micros_ <= other.micros_;
  }
  constexpr bool operator>(Money other) const {
    return micros_ > other.micros_;
  }
  constexpr bool operator>=(Money other) const {
    return micros_ >= other.micros_;
  }

  /// Returns the larger of a and b.
  static constexpr Money Max(Money a, Money b) { return a < b ? b : a; }

 private:
  constexpr explicit Money(int64_t micros) : micros_(micros) {}

  int64_t micros_ = 0;
};

std::ostream& operator<<(std::ostream& os, Money money);

/// The first `count` shares of `total` split evenly: every share is
/// total/count rounded down, except the first `total % count` shares which
/// carry one extra micro-dollar. The shares always sum exactly to `total`.
/// `count` must be >= 1. Used by the amortizer (Eq. 7) so that amortized
/// build cost is repaid to the account without residue.
Money EvenShare(Money total, int64_t count, int64_t share_index);

/// Sum of EvenShare(total, count, i) over i in [first_share, count): what
/// is left of `total` once the first `first_share` shares are repaid. In
/// closed form, (count - k) * base + extra_unit * max(0, extras - k) with
/// EvenShare's own base/extras/extra_unit, so it costs O(1) at any count
/// and is exact in int64 (|(count - k) * base| <= |total|). `first_share`
/// >= count sums no share and yields zero.
Money EvenShareTail(Money total, int64_t count, int64_t first_share);

}  // namespace cloudcache
