#include "src/util/money.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "src/util/logging.h"

namespace cloudcache {

Money Money::operator*(double factor) const {
  return Money(static_cast<int64_t>(
      std::llround(static_cast<double>(micros_) * factor)));
}

std::string Money::ToString() const {
  int64_t abs = micros_ < 0 ? -micros_ : micros_;
  int64_t whole = abs / 1'000'000;
  int64_t frac = abs % 1'000'000;
  char buf[48];
  if (frac % 10'000 == 0) {
    // Cent-exact: print two decimals.
    std::snprintf(buf, sizeof(buf), "%s$%lld.%02lld", micros_ < 0 ? "-" : "",
                  static_cast<long long>(whole),
                  static_cast<long long>(frac / 10'000));
  } else {
    std::snprintf(buf, sizeof(buf), "%s$%lld.%06lld", micros_ < 0 ? "-" : "",
                  static_cast<long long>(whole),
                  static_cast<long long>(frac));
  }
  return buf;
}

std::ostream& operator<<(std::ostream& os, Money money) {
  return os << money.ToString();
}

Money EvenShare(Money total, int64_t count, int64_t share_index) {
  int64_t base = total.micros() / count;
  int64_t remainder = total.micros() % count;
  // Remainder micro-dollars go to the lowest-index shares. For negative
  // totals the C++ remainder is negative, which subtracts one micro-dollar
  // from the leading shares instead; the shares still sum to `total`.
  int64_t extra_unit = remainder >= 0 ? 1 : -1;
  int64_t extras = remainder >= 0 ? remainder : -remainder;
  return Money::FromMicros(base + (share_index < extras ? extra_unit : 0));
}

Money EvenShareTail(Money total, int64_t count, int64_t first_share) {
  CLOUDCACHE_CHECK_GE(first_share, 0);
  const int64_t k = std::min(first_share, count);
  const int64_t base = total.micros() / count;
  const int64_t remainder = total.micros() % count;
  const int64_t extra_unit = remainder >= 0 ? 1 : -1;
  const int64_t extras = remainder >= 0 ? remainder : -remainder;
  return Money::FromMicros((count - k) * base +
                           extra_unit * std::max<int64_t>(0, extras - k));
}

}  // namespace cloudcache
