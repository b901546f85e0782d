#include "src/util/money.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include "src/util/rng.h"

namespace cloudcache {
namespace {

TEST(MoneyTest, DefaultIsZero) {
  Money m;
  EXPECT_TRUE(m.IsZero());
  EXPECT_EQ(m.micros(), 0);
  EXPECT_FALSE(m.IsPositive());
  EXPECT_FALSE(m.IsNegative());
}

TEST(MoneyTest, FromMicrosRoundTrips) {
  EXPECT_EQ(Money::FromMicros(123456789).micros(), 123456789);
  EXPECT_EQ(Money::FromMicros(-5).micros(), -5);
}

TEST(MoneyTest, FromDollarsRoundsHalfAwayFromZero) {
  EXPECT_EQ(Money::FromDollars(1.0).micros(), 1'000'000);
  EXPECT_EQ(Money::FromDollars(0.0000005).micros(), 1);
  EXPECT_EQ(Money::FromDollars(-0.0000005).micros(), -1);
  EXPECT_EQ(Money::FromDollars(0.00000049).micros(), 0);
}

TEST(MoneyTest, FromDollarsMatchesLlroundBitForBit) {
  // FromDollars rounds inline; it must agree with std::llround on every
  // input in int64 range: random bit patterns, exact halves and their
  // neighbours, and values next to the fallback bound. (Beyond the range
  // llround's result is unspecified; FromDollars defers to it there.)
  const auto expect_llround = [](double dollars) {
    const double micros = dollars * 1e6;
    if (std::isnan(micros) || !(std::fabs(micros) < 9.2e18)) return;
    EXPECT_EQ(Money::FromDollars(dollars).micros(), std::llround(micros))
        << "dollars=" << dollars;
  };
  Rng rng(7);
  for (int i = 0; i < 200'000; ++i) {
    const uint64_t bits = rng.Next();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    expect_llround(value);
    const int64_t micros = rng.NextInt(-1'000'000'000, 1'000'000'000);
    expect_llround(static_cast<double>(micros) / 1e6 + 0.0000005);
  }
  for (double whole : {0.0, 1.0, 2.0, 12345.0, 4503599627370495.0}) {
    for (double half : {whole + 0.5, -(whole + 0.5)}) {
      for (double micros :
           {half, std::nextafter(half, 0.0), std::nextafter(half, 1e300),
            std::nextafter(half, -1e300)}) {
        expect_llround(micros / 1e6);
      }
    }
  }
  for (double micros : {4503599627370496.0, 9007199254740993.0, 8.9e18,
                        -8.9e18}) {
    expect_llround(micros / 1e6);
  }
}

TEST(MoneyTest, ToDollarsInvertsFromDollars) {
  EXPECT_DOUBLE_EQ(Money::FromDollars(17.25).ToDollars(), 17.25);
}

TEST(MoneyTest, ArithmeticIsExact) {
  const Money a = Money::FromMicros(1);
  Money sum;
  for (int i = 0; i < 1'000'000; ++i) sum += a;
  EXPECT_EQ(sum, Money::FromDollars(1.0));
  sum -= Money::FromDollars(0.5);
  EXPECT_EQ(sum.micros(), 500'000);
}

TEST(MoneyTest, Negation) {
  EXPECT_EQ((-Money::FromDollars(2)).micros(), -2'000'000);
}

TEST(MoneyTest, IntegerScaling) {
  EXPECT_EQ((Money::FromMicros(70'000) * 3).micros(), 210'000);
}

TEST(MoneyTest, DoubleScalingRounds) {
  EXPECT_EQ((Money::FromMicros(10) * 0.15).micros(), 2);  // 1.5 -> 2.
  EXPECT_EQ((Money::FromMicros(10) * 0.14).micros(), 1);
}

TEST(MoneyTest, DivisionTruncatesTowardZero) {
  EXPECT_EQ((Money::FromMicros(7) / 2).micros(), 3);
  EXPECT_EQ((Money::FromMicros(-7) / 2).micros(), -3);
}

TEST(MoneyTest, RatioOfAmounts) {
  EXPECT_DOUBLE_EQ(Money::FromDollars(1).Ratio(Money::FromDollars(4)), 0.25);
}

TEST(MoneyTest, Comparisons) {
  EXPECT_LT(Money::FromDollars(1), Money::FromDollars(2));
  EXPECT_GE(Money::FromDollars(2), Money::FromDollars(2));
  EXPECT_EQ(Money::Max(Money::FromDollars(1), Money::FromDollars(2)),
            Money::FromDollars(2));
  EXPECT_EQ(Money::Min(Money::FromDollars(1), Money::FromDollars(2)),
            Money::FromDollars(1));
}

TEST(MoneyTest, ToStringCents) {
  EXPECT_EQ(Money::FromDollars(12.34).ToString(), "$12.34");
  EXPECT_EQ(Money::FromDollars(-0.5).ToString(), "-$0.50");
}

TEST(MoneyTest, ToStringMicros) {
  EXPECT_EQ(Money::FromMicros(1).ToString(), "$0.000001");
  EXPECT_EQ(Money::FromMicros(-1234567).ToString(), "-$1.234567");
}

TEST(MoneyTest, StreamOperator) {
  std::ostringstream os;
  os << Money::FromMicros(1'500'000);
  EXPECT_EQ(os.str(), "$1.50");
}

TEST(EvenShareTest, SharesSumToTotalPositive) {
  const Money total = Money::FromMicros(1003);
  Money sum;
  for (int64_t i = 0; i < 10; ++i) sum += EvenShare(total, 10, i);
  EXPECT_EQ(sum, total);
}

TEST(EvenShareTest, SharesSumToTotalNegative) {
  const Money total = Money::FromMicros(-1003);
  Money sum;
  for (int64_t i = 0; i < 10; ++i) sum += EvenShare(total, 10, i);
  EXPECT_EQ(sum, total);
}

TEST(EvenShareTest, LeadingSharesCarryRemainder) {
  const Money total = Money::FromMicros(7);
  EXPECT_EQ(EvenShare(total, 3, 0).micros(), 3);
  EXPECT_EQ(EvenShare(total, 3, 1).micros(), 2);
  EXPECT_EQ(EvenShare(total, 3, 2).micros(), 2);
}

TEST(EvenShareTest, SingleShareIsTotal) {
  EXPECT_EQ(EvenShare(Money::FromDollars(5), 1, 0), Money::FromDollars(5));
}

TEST(EvenShareTest, SharesNeverDifferByMoreThanOneMicro) {
  const Money total = Money::FromMicros(999'999'937);
  int64_t lo = EvenShare(total, 7, 6).micros();
  int64_t hi = EvenShare(total, 7, 0).micros();
  EXPECT_LE(hi - lo, 1);
}

// EvenShareTail against the share-by-share loop it replaces: negative,
// zero, exactly divisible and remainder-carrying totals, at every
// share index where the closed form changes regime.
struct TailCase {
  int64_t total_micros;
  int64_t count;
};

// Names each case in test listings, e.g. "-1003_over_10".
void PrintTo(const TailCase& c, std::ostream* os) {
  *os << c.total_micros << "_over_" << c.count;
}

class EvenShareTailSweep : public ::testing::TestWithParam<TailCase> {};

TEST_P(EvenShareTailSweep, MatchesTheShareLoop) {
  const Money total = Money::FromMicros(GetParam().total_micros);
  const int64_t count = GetParam().count;
  const int64_t remainder = GetParam().total_micros % count;
  const int64_t extras = remainder >= 0 ? remainder : -remainder;
  for (int64_t k : {int64_t{0}, int64_t{1}, extras - 1, extras, extras + 1,
                    count - 1, count}) {
    if (k < 0 || k > count) continue;
    Money loop;
    for (int64_t i = k; i < count; ++i) loop += EvenShare(total, count, i);
    EXPECT_EQ(EvenShareTail(total, count, k), loop)
        << "total=" << total.micros() << " count=" << count << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Totals, EvenShareTailSweep,
    ::testing::Values(TailCase{-1003, 10}, TailCase{-999'999'937, 7},
                      TailCase{0, 10}, TailCase{1000, 10},
                      TailCase{1003, 10}, TailCase{999'999'937, 7},
                      TailCase{5, 50'000}, TailCase{123'456'789, 50'000},
                      TailCase{42, 1}));

TEST(EvenShareTailTest, PastTheLastShareIsZero) {
  EXPECT_TRUE(EvenShareTail(Money::FromMicros(1003), 10, 10).IsZero());
  EXPECT_TRUE(EvenShareTail(Money::FromMicros(1003), 10, 11).IsZero());
}

class EvenShareSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(EvenShareSweep, ConservationHoldsForAnyCount) {
  const int64_t count = GetParam();
  const Money total = Money::FromMicros(123'456'789);
  Money sum;
  for (int64_t i = 0; i < count; ++i) sum += EvenShare(total, count, i);
  EXPECT_EQ(sum, total) << "count=" << count;
}

INSTANTIATE_TEST_SUITE_P(Counts, EvenShareSweep,
                         ::testing::Values(1, 2, 3, 7, 10, 97, 1000, 4096));

}  // namespace
}  // namespace cloudcache
