#include "src/econ/amortizer.h"

#include <gtest/gtest.h>

namespace cloudcache {
namespace {

TEST(AmortizerTest, UnknownStructureChargesNothing) {
  Amortizer amortizer(10);
  EXPECT_TRUE(amortizer.PendingShare(5).IsZero());
  EXPECT_TRUE(amortizer.ChargeShare(5).IsZero());
  EXPECT_TRUE(amortizer.Cancel(5).IsZero());
}

TEST(AmortizerTest, SharesAreEqualSplit) {
  Amortizer amortizer(4);
  amortizer.RegisterBuild(1, Money::FromDollars(8));
  EXPECT_EQ(amortizer.PendingShare(1), Money::FromDollars(2));
  EXPECT_EQ(amortizer.ChargeShare(1), Money::FromDollars(2));
}

TEST(AmortizerTest, AllSharesSumToBuildCostExactly) {
  Amortizer amortizer(7);
  const Money build = Money::FromMicros(1'000'003);  // Not divisible by 7.
  amortizer.RegisterBuild(1, build);
  Money collected;
  for (int i = 0; i < 7; ++i) collected += amortizer.ChargeShare(1);
  EXPECT_EQ(collected, build);
}

TEST(AmortizerTest, FreeAfterHorizon) {
  Amortizer amortizer(3);
  amortizer.RegisterBuild(1, Money::FromDollars(3));
  for (int i = 0; i < 3; ++i) amortizer.ChargeShare(1);
  // Eq. 7 amortizes to exactly n queries; later users ride free.
  EXPECT_TRUE(amortizer.PendingShare(1).IsZero());
  EXPECT_TRUE(amortizer.ChargeShare(1).IsZero());
}

TEST(AmortizerTest, UnamortizedTracksRemainder) {
  // The unrecovered remainder is what Cancel returns: build cost minus
  // every share charged so far, remainder micro-dollars included.
  Amortizer amortizer(4);
  const Money build = Money::FromMicros(8'000'003);
  amortizer.RegisterBuild(1, build);
  const Money charged = amortizer.ChargeShare(1) + amortizer.ChargeShare(1);
  EXPECT_EQ(amortizer.Cancel(1), build - charged);
}

TEST(AmortizerTest, CancelReturnsSunkRemainder) {
  Amortizer amortizer(4);
  amortizer.RegisterBuild(1, Money::FromDollars(8));
  amortizer.ChargeShare(1);
  EXPECT_EQ(amortizer.Cancel(1), Money::FromDollars(6));
  EXPECT_TRUE(amortizer.PendingShare(1).IsZero());
}

TEST(AmortizerTest, CancelIsClosedFormAtAnyHorizon) {
  // A summing loop over the outstanding shares would take 10^15 steps
  // here; the closed form answers at once and exactly.
  const int64_t horizon = 1'000'000'000'000'000;
  Amortizer amortizer(horizon);
  const Money build = Money::FromMicros(3'000'000'000'000'007);
  amortizer.RegisterBuild(1, build);
  Money charged;
  for (int i = 0; i < 9; ++i) charged += amortizer.ChargeShare(1);
  // base = 3, extras = 7: the first 7 shares carry one micro-dollar more.
  EXPECT_EQ(charged, Money::FromMicros(7 * 4 + 2 * 3));
  EXPECT_EQ(amortizer.Cancel(1), build - charged);
  EXPECT_TRUE(amortizer.PendingShare(1).IsZero());
}

TEST(AmortizerTest, ReRegisterRestartsSchedule) {
  Amortizer amortizer(2);
  amortizer.RegisterBuild(1, Money::FromDollars(2));
  amortizer.ChargeShare(1);
  amortizer.RegisterBuild(1, Money::FromDollars(10));  // Rebuild.
  EXPECT_EQ(amortizer.PendingShare(1), Money::FromDollars(5));
}

TEST(AmortizerTest, HorizonOneChargesAllAtOnce) {
  Amortizer amortizer(1);
  amortizer.RegisterBuild(1, Money::FromDollars(9));
  EXPECT_EQ(amortizer.ChargeShare(1), Money::FromDollars(9));
  EXPECT_TRUE(amortizer.ChargeShare(1).IsZero());
}

TEST(AmortizerTest, IndependentSchedules) {
  Amortizer amortizer(2);
  amortizer.RegisterBuild(1, Money::FromDollars(2));
  amortizer.RegisterBuild(2, Money::FromDollars(4));
  EXPECT_EQ(amortizer.ChargeShare(1), Money::FromDollars(1));
  EXPECT_EQ(amortizer.ChargeShare(2), Money::FromDollars(2));
}

class AmortizerHorizonSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(AmortizerHorizonSweep, ConservationAtAnyHorizon) {
  const int64_t n = GetParam();
  Amortizer amortizer(n);
  const Money build = Money::FromMicros(987'654'321);
  amortizer.RegisterBuild(0, build);
  Money collected;
  for (int64_t i = 0; i < n; ++i) collected += amortizer.ChargeShare(0);
  EXPECT_EQ(collected, build);
  EXPECT_TRUE(amortizer.ChargeShare(0).IsZero());
}

INSTANTIATE_TEST_SUITE_P(Horizons, AmortizerHorizonSweep,
                         ::testing::Values(1, 2, 3, 10, 97, 1000));

}  // namespace
}  // namespace cloudcache
