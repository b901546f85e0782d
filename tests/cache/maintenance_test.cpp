#include "src/cache/maintenance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "tests/testing/fixtures.h"

namespace cloudcache {
namespace {

class MaintenanceTest : public ::testing::Test {
 protected:
  MaintenanceTest()
      : catalog_(testing::MakeTinyCatalog()),
        prices_(testing::MakeRoundPrices()),
        model_(&catalog_, &prices_),
        ledger_(&model_, 0.25, false) {}

  StructureKey FactColumn() {
    return ColumnKey(catalog_, *catalog_.FindColumn("fact.f_key"));
  }

  Catalog catalog_;
  PriceList prices_;
  CostModel model_;
  MaintenanceLedger ledger_;
};

TEST_F(MaintenanceTest, FreshStructureOwesNothing) {
  ledger_.Register(0, FactColumn(), 100.0, Money::FromDollars(1));
  EXPECT_TRUE(ledger_.Owed(0, 100.0).IsZero());
  EXPECT_TRUE(ledger_.IsTracked(0));
}

TEST_F(MaintenanceTest, OwedGrowsLinearly) {
  ledger_.Register(0, FactColumn(), 0.0, Money());
  const Money one_month = ledger_.Owed(0, kMonth);
  // 8 MB at $0.10/GB-month.
  EXPECT_EQ(one_month, Money::FromDollars(8e6 * 0.10 / 1e9));
  EXPECT_EQ(ledger_.Owed(0, 2 * kMonth), one_month * 2);
}

TEST_F(MaintenanceTest, PayCollectsAndResets) {
  ledger_.Register(0, FactColumn(), 0.0, Money());
  const Money paid = ledger_.Pay(0, kMonth);
  EXPECT_EQ(paid, Money::FromDollars(8e6 * 0.10 / 1e9));
  EXPECT_TRUE(ledger_.Owed(0, kMonth).IsZero());
  // Rent keeps accruing from the payment point (another full month).
  EXPECT_FALSE(ledger_.Owed(0, 2 * kMonth).IsZero());
}

TEST_F(MaintenanceTest, FootnoteThreePaymentCoversSinceLastPayer) {
  // Two payments at different times collect exactly the whole rent.
  ledger_.Register(0, FactColumn(), 0.0, Money());
  const Money p1 = ledger_.Pay(0, kMonth / 2);
  const Money p2 = ledger_.Pay(0, kMonth);
  EXPECT_EQ(p1 + p2, Money::FromDollars(8e6 * 0.10 / 1e9));
}

TEST_F(MaintenanceTest, UnregisterReturnsWriteOff) {
  ledger_.Register(0, FactColumn(), 0.0, Money());
  const Money writeoff = ledger_.Unregister(0, kMonth);
  EXPECT_EQ(writeoff, Money::FromDollars(8e6 * 0.10 / 1e9));
  EXPECT_FALSE(ledger_.IsTracked(0));
}

TEST_F(MaintenanceTest, BuildCostRetained) {
  ledger_.Register(3, FactColumn(), 0.0, Money::FromDollars(42));
  EXPECT_EQ(ledger_.BuildCostOf(3), Money::FromDollars(42));
}

TEST_F(MaintenanceTest, TimeNeverRunsBackwards) {
  ledger_.Register(0, FactColumn(), 10.0, Money());
  // Asking about a time before registration owes nothing.
  EXPECT_TRUE(ledger_.Owed(0, 5.0).IsZero());
  EXPECT_TRUE(ledger_.Pay(0, 5.0).IsZero());
}

TEST_F(MaintenanceTest, CpuNodeChargesReservationRate) {
  ledger_.Register(1, CpuNodeKey(0), 0.0, Money());
  const Money owed = ledger_.Owed(1, 1000.0);
  EXPECT_EQ(owed, Money::FromDollars(1000.0 * 0.001 *
                                     prices_.cpu_reserve_fraction));
}

TEST_F(MaintenanceTest, IndependentClocks) {
  ledger_.Register(0, FactColumn(), 0.0, Money());
  ledger_.Register(1, CpuNodeKey(0), 0.0, Money());
  ledger_.Pay(0, 100.0);
  EXPECT_TRUE(ledger_.Owed(0, 100.0).IsZero());
  EXPECT_FALSE(ledger_.Owed(1, 100.0).IsZero());
}

TEST_F(MaintenanceTest, FailureScaleDefaultsToOne) {
  ledger_.Register(0, FactColumn(), 0.0, Money::FromDollars(1));
  EXPECT_DOUBLE_EQ(ledger_.FailureScale(0), 1.0);
  // Untracked structures also read 1.0 so callers can ask blindly.
  EXPECT_DOUBLE_EQ(ledger_.FailureScale(42), 1.0);
}

TEST_F(MaintenanceTest, FailureScaleRetainedUntilUnregister) {
  ledger_.Register(0, FactColumn(), 0.0, Money::FromDollars(1), 1.75);
  EXPECT_DOUBLE_EQ(ledger_.FailureScale(0), 1.75);
  ledger_.Unregister(0, 10.0);
  EXPECT_DOUBLE_EQ(ledger_.FailureScale(0), 1.0);
}

// Deadline index: CollectDue must name every clock the exact test fails,
// whatever mix of recorded and zero (epoch-following) build costs, scales
// and payments, and name nothing while every deadline lies ahead.
class MaintenanceDeadlineTest : public MaintenanceTest {
 protected:
  MaintenanceDeadlineTest() : scaled_(&model_, 0.25, true) {}

  StructureKey Column(const char* name) {
    return ColumnKey(catalog_, *catalog_.FindColumn(name));
  }

  /// The exact rule, restated: owed nonzero and above the threshold.
  bool Failing(StructureId id, SimTime now, Money rebuild) {
    Money cost = scaled_.BuildCostOf(id);
    if (cost.IsZero()) cost = rebuild;
    Money threshold = cost * 0.25;
    if (scaled_.FailureScale(id) != 1.0) {
      threshold = threshold * scaled_.FailureScale(id);
    }
    const Money owed = scaled_.Owed(id, now);
    return !owed.IsZero() && owed > threshold;
  }

  MaintenanceLedger scaled_;
  std::vector<StructureId> due_;
};

TEST_F(MaintenanceDeadlineTest, DueSetCoversEveryFailure) {
  scaled_.Register(0, Column("fact.f_key"), 0.0, Money::FromMicros(1000));
  scaled_.Register(1, Column("fact.f_date"), 0.0, Money::FromMicros(1000),
                   1.5);
  scaled_.Register(2, Column("dim.d_key"), 0.0, Money());  // Companion.
  scaled_.Register(3, CpuNodeKey(0), 0.0, Money::FromDollars(50));
  Money rebuild = Money::FromMicros(3);
  uint64_t epoch = 0;
  size_t failing_seen = 0;
  size_t quiet_scans = 0;
  for (int step = 1; step <= 400; ++step) {
    const SimTime now = step * (kMonth / 400);
    if (step % 50 == 0) {
      // The residency epoch moves and the companion's rebuild cost with it.
      ++epoch;
      rebuild = Money::FromMicros(3 + (step % 100 == 0 ? 2 : -2));
    }
    if (step % 7 == 0) scaled_.Pay(step % 4, now, kMonth / 40);
    scaled_.CollectDue(now, epoch, [&](StructureId) { return rebuild; },
                       &due_);
    EXPECT_TRUE(std::is_sorted(due_.begin(), due_.end()));
    quiet_scans += due_.empty();
    for (StructureId id = 0; id < 4; ++id) {
      if (!Failing(id, now, rebuild)) continue;
      ++failing_seen;
      EXPECT_NE(std::find(due_.begin(), due_.end(), id), due_.end())
          << "clock " << id << " fails at step " << step << " unnamed";
    }
  }
  EXPECT_GT(failing_seen, 0u);
  EXPECT_GT(quiet_scans, 0u);
}

TEST_F(MaintenanceDeadlineTest, RepeatScanAtOneNowIsAPeek) {
  scaled_.Register(0, Column("fact.f_key"), 0.0, Money::FromMicros(1000));
  const auto no_rebuild = [](StructureId) { return Money(); };
  // Walk forward until the clock comes due.
  SimTime now = 0;
  do {
    now += kMonth / 1000;
    scaled_.CollectDue(now, 0, no_rebuild, &due_);
  } while (due_.empty());
  Money owed;
  Money threshold;
  // 250.4 micros owed rounds to the 250-micro threshold: due, not failing.
  ASSERT_FALSE(
      scaled_.Fails(0, now, Money::FromMicros(1000), &owed, &threshold));
  // Passed at `now`: a second scan there finds nothing...
  scaled_.CollectDue(now, 0, no_rebuild, &due_);
  EXPECT_TRUE(due_.empty());
  // ...and so does one right after a payment that covers the backlog.
  scaled_.Pay(0, now);
  scaled_.CollectDue(now, 0, no_rebuild, &due_);
  EXPECT_TRUE(due_.empty());
}

TEST_F(MaintenanceDeadlineTest, ZeroCostDeadlineFollowsTheEpoch) {
  scaled_.Register(0, Column("fact.f_key"), 0.0, Money());
  const SimTime now = kMonth / 10;  // Owes $0.00008 = 80 micros.
  // Rebuild $1: threshold $0.25, nowhere near due.
  scaled_.CollectDue(now, 0, [](StructureId) { return Money::FromDollars(1); },
                     &due_);
  EXPECT_TRUE(due_.empty());
  // Same epoch: the memoized threshold stands, whatever the callback says.
  scaled_.CollectDue(now, 0, [](StructureId) { return Money(); }, &due_);
  EXPECT_TRUE(due_.empty());
  // A new epoch drops the rebuild cost to 100 micros (threshold 25): due.
  scaled_.CollectDue(now, 1,
                     [](StructureId) { return Money::FromMicros(100); },
                     &due_);
  EXPECT_EQ(due_, std::vector<StructureId>{0});
}

TEST_F(MaintenanceDeadlineTest, CollectDueSkipsIdsUpToAfter) {
  for (StructureId id = 0; id < 3; ++id) {
    scaled_.Register(id, CpuNodeKey(id), 0.0, Money::FromMicros(1));
  }
  const auto no_rebuild = [](StructureId) { return Money(); };
  scaled_.CollectDue(kMonth, 0, no_rebuild, &due_);
  EXPECT_EQ(due_, (std::vector<StructureId>{0, 1, 2}));
  scaled_.CollectDue(kMonth, 0, no_rebuild, &due_, 0);
  EXPECT_EQ(due_, (std::vector<StructureId>{1, 2}));
  scaled_.Unregister(1, kMonth);
  scaled_.CollectDue(kMonth, 0, no_rebuild, &due_);
  EXPECT_EQ(due_, (std::vector<StructureId>{0, 2}));
}

}  // namespace
}  // namespace cloudcache
