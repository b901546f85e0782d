#include "src/econ/regret.h"

#include <gtest/gtest.h>

#include <vector>

namespace cloudcache {
namespace {

TEST(RegretLedgerTest, StartsEmpty) {
  RegretLedger ledger;
  EXPECT_TRUE(ledger.Get(0).IsZero());
  EXPECT_TRUE(ledger.Total().IsZero());
  EXPECT_TRUE(ledger.NonZeroDescending().empty());
}

TEST(RegretLedgerTest, AddAccumulates) {
  RegretLedger ledger;
  ledger.Add(3, Money::FromDollars(1));
  ledger.Add(3, Money::FromDollars(2));
  EXPECT_EQ(ledger.Get(3), Money::FromDollars(3));
  EXPECT_EQ(ledger.Total(), Money::FromDollars(3));
}

TEST(RegretLedgerTest, ZeroAddIsNoOp) {
  RegretLedger ledger;
  ledger.Add(1, Money());
  EXPECT_EQ(ledger.size(), 0u);
}

TEST(RegretLedgerTest, DistributeSplitsExactly) {
  RegretLedger ledger;
  // 10 micro-dollars over 3 structures: shares 4, 3, 3.
  ledger.Distribute({1, 2, 3}, Money::FromMicros(10));
  EXPECT_EQ(ledger.Get(1), Money::FromMicros(4));
  EXPECT_EQ(ledger.Get(2), Money::FromMicros(3));
  EXPECT_EQ(ledger.Get(3), Money::FromMicros(3));
  EXPECT_EQ(ledger.Total(), Money::FromMicros(10));
}

TEST(RegretLedgerTest, DistributeToEmptyIsNoOp) {
  RegretLedger ledger;
  ledger.Distribute({}, Money::FromDollars(5));
  EXPECT_TRUE(ledger.Total().IsZero());
}

TEST(RegretLedgerTest, ClearReturnsForfeited) {
  RegretLedger ledger;
  ledger.Add(7, Money::FromDollars(4));
  EXPECT_EQ(ledger.Clear(7), Money::FromDollars(4));
  EXPECT_TRUE(ledger.Get(7).IsZero());
  EXPECT_TRUE(ledger.Clear(7).IsZero());  // Idempotent.
}

TEST(RegretLedgerTest, NonZeroDescendingOrder) {
  RegretLedger ledger;
  ledger.Add(1, Money::FromDollars(2));
  ledger.Add(2, Money::FromDollars(9));
  ledger.Add(3, Money::FromDollars(5));
  const auto sorted = ledger.NonZeroDescending();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].first, 2u);
  EXPECT_EQ(sorted[1].first, 3u);
  EXPECT_EQ(sorted[2].first, 1u);
}

TEST(RegretLedgerTest, TiesBreakById) {
  RegretLedger ledger;
  ledger.Add(9, Money::FromDollars(1));
  ledger.Add(4, Money::FromDollars(1));
  const auto sorted = ledger.NonZeroDescending();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].first, 4u);
  EXPECT_EQ(sorted[1].first, 9u);
}

TEST(RegretLedgerTest, ConservationUnderManyDistributes) {
  RegretLedger ledger;
  Money total;
  for (int i = 0; i < 1000; ++i) {
    const Money amount = Money::FromMicros(1'000'003 + i);
    ledger.Distribute({0, 1, 2, 3, 4, 5, 6}, amount);
    total += amount;
  }
  EXPECT_EQ(ledger.Total(), total);
}

TEST(RegretLedgerTest, CachedSortedViewTracksMutations) {
  RegretLedger ledger;
  ledger.Add(3, Money::FromDollars(1.0));
  ASSERT_EQ(ledger.NonZeroDescending().size(), 1u);
  // A second call with no intervening mutation serves the cached view.
  EXPECT_EQ(&ledger.NonZeroDescending(), &ledger.NonZeroDescending());

  // Add dirties the view.
  ledger.Add(7, Money::FromDollars(2.0));
  {
    const auto& sorted = ledger.NonZeroDescending();
    ASSERT_EQ(sorted.size(), 2u);
    EXPECT_EQ(sorted[0].first, 7u);
    EXPECT_EQ(sorted[1].first, 3u);
  }

  // Clear dirties it too.
  ledger.Clear(7);
  {
    const auto& sorted = ledger.NonZeroDescending();
    ASSERT_EQ(sorted.size(), 1u);
    EXPECT_EQ(sorted[0].first, 3u);
  }
}

TEST(RegretLedgerTest, SortedViewSnapshotSurvivesClearDuringIteration) {
  // The investment loop clears entries while walking the view; the
  // returned storage must stay intact for the remainder of the walk.
  RegretLedger ledger;
  for (StructureId id = 0; id < 8; ++id) {
    ledger.Add(id, Money::FromMicros(1000 + id));
  }
  const auto& sorted = ledger.NonZeroDescending();
  ASSERT_EQ(sorted.size(), 8u);
  size_t visited = 0;
  for (const auto& [id, amount] : sorted) {
    (void)amount;
    ledger.Clear(id);
    ++visited;
  }
  EXPECT_EQ(visited, 8u);
  EXPECT_TRUE(ledger.NonZeroDescending().empty());
}

TEST(RegretLedgerTest, SubtractRemovesExactShare) {
  RegretLedger ledger;
  ledger.Add(3, Money::FromMicros(1000));
  ledger.Subtract(3, Money::FromMicros(400));
  EXPECT_EQ(ledger.Get(3), Money::FromMicros(600));
  // Subtracting down to zero erases the entry entirely.
  ledger.Subtract(3, Money::FromMicros(600));
  EXPECT_TRUE(ledger.Get(3).IsZero());
  EXPECT_EQ(ledger.size(), 0u);
}

TEST(RegretLedgerTest, SubtractInvalidatesSortedView) {
  RegretLedger ledger;
  ledger.Add(1, Money::FromMicros(100));
  ledger.Add(2, Money::FromMicros(200));
  ASSERT_EQ(ledger.NonZeroDescending().front().first, 2u);
  ledger.Subtract(2, Money::FromMicros(150));
  ASSERT_EQ(ledger.NonZeroDescending().size(), 2u);
  EXPECT_EQ(ledger.NonZeroDescending().front().first, 1u);
}

TEST(RegretLedgerTest, ForEachNonZeroMatchesTotal) {
  RegretLedger ledger;
  ledger.Add(1, Money::FromMicros(100));
  ledger.Add(2, Money::FromMicros(200));
  ledger.Add(5, Money::FromMicros(50));
  ledger.Clear(5);  // Cleared entries must not be visited.
  Money sum;
  std::vector<StructureId> visited;
  ledger.ForEachNonZero([&](StructureId id, Money amount) {
    visited.push_back(id);
    sum += amount;
  });
  EXPECT_EQ(sum, ledger.Total());
  ASSERT_EQ(visited.size(), 2u);  // Ascending id order.
  EXPECT_EQ(visited[0], 1u);
  EXPECT_EQ(visited[1], 2u);
}

}  // namespace
}  // namespace cloudcache
