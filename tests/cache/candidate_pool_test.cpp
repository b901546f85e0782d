#include "src/cache/candidate_pool.h"

#include <gtest/gtest.h>

namespace cloudcache {
namespace {

TEST(CandidatePoolTest, TouchInsertsNewCandidate) {
  CandidatePool pool(4);
  EXPECT_TRUE(pool.Touch(7, 0.0).empty());
  EXPECT_TRUE(pool.Contains(7));
  EXPECT_EQ(pool.size(), 1u);
}

TEST(CandidatePoolTest, EvictsLruWhenFull) {
  CandidatePool pool(2);
  pool.Touch(1, 0.0);
  pool.Touch(2, 1.0);
  const std::vector<StructureId> evicted = pool.Touch(3, 2.0);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 1u);  // Oldest.
  EXPECT_FALSE(pool.Contains(1));
  EXPECT_TRUE(pool.Contains(2));
  EXPECT_TRUE(pool.Contains(3));
}

TEST(CandidatePoolTest, TouchRefreshesRecency) {
  CandidatePool pool(2);
  pool.Touch(1, 0.0);
  pool.Touch(2, 1.0);
  pool.Touch(1, 2.0);  // 1 is now the most recent.
  const std::vector<StructureId> evicted = pool.Touch(3, 3.0);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 2u);
}

TEST(CandidatePoolTest, EraseRemovesWithoutEviction) {
  CandidatePool pool(2);
  pool.Touch(1, 0.0);
  pool.Erase(1);
  EXPECT_FALSE(pool.Contains(1));
  EXPECT_EQ(pool.size(), 0u);
  pool.Erase(99);  // No-op.
}

TEST(CandidatePoolTest, CapacityOneKeepsOnlyNewest) {
  CandidatePool pool(1);
  pool.Touch(1, 0.0);
  const auto evicted = pool.Touch(2, 1.0);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 1u);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(CandidatePoolTest, RepeatedTouchNeverEvicts) {
  CandidatePool pool(2);
  pool.Touch(5, 0.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(pool.Touch(5, i).empty());
  }
  EXPECT_EQ(pool.size(), 1u);
}

TEST(CandidatePoolTest, VictimScorerEvictsMostConcentratedInColdTail) {
  CandidatePool pool(3);
  // Lower score = more concentrated backing = preferred victim.
  pool.SetVictimScorer(
      [](StructureId id) { return id == 2 ? 0.0 : 1.0; }, /*window=*/3);
  pool.Touch(1, 0.0);
  pool.Touch(2, 1.0);
  pool.Touch(3, 2.0);
  // Classic LRU would evict 1 (coldest); the scorer picks 2 instead.
  const std::vector<StructureId> evicted = pool.Touch(4, 3.0);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 2u);
  EXPECT_TRUE(pool.Contains(1));
  EXPECT_TRUE(pool.Contains(3));
  EXPECT_TRUE(pool.Contains(4));
}

TEST(CandidatePoolTest, ConstantScorerDegeneratesToLru) {
  CandidatePool pool(2);
  pool.SetVictimScorer([](StructureId) { return 0.5; }, /*window=*/2);
  pool.Touch(1, 0.0);
  pool.Touch(2, 1.0);
  // Equal scores tie toward the colder entry — exactly classic LRU.
  const std::vector<StructureId> evicted = pool.Touch(3, 2.0);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 1u);
}

TEST(CandidatePoolTest, ScorerWindowBoundsTheSearch) {
  CandidatePool pool(4);
  // Entry 4 would score lowest, but it lies outside the 2-entry cold
  // tail, so the window never sees it.
  pool.SetVictimScorer(
      [](StructureId id) { return id == 4 ? 0.0 : static_cast<double>(id); },
      /*window=*/2);
  pool.Touch(1, 0.0);
  pool.Touch(2, 1.0);
  pool.Touch(3, 2.0);
  pool.Touch(4, 3.0);
  const std::vector<StructureId> evicted = pool.Touch(5, 4.0);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 1u);  // min(score(1)=1, score(2)=2).
  EXPECT_TRUE(pool.Contains(4));
}

TEST(CandidatePoolTest, ScorerNeverEvictsTheJustTouchedCandidate) {
  CandidatePool pool(1);
  pool.SetVictimScorer([](StructureId) { return 0.0; }, /*window=*/8);
  pool.Touch(1, 0.0);
  // Overflow with a window larger than the pool: the front entry (the
  // candidate whose Touch caused the overflow) must survive.
  const std::vector<StructureId> evicted = pool.Touch(2, 1.0);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 1u);
  EXPECT_TRUE(pool.Contains(2));
}

TEST(CandidatePoolTest, NullScorerRestoresStrictLru) {
  CandidatePool pool(2);
  pool.SetVictimScorer([](StructureId id) { return -static_cast<double>(id); },
                       /*window=*/2);
  pool.SetVictimScorer(nullptr, 1);
  pool.Touch(1, 0.0);
  pool.Touch(2, 1.0);
  const std::vector<StructureId> evicted = pool.Touch(3, 2.0);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 1u);
}

TEST(CandidatePoolTest, EvictionBufferIsClearedByNextTouch) {
  // Touch returns a reference to a reused internal buffer: an eviction
  // must not linger into the next call's result.
  CandidatePool pool(1);
  pool.Touch(1, 0.0);
  const std::vector<StructureId>& evicted = pool.Touch(2, 1.0);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 1u);
  // Refreshing the resident candidate evicts nothing; the same buffer now
  // reads empty.
  EXPECT_TRUE(pool.Touch(2, 2.0).empty());
  EXPECT_TRUE(evicted.empty());  // Same storage, overwritten.
}

}  // namespace
}  // namespace cloudcache
