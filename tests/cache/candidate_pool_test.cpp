#include "src/cache/candidate_pool.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/catalog/tpch.h"
#include "src/persist/codec.h"

namespace cloudcache {
namespace {

using persist::Decoder;
using persist::Encoder;

/// The pool's entries as SaveState writes them: (id, last_touch) from the
/// most to the least recently used.
std::vector<std::pair<StructureId, double>> MruOrder(
    const CandidatePool& pool) {
  Encoder enc;
  pool.SaveState(&enc);
  Decoder dec(enc.buffer().data(), enc.size());
  uint64_t count = 0;
  dec.Length(count);
  std::vector<std::pair<StructureId, double>> entries(count);
  for (auto& [id, last_touch] : entries) {
    dec.U32(id);
    dec.F64(last_touch);
  }
  EXPECT_TRUE(dec.ExpectEnd().ok());
  return entries;
}

std::string Hex(const Encoder& enc) {
  std::string hex;
  char byte[3];
  for (uint8_t b : enc.buffer()) {
    std::snprintf(byte, sizeof(byte), "%02x", b);
    hex += byte;
  }
  return hex;
}

/// A registry with ids 0-7 interned (columns of a TPC-H catalog).
class RegistryFixture {
 protected:
  RegistryFixture() : catalog_(MakeTpchCatalog(1.0)), registry_(&catalog_) {
    for (ColumnId c = 0; c < 8; ++c) registry_.Intern(ColumnKey(catalog_, c));
  }
  Catalog catalog_;
  StructureRegistry registry_;
};

class CandidatePoolRestoreTest : public ::testing::Test,
                                 protected RegistryFixture {};

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

TEST(CandidatePoolTest, TouchesKeepMruOrder) {
  CandidatePool pool(4);
  pool.Touch(3, 1.0);
  pool.Touch(1, 2.0);
  pool.Touch(2, 3.0);
  pool.Touch(3, 4.0);  // Middle of the list to the front.
  pool.Touch(3, 5.0);  // Already the front: only its time moves.
  pool.Touch(1, 6.0);  // The coldest entry to the front.
  const std::vector<std::pair<StructureId, double>> expected = {
      {1, 6.0}, {3, 5.0}, {2, 3.0}};
  EXPECT_EQ(MruOrder(pool), expected);
}

TEST(CandidatePoolTest, EraseThenReinsertGoesToTheFront) {
  CandidatePool pool(3);
  pool.Touch(1, 1.0);
  pool.Touch(2, 2.0);
  pool.Touch(3, 3.0);
  pool.Erase(3);  // The front.
  pool.Erase(1);  // The back.
  pool.Erase(1);  // Absent: a no-op.
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_TRUE(pool.Touch(1, 4.0).empty());
  EXPECT_TRUE(pool.Touch(3, 5.0).empty());
  const std::vector<std::pair<StructureId, double>> expected = {
      {3, 5.0}, {1, 4.0}, {2, 2.0}};
  EXPECT_EQ(MruOrder(pool), expected);
  // The re-linked list still ages from the cold end.
  const std::vector<StructureId> evicted = pool.Touch(4, 6.0);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 2u);
  pool.Erase(4);
  pool.Erase(3);
  pool.Erase(1);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_TRUE(MruOrder(pool).empty());
  EXPECT_TRUE(pool.Touch(2, 7.0).empty());
  EXPECT_EQ(MruOrder(pool).size(), 1u);
}

TEST(CandidatePoolTest, ScorerWalksTheWindowFromTheColdEnd) {
  CandidatePool pool(4);
  std::vector<StructureId> scored;
  pool.SetVictimScorer(
      [&scored](StructureId id) {
        scored.push_back(id);
        return 1.0;
      },
      /*window=*/3);
  for (StructureId id : {1u, 2u, 3u, 4u}) pool.Touch(id, 0.0);
  pool.Touch(1, 1.0);  // Order now 1, 4, 3, 2 (MRU first).
  pool.Touch(5, 2.0);
  // The three coldest, coldest first; equal scores keep the coldest.
  EXPECT_EQ(scored, (std::vector<StructureId>{2, 3, 4}));
  EXPECT_FALSE(pool.Contains(2));
  scored.clear();
  // A window wider than the pool stops before the just-touched front.
  pool.SetVictimScorer(
      [&scored](StructureId id) {
        scored.push_back(id);
        return static_cast<double>(10 - id);
      },
      /*window=*/16);
  pool.Touch(6, 3.0);  // Order before aging: 6, 5, 1, 4, 3.
  EXPECT_EQ(scored, (std::vector<StructureId>{3, 4, 1, 5}));
  EXPECT_FALSE(pool.Contains(5));  // Lowest score, 10 - 5.
  EXPECT_TRUE(pool.Contains(6));
}

TEST(CandidatePoolTest, SectionBytesMatchGolden) {
  // Snapshot format 4's pool section for this sequence: MRU order, with
  // the pool's in-memory layout free to change under it.
  CandidatePool pool(3);
  pool.Touch(4, 1.0);
  pool.Touch(2, 2.0);
  pool.Touch(6, 3.0);
  pool.Touch(4, 4.0);
  pool.Touch(0, 5.0);  // Evicts 2.
  pool.Erase(6);
  pool.Touch(2, 6.0);  // Re-inserted after its eviction.
  pool.Touch(5, 7.0);  // Evicts 4.
  Encoder enc;
  pool.SaveState(&enc);
  EXPECT_EQ(Hex(enc),
            "0300000000000000"
            "050000000000000000001c40"
            "020000000000000000001840"
            "000000000000000000001440");
}

TEST_F(CandidatePoolRestoreTest, RoundTripKeepsOrderAndAging) {
  CandidatePool pool(3);
  pool.Touch(5, 1.0);
  pool.Touch(0, 2.0);
  pool.Touch(7, 3.0);
  pool.Touch(0, 4.0);
  Encoder enc;
  pool.SaveState(&enc);

  // Restore over a twin holding other entries: they are replaced.
  CandidatePool twin(3);
  twin.Touch(1, 0.5);
  twin.Touch(6, 0.5);
  Decoder dec(enc.buffer().data(), enc.size());
  ASSERT_TRUE(twin.RestoreState(&dec, registry_).ok());
  EXPECT_TRUE(dec.AtEnd());
  EXPECT_FALSE(twin.Contains(1));
  EXPECT_FALSE(twin.Contains(6));
  EXPECT_EQ(twin.size(), 3u);
  EXPECT_EQ(MruOrder(twin), MruOrder(pool));
  // Forward behavior: both age out the same candidate next.
  EXPECT_EQ(twin.Touch(2, 5.0), pool.Touch(2, 5.0));
  EXPECT_EQ(MruOrder(twin), MruOrder(pool));
}

TEST_F(CandidatePoolRestoreTest, RepeatedIdIsRejected) {
  Encoder enc;
  enc.Length(2);
  enc.U32(4u);
  enc.F64(1.0);
  enc.U32(4u);
  enc.F64(2.0);
  CandidatePool pool(4);
  Decoder dec(enc.buffer().data(), enc.size());
  const Status status = pool.RestoreState(&dec, registry_);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("repeats structure id 4"),
            std::string::npos)
      << status.ToString();
}

TEST_F(CandidatePoolRestoreTest, UnknownIdAndOverflowAreRejected) {
  Encoder unknown;
  unknown.Length(1);
  unknown.U32(4'000'000'000u);  // Never interned.
  unknown.F64(1.0);
  CandidatePool pool(4);
  Decoder dec(unknown.buffer().data(), unknown.size());
  EXPECT_FALSE(pool.RestoreState(&dec, registry_).ok());

  Encoder overflow;
  overflow.Length(5);
  for (StructureId id = 0; id < 5; ++id) {
    overflow.U32(id);
    overflow.F64(1.0);
  }
  Decoder dec2(overflow.buffer().data(), overflow.size());
  EXPECT_FALSE(pool.RestoreState(&dec2, registry_).ok());
}

}  // namespace
}  // namespace cloudcache
