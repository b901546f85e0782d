#include "src/plan/skyline.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "tests/testing/plan_sets.h"

namespace cloudcache {
namespace {

using cloudcache::testing::PlanSetOf;
using cloudcache::testing::PricedPlan;

PricedPlan MakePlan(double time_s, double cost_dollars, bool existing = true) {
  PricedPlan plan;
  plan.time = time_s;
  plan.ce = Money::FromDollars(cost_dollars);
  plan.existing = existing;
  return plan;
}

/// Skylines `plans` as one set; they are all existing plans unless a test
/// says otherwise, so they form one partition.
std::vector<size_t> SurvivorIndices(const std::vector<PricedPlan>& plans) {
  const PlanSet set = PlanSetOf(plans);
  std::vector<size_t> out;
  SkylineScratch scratch;
  SkylineIndicesInto(set, &out, &scratch);
  return out;
}

TEST(SkylineTest, EmptyInput) {
  EXPECT_TRUE(SurvivorIndices({}).empty());
}

TEST(SkylineTest, SinglePlanSurvives) {
  EXPECT_EQ(SurvivorIndices({MakePlan(1, 1)}).size(), 1u);
}

TEST(SkylineTest, DominatedPlanRemoved) {
  // Plan 1 is slower AND pricier than plan 0.
  const auto kept = SurvivorIndices({MakePlan(1, 1), MakePlan(2, 2)});
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0], 0u);
}

TEST(SkylineTest, TradeoffFrontierKept) {
  // Faster-but-pricier and slower-but-cheaper both survive.
  const auto kept = SurvivorIndices({MakePlan(1, 10), MakePlan(5, 2)});
  EXPECT_EQ(kept.size(), 2u);
}

TEST(SkylineTest, SameTimeKeepsCheapest) {
  // Footnote 2: equal execution time -> only the cheapest survives.
  const auto kept =
      SurvivorIndices({MakePlan(3, 7), MakePlan(3, 2), MakePlan(3, 5)});
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0], 1u);
}

TEST(SkylineTest, SamePriceKeepsFastest) {
  const auto kept = SurvivorIndices({MakePlan(5, 2), MakePlan(3, 2)});
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0], 1u);
}

TEST(SkylineTest, ResultSortedByTime) {
  const auto kept = SurvivorIndices(
      {MakePlan(9, 1), MakePlan(1, 9), MakePlan(5, 5), MakePlan(3, 7)});
  EXPECT_EQ(kept.size(), 4u);
  // Indices in ascending-time order: plan1 (t=1), plan3, plan2, plan0.
  EXPECT_EQ(kept[0], 1u);
  EXPECT_EQ(kept[1], 3u);
  EXPECT_EQ(kept[2], 2u);
  EXPECT_EQ(kept[3], 0u);
}

TEST(SkylineTest, PriceIncludesCarriedCharges) {
  PricedPlan cheap_exec = MakePlan(2, 1);
  cheap_exec.carried = Money::FromDollars(100);  // Actually pricey.
  PricedPlan expensive_exec = MakePlan(2, 5);
  const auto kept = SurvivorIndices({cheap_exec, expensive_exec});
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0], 1u);  // 5 < 1 + 100.
}

TEST(SkylineTest, StrictDominanceChain) {
  std::vector<PricedPlan> plans;
  for (int i = 0; i < 10; ++i) {
    plans.push_back(MakePlan(1 + i, 10 - i));  // All on the frontier.
  }
  EXPECT_EQ(SurvivorIndices(plans).size(), 10u);
}

TEST(SkylineFilterTest, PartitionsExistingAndPossible) {
  std::vector<PricedPlan> plans;
  plans.push_back(MakePlan(5, 5, /*existing=*/true));
  // A hypothetical plan that dominates the existing one must NOT evict it:
  // the executable frontier is skylined separately.
  plans.push_back(MakePlan(1, 1, /*existing=*/false));
  EXPECT_EQ(SurvivorIndices(plans), (std::vector<size_t>{0, 1}));
}

TEST(SkylineFilterTest, FiltersWithinEachPartition) {
  std::vector<PricedPlan> plans;
  plans.push_back(MakePlan(1, 1, true));
  plans.push_back(MakePlan(2, 2, true));   // Dominated.
  plans.push_back(MakePlan(1, 1, false));
  plans.push_back(MakePlan(3, 3, false));  // Dominated.
  EXPECT_EQ(SurvivorIndices(plans), (std::vector<size_t>{0, 2}));
}

TEST(SkylineFilterTest, ExistingPartitionComesFirstAndScratchIsReused) {
  // Survivors list the existing partition first, each partition in
  // ascending-time order, whatever the plans' positions; a reused
  // scratch carries nothing over between calls.
  const PlanSet set =
      PlanSetOf({MakePlan(1, 9, false), MakePlan(4, 2, true),
                 MakePlan(2, 5, true), MakePlan(6, 1, false)});
  std::vector<size_t> out;
  SkylineScratch scratch;
  SkylineIndicesInto(set, &out, &scratch);
  EXPECT_EQ(out, (std::vector<size_t>{2, 1, 0, 3}));
  SkylineIndicesInto(set, &out, &scratch);
  EXPECT_EQ(out, (std::vector<size_t>{2, 1, 0, 3}));
}

TEST(PlanSetTest, IndexPartition) {
  // The skyline partitions on the is-existing column alone: flipping a
  // plan's bit moves it across partitions whatever its record says.
  PlanSet set = PlanSetOf(
      {MakePlan(1, 3, true), MakePlan(2, 2, false), MakePlan(3, 1, true)});
  EXPECT_EQ(set.existing, (std::vector<uint8_t>{1, 0, 1}));
  std::vector<size_t> out;
  SkylineScratch scratch;
  SkylineIndicesInto(set, &out, &scratch);
  EXPECT_EQ(out, (std::vector<size_t>{0, 2, 1}));
  set.existing = {0, 1, 0};
  SkylineIndicesInto(set, &out, &scratch);
  EXPECT_EQ(out, (std::vector<size_t>{1, 0, 2}));
}

// --- Shape classes --------------------------------------------------------

/// One family of a hand-built set: its shape class (the index of the
/// class's first family), whether its base structures are resident, its
/// base charge, and its variants' (time, Ce). A member family reads its
/// class's variants by layout, so only its variant count is used.
struct FamilySpec {
  uint32_t shape_class;
  bool base_resident;
  int64_t base;
  std::vector<std::pair<double, int64_t>> variants;
};

PlanSet ClassedSet(const std::vector<FamilySpec>& specs) {
  PlanSet set;
  set.cpu_prefix_micros = {0, 5, 12, 20};
  for (const FamilySpec& spec : specs) {
    PlanFamily family;
    family.first = static_cast<uint32_t>(set.size());
    family.count = static_cast<uint32_t>(spec.variants.size());
    family.shape_class = spec.shape_class;
    set.base_micros.push_back(spec.base);
    for (size_t k = 0; k < spec.variants.size(); ++k) {
      set.records.emplace_back();
      set.family.push_back(static_cast<uint32_t>(set.families.size()));
      set.nodes.push_back(static_cast<uint32_t>(k + 1));
      set.existing.push_back(spec.base_resident ? 1 : 0);
      set.time.push_back(spec.variants[k].first);
      set.ce_micros.push_back(spec.variants[k].second);
    }
    set.families.push_back(family);
  }
  return set;
}

/// The survivors of `set`, and the families the skyline scanned.
std::vector<size_t> Survivors(const PlanSet& set,
                              std::vector<uint32_t>* scanned = nullptr) {
  std::vector<size_t> out;
  SkylineScratch scratch;
  SkylineIndicesInto(set, &out, &scratch);
  if (scanned != nullptr) *scanned = scratch.scanned;
  return out;
}

// A member family's variants are its class's plus a constant, so pruning
// never shows in the survivors; the scanned list shows which family the
// skyline read.

TEST(ShapeClassSkylineTest, ScansOnlyTheCheapestFamilyOfAGroup) {
  const PlanSet set = ClassedSet({{0, true, 10, {{10, 100}, {6, 300}}},
                                  {0, true, 0, {{0, 0}, {0, 0}}}});
  std::vector<uint32_t> scanned;
  EXPECT_EQ(Survivors(set, &scanned), (std::vector<size_t>{3, 2}));
  EXPECT_EQ(scanned, (std::vector<uint32_t>{1}));
  EXPECT_EQ(Survivors(set), testing::FullScanSkyline(set));
  // The member's variants are the leader's estimates plus its own base.
  EXPECT_EQ(set.Time(3), 6.0);
  EXPECT_EQ(set.PriceMicros(3), 300 + 0 + 5);
  EXPECT_EQ(set.PriceMicros(1), 300 + 10 + 5);
}

TEST(ShapeClassSkylineTest, PriceTieGoesToTheLowestFamilyIndex) {
  const PlanSet set = ClassedSet({{0, true, 10, {{10, 100}, {6, 300}}},
                                  {0, true, 10, {{0, 0}, {0, 0}}}});
  std::vector<uint32_t> scanned;
  EXPECT_EQ(Survivors(set, &scanned), (std::vector<size_t>{1, 0}));
  EXPECT_EQ(scanned, (std::vector<uint32_t>{0}));
  EXPECT_EQ(Survivors(set), testing::FullScanSkyline(set));
}

TEST(ShapeClassSkylineTest, BaseResidencySplitsAGroup) {
  // Same class, different base residency: each family is the cheapest
  // of its own group, so both are scanned, each in its partition — even
  // though the non-resident member is the cheaper one.
  const PlanSet set = ClassedSet({{0, true, 10, {{10, 100}, {6, 300}}},
                                  {0, false, 0, {{0, 0}, {0, 0}}}});
  std::vector<uint32_t> scanned;
  EXPECT_EQ(Survivors(set, &scanned), (std::vector<size_t>{1, 0, 3, 2}));
  EXPECT_EQ(scanned, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(Survivors(set), testing::FullScanSkyline(set));
}

TEST(ShapeClassSkylineTest, FamiliesOfDistinctClassesAreAllScanned) {
  const PlanSet set = ClassedSet({{0, true, 0, {{10, 100}, {6, 300}}},
                                  {1, true, 0, {{10, 90}, {6, 400}}}});
  std::vector<uint32_t> scanned;
  EXPECT_EQ(Survivors(set, &scanned), (std::vector<size_t>{1, 2}));
  EXPECT_EQ(scanned, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(Survivors(set), testing::FullScanSkyline(set));
}

TEST(ShapeClassSkylineTest, GroupsAreChosenAnewEveryCall) {
  // A reused scratch carries no group choice over: repricing flips which
  // member is the cheapest.
  PlanSet set = ClassedSet({{0, true, 10, {{10, 100}, {6, 300}}},
                            {0, true, 0, {{0, 0}, {0, 0}}}});
  std::vector<size_t> out;
  SkylineScratch scratch;
  SkylineIndicesInto(set, &out, &scratch);
  EXPECT_EQ(out, (std::vector<size_t>{3, 2}));
  EXPECT_EQ(scratch.scanned, (std::vector<uint32_t>{1}));
  set.base_micros = {0, 10};
  SkylineIndicesInto(set, &out, &scratch);
  EXPECT_EQ(out, (std::vector<size_t>{1, 0}));
  EXPECT_EQ(scratch.scanned, (std::vector<uint32_t>{0}));
}

TEST(PlanTest, PriceIsExecutionPlusCarried) {
  // C = Ce + Ca: the class's Ce at the variant, the family's base charge,
  // and the CPU-node prefix at the variant's node count.
  const PlanSet set = ClassedSet({{0, false, 7, {{10, 100}, {6, 300}}}});
  EXPECT_EQ(set.Price(0), Money::FromMicros(100 + 7));
  EXPECT_EQ(set.Price(1), Money::FromMicros(300 + 7 + 5));
}

}  // namespace
}  // namespace cloudcache
