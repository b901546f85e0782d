#include "src/plan/skyline.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "tests/testing/plan_sets.h"

namespace cloudcache {
namespace {

using cloudcache::testing::PlanSetOf;

QueryPlan MakePlan(double time_s, double cost_dollars, bool existing = true) {
  QueryPlan plan;
  plan.execution.time_seconds = time_s;
  plan.execution.cost = Money::FromDollars(cost_dollars);
  if (!existing) plan.missing.push_back(0);
  return plan;
}

/// Skylines `plans` as one set; they are all existing plans unless a test
/// says otherwise, so they form one partition.
std::vector<size_t> SurvivorIndices(const std::vector<QueryPlan>& plans) {
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
  QueryPlan cheap_exec = MakePlan(2, 1);
  cheap_exec.carried_charges = Money::FromDollars(100);  // Actually pricey.
  QueryPlan expensive_exec = MakePlan(2, 5);
  const auto kept = SurvivorIndices({cheap_exec, expensive_exec});
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0], 1u);  // 5 < 1 + 100.
}

TEST(SkylineTest, StrictDominanceChain) {
  std::vector<QueryPlan> plans;
  for (int i = 0; i < 10; ++i) {
    plans.push_back(MakePlan(1 + i, 10 - i));  // All on the frontier.
  }
  EXPECT_EQ(SurvivorIndices(plans).size(), 10u);
}

TEST(SkylineFilterTest, PartitionsExistingAndPossible) {
  std::vector<QueryPlan> plans;
  plans.push_back(MakePlan(5, 5, /*existing=*/true));
  // A hypothetical plan that dominates the existing one must NOT evict it:
  // the executable frontier is skylined separately.
  plans.push_back(MakePlan(1, 1, /*existing=*/false));
  EXPECT_EQ(SurvivorIndices(plans), (std::vector<size_t>{0, 1}));
}

TEST(SkylineFilterTest, FiltersWithinEachPartition) {
  std::vector<QueryPlan> plans;
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
/// class's first family), whether its base structures are resident, and
/// its variants' (time, price).
struct FamilySpec {
  uint32_t shape_class;
  bool base_resident;
  std::vector<std::pair<double, int64_t>> variants;
};

PlanSet ClassedSet(const std::vector<FamilySpec>& specs) {
  PlanSet set;
  for (const FamilySpec& spec : specs) {
    PlanFamily family;
    family.first = static_cast<uint32_t>(set.time.size());
    family.count = static_cast<uint32_t>(spec.variants.size());
    family.shape_class = spec.shape_class;
    set.families.push_back(family);
    for (size_t k = 0; k < spec.variants.size(); ++k) {
      set.records.emplace_back();
      set.nodes.push_back(static_cast<uint32_t>(k + 1));
      set.existing.push_back(spec.base_resident ? 1 : 0);
      set.time.push_back(spec.variants[k].first);
      set.price_micros.push_back(spec.variants[k].second);
    }
  }
  return set;
}

std::vector<size_t> Survivors(const PlanSet& set) {
  std::vector<size_t> out;
  SkylineScratch scratch;
  SkylineIndicesInto(set, &out, &scratch);
  return out;
}

// The sets below break PlanSet's price invariant on purpose (a class
// member cheaper at one variant but pricier at another), so the
// survivors show which family the skyline scanned.

TEST(ShapeClassSkylineTest, ScansOnlyTheCheapestFamilyOfAGroup) {
  const PlanSet set = ClassedSet({{0, true, {{10, 100}, {6, 300}}},
                                  {0, true, {{10, 90}, {6, 400}}}});
  EXPECT_EQ(Survivors(set), (std::vector<size_t>{3, 2}));
  EXPECT_EQ(testing::FullScanSkyline(set), (std::vector<size_t>{1, 2}));
}

TEST(ShapeClassSkylineTest, PriceTieGoesToTheLowestFamilyIndex) {
  const PlanSet set = ClassedSet({{0, true, {{10, 100}, {6, 300}}},
                                  {0, true, {{10, 100}, {6, 200}}}});
  EXPECT_EQ(Survivors(set), (std::vector<size_t>{1, 0}));
  EXPECT_EQ(testing::FullScanSkyline(set), (std::vector<size_t>{3, 0}));
}

TEST(ShapeClassSkylineTest, BaseResidencySplitsAGroup) {
  // Same class, different base residency: each family is the cheapest
  // of its own group, so both are scanned, each in its partition.
  const PlanSet set = ClassedSet({{0, true, {{10, 100}, {6, 300}}},
                                  {0, false, {{10, 90}, {6, 400}}}});
  EXPECT_EQ(Survivors(set), (std::vector<size_t>{1, 0, 3, 2}));
}

TEST(ShapeClassSkylineTest, FamiliesOfDistinctClassesAreAllScanned) {
  const PlanSet set = ClassedSet({{0, true, {{10, 100}, {6, 300}}},
                                  {1, true, {{10, 90}, {6, 400}}}});
  EXPECT_EQ(Survivors(set), (std::vector<size_t>{1, 2}));
  EXPECT_EQ(Survivors(set), testing::FullScanSkyline(set));
}

TEST(ShapeClassSkylineTest, GroupsAreChosenAnewEveryCall) {
  // A reused scratch carries no group choice over: repricing flips which
  // member is the cheapest.
  PlanSet set = ClassedSet({{0, true, {{10, 100}, {6, 300}}},
                            {0, true, {{10, 90}, {6, 290}}}});
  std::vector<size_t> out;
  SkylineScratch scratch;
  SkylineIndicesInto(set, &out, &scratch);
  EXPECT_EQ(out, (std::vector<size_t>{3, 2}));
  set.price_micros = {80, 280, 90, 290};
  SkylineIndicesInto(set, &out, &scratch);
  EXPECT_EQ(out, (std::vector<size_t>{1, 0}));
}

TEST(PlanTest, PriceIsExecutionPlusCarried) {
  QueryPlan plan = MakePlan(1, 2);
  plan.carried_charges = Money::FromDollars(3);
  EXPECT_EQ(plan.Price(), Money::FromDollars(5));
}

TEST(PlanTest, ToStringMentionsAccessAndMissing) {
  QueryPlan plan = MakePlan(1.5, 2, /*existing=*/false);
  plan.spec.access = PlanSpec::Access::kCacheIndex;
  plan.spec.cpu_nodes = 3;
  const std::string s = plan.ToString();
  EXPECT_NE(s.find("cache-index[3n]"), std::string::npos);
  EXPECT_NE(s.find("missing"), std::string::npos);
}

}  // namespace
}  // namespace cloudcache
