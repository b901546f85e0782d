#include "src/plan/skyline.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace cloudcache {
namespace {

QueryPlan MakePlan(double time_s, double cost_dollars, bool existing = true) {
  QueryPlan plan;
  plan.execution.time_seconds = time_s;
  plan.execution.cost = Money::FromDollars(cost_dollars);
  if (!existing) plan.missing.push_back(0);
  return plan;
}

/// Skylines `plans` as one set; they are all existing plans unless a test
/// says otherwise, so they form one partition.
std::vector<size_t> SurvivorIndices(std::vector<QueryPlan> plans) {
  PlanSet set;
  set.plans = std::move(plans);
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
  PlanSet set;
  set.plans.push_back(MakePlan(5, 5, /*existing=*/true));
  // A hypothetical plan that dominates the existing one must NOT evict it:
  // the executable frontier is skylined separately.
  set.plans.push_back(MakePlan(1, 1, /*existing=*/false));
  EXPECT_EQ(SurvivorIndices(set.plans), (std::vector<size_t>{0, 1}));
}

TEST(SkylineFilterTest, FiltersWithinEachPartition) {
  PlanSet set;
  set.plans.push_back(MakePlan(1, 1, true));
  set.plans.push_back(MakePlan(2, 2, true));   // Dominated.
  set.plans.push_back(MakePlan(1, 1, false));
  set.plans.push_back(MakePlan(3, 3, false));  // Dominated.
  EXPECT_EQ(SurvivorIndices(set.plans), (std::vector<size_t>{0, 2}));
}

TEST(SkylineFilterTest, ExistingPartitionComesFirstAndScratchIsReused) {
  // Survivors list the existing partition first, each partition in
  // ascending-time order, whatever the plans' positions; a reused
  // scratch carries nothing over between calls.
  PlanSet set;
  set.plans.push_back(MakePlan(1, 9, false));
  set.plans.push_back(MakePlan(4, 2, true));
  set.plans.push_back(MakePlan(2, 5, true));
  set.plans.push_back(MakePlan(6, 1, false));
  std::vector<size_t> out;
  SkylineScratch scratch;
  SkylineIndicesInto(set, &out, &scratch);
  EXPECT_EQ(out, (std::vector<size_t>{2, 1, 0, 3}));
  SkylineIndicesInto(set, &out, &scratch);
  EXPECT_EQ(out, (std::vector<size_t>{2, 1, 0, 3}));
}

TEST(PlanSetTest, IndexPartition) {
  PlanSet set;
  set.plans.push_back(MakePlan(1, 1, true));
  set.plans.push_back(MakePlan(2, 2, false));
  set.plans.push_back(MakePlan(3, 3, true));
  EXPECT_EQ(set.ExistingIndices(), (std::vector<size_t>{0, 2}));
  EXPECT_EQ(set.PossibleIndices(), (std::vector<size_t>{1}));
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
