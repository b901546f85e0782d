// The plan set's hot columns are a regrouping of the single-shot cost
// model: per family ExecutionBase, per family carried sums, a CPU-node
// prefix. This pin recomputes every plan's time and price the naive way
// — CostModel::EstimateExecution per spec plus a per-structure carried
// sum — and the skyline by a (time, price, index) sort-and-scan, and
// demands the same bits, across scheme shapes, with the plan cache on and
// off, for ad hoc queries, and while residency churns (forced builds,
// then maintenance-failure evictions).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>

#include "src/catalog/tpch.h"
#include "src/econ/economy.h"
#include "src/plan/skyline.h"
#include "src/query/templates.h"
#include "src/structure/index_advisor.h"
#include "src/util/rng.h"

namespace cloudcache {
namespace {

enum class Shape { kEconCheap, kEconCol, kBypass };

std::string ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kEconCheap:
      return "econ_cheap";
    case Shape::kEconCol:
      return "econ_col";
    case Shape::kBypass:
      return "bypass";
  }
  return "?";
}

EnumeratorOptions OptionsFor(Shape shape, bool plan_cache) {
  EnumeratorOptions options;
  options.enable_plan_cache = plan_cache;
  if (shape == Shape::kEconCol) {
    options.allow_indexes = false;
    options.allow_parallel = false;
    options.node_options = {1};
  }
  // Without hypothetical plans, variants whose structures are absent are
  // dropped, so families have gaps.
  if (shape == Shape::kBypass) options.include_hypothetical = false;
  return options;
}

/// Reference skyline: each partition (existing first) sorted by
/// (time, price, index), keeping every plan strictly cheaper than all
/// plans before it.
std::vector<size_t> ReferenceSkyline(const PlanSet& set) {
  std::vector<size_t> out;
  for (const uint8_t existing : {uint8_t{1}, uint8_t{0}}) {
    std::vector<std::tuple<double, int64_t, size_t>> keys;
    for (size_t i = 0; i < set.size(); ++i) {
      if (set.existing[i] == existing) {
        keys.emplace_back(set.time[i], set.price_micros[i], i);
      }
    }
    std::sort(keys.begin(), keys.end());
    int64_t cheapest = std::numeric_limits<int64_t>::max();
    for (const auto& [time, price, index] : keys) {
      if (price < cheapest) {
        cheapest = price;
        out.push_back(index);
      }
    }
  }
  return out;
}

using Param = std::tuple<Shape, bool>;

class PlanColumnsTest : public ::testing::TestWithParam<Param> {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog(MakeTpchCatalog(100.0));
    templates_ = new std::vector<ResolvedTemplate>(
        *ResolveTemplates(*catalog_, MakeTpchTemplates()));
  }
  static void TearDownTestSuite() {
    delete templates_;
    templates_ = nullptr;
    delete catalog_;
    catalog_ = nullptr;
  }

  PlanColumnsTest()
      : prices_(PriceList::AmazonEc2_2009()),
        model_(catalog_, &prices_),
        registry_(catalog_) {
    const auto [shape, plan_cache] = GetParam();
    EconomyOptions economy;
    economy.model_build_latency = false;
    economy.initial_credit = Money::FromDollars(1000);
    engine_ = std::make_unique<EconomyEngine>(
        catalog_, &registry_, &model_, OptionsFor(shape, plan_cache),
        economy);
    if (shape != Shape::kEconCol) {
      engine_->SetIndexCandidates(RecommendIndexes(*catalog_, *templates_, 65));
    }
  }

  Query MakeQuery(Rng& rng, uint64_t id) {
    const int t = static_cast<int>(id % templates_->size());
    Query query = InstantiateQuery((*templates_)[t], *catalog_, rng, t, id);
    if (id % 5 == 4) query.template_id = -1;  // Ad hoc.
    return query;
  }

  /// Quotes `query` at `now` and checks every column against the naive
  /// recomputation, and the skyline against the reference.
  void CheckQuote(const Query& query, SimTime now) {
    engine_->OnTick(now);
    const PlanSet& set = engine_->Quote(query, now);
    ASSERT_EQ(set.time.size(), set.size());
    ASSERT_EQ(set.price_micros.size(), set.size());
    ASSERT_EQ(set.existing.size(), set.size());
    ASSERT_EQ(set.nodes.size(), set.size());
    for (size_t i = 0; i < set.size(); ++i) {
      const PlanRecord& record = set.records[i];
      const ExecutionEstimate single =
          model_.EstimateExecution(query, record.spec);
      Money carried;
      for (StructureId id : record.structures) {
        carried += engine_->CarriedCharge(id, now);
      }
      ASSERT_EQ(set.time[i], single.time_seconds)
          << "plan " << i << " of query " << query.id;
      ASSERT_EQ(set.price_micros[i], (single.cost + carried).micros())
          << "plan " << i << " of query " << query.id;
      ASSERT_EQ(set.existing[i] != 0, record.IsExisting()) << "plan " << i;
      ASSERT_EQ(set.nodes[i], record.spec.cpu_nodes) << "plan " << i;
      ++plans_checked_;
      multi_node_plans_ += record.spec.cpu_nodes > 1;
    }
    std::vector<size_t> survivors;
    SkylineIndicesInto(set, &survivors, &scratch_);
    ASSERT_EQ(survivors, ReferenceSkyline(set)) << "query " << query.id;
  }

  /// Serves `query` and checks the materialized plan against the
  /// single-shot estimate.
  void Serve(const Query& query, SimTime now) {
    PlanSpec backend;
    backend.access = PlanSpec::Access::kBackend;
    const ExecutionEstimate quote = model_.EstimateExecution(query, backend);
    // Generous enough that cache plans earn regret and investments fire.
    const StepBudget budget(quote.cost * 1.5, quote.time_seconds * 2.0);
    const QueryOutcome outcome = engine_->OnQuery(query, budget, now);
    if (!outcome.served) return;
    const ExecutionEstimate single =
        model_.EstimateExecution(query, outcome.chosen.spec);
    EXPECT_EQ(outcome.chosen.execution.time_seconds, single.time_seconds);
    EXPECT_EQ(outcome.chosen.execution.cpu_seconds, single.cpu_seconds);
    EXPECT_EQ(outcome.chosen.execution.io_ops, single.io_ops);
    EXPECT_EQ(outcome.chosen.execution.wan_bytes, single.wan_bytes);
    EXPECT_EQ(outcome.chosen.execution.cost, single.cost);
    EXPECT_EQ(outcome.profit, outcome.payment - outcome.chosen.Price());
  }

  static Catalog* catalog_;
  static std::vector<ResolvedTemplate>* templates_;
  PriceList prices_;
  CostModel model_;
  StructureRegistry registry_;
  std::unique_ptr<EconomyEngine> engine_;
  SkylineScratch scratch_;
  size_t plans_checked_ = 0;
  size_t multi_node_plans_ = 0;
};

Catalog* PlanColumnsTest::catalog_ = nullptr;
std::vector<ResolvedTemplate>* PlanColumnsTest::templates_ = nullptr;

TEST_P(PlanColumnsTest, ColumnsMatchSingleShotThroughResidencyChurn) {
  const auto [shape, plan_cache] = GetParam();
  Rng rng(41);
  SimTime now = 0;
  uint64_t id = 0;
  const auto run = [&](int queries) {
    for (int k = 0; k < queries; ++k, ++id, now += 10.0) {
      const Query query = MakeQuery(rng, id);
      CheckQuote(query, now);
      if (HasFatalFailure()) return;
      Serve(query, now);
    }
  };

  run(120);
  ASSERT_FALSE(HasFatalFailure());

  // Churn 1: force-build every accessed column of a few templates, and a
  // CPU node, so existing plans gain cache paths and multi-node variants.
  const size_t before = engine_->cache().Residents().size();
  for (size_t t = 0; t < 4; ++t) {
    Query query = InstantiateQuery((*templates_)[t], *catalog_, rng,
                                   static_cast<int>(t), id);
    for (ColumnId col : query.AccessedColumns()) {
      (void)engine_->ForceBuild(ColumnKey(*catalog_, col), now);
    }
  }
  (void)engine_->ForceBuild(CpuNodeKey(0), now);
  ASSERT_GT(engine_->cache().Residents().size(), before);
  run(120);
  ASSERT_FALSE(HasFatalFailure());

  // Churn 2: a long idle spell lets unpaid rent exceed the failure
  // threshold, evicting structures before the next queries.
  const size_t built = engine_->cache().Residents().size();
  now += 1e8;
  engine_->OnTick(now);
  ASSERT_LT(engine_->cache().Residents().size(), built);
  run(120);
  ASSERT_FALSE(HasFatalFailure());

  EXPECT_GT(plans_checked_, 360u);
  if (shape != Shape::kEconCol) {
    EXPECT_GT(multi_node_plans_, 0u);
  }
  if (plan_cache) {
    EXPECT_GT(engine_->enumerator().plan_cache_hits(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PlanColumnsTest,
    ::testing::Combine(::testing::Values(Shape::kEconCheap, Shape::kEconCol,
                                         Shape::kBypass),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<Param>& info) {
      return ShapeName(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_cached" : "_uncached");
    });

}  // namespace
}  // namespace cloudcache
