// Property-style invariant tests: randomized inputs, structural truths.
//
// Where the unit tests pin exact values on hand-built scenarios, these
// sweep randomized configurations and assert the invariants that must
// hold for *every* input: conservation of money, Pareto-correctness of
// the skyline, monotonicity of the cost model, and the economy's
// bookkeeping identities.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <utility>
#include <vector>

#include "src/catalog/tpch.h"
#include "src/plan/skyline.h"
#include "src/sim/experiment.h"
#include "src/structure/index_advisor.h"
#include "src/workload/trace.h"
#include "tests/testing/budget_monotone.h"
#include "tests/testing/fixtures.h"
#include "tests/testing/plan_sets.h"

namespace cloudcache {
namespace {

// ---------------------------------------------------------------- skyline

using testing::PricedPlan;

PricedPlan RandomPlan(Rng& rng) {
  PricedPlan plan;
  plan.time = rng.NextUniform(0.1, 100.0);
  plan.ce = Money::FromMicros(rng.NextInt(1, 1'000'000));
  plan.existing = !rng.NextBernoulli(0.5);
  return plan;
}

Money PriceOf(const PricedPlan& plan) { return plan.ce + plan.carried; }

bool Dominates(const PricedPlan& a, const PricedPlan& b) {
  const bool no_worse = a.time <= b.time && PriceOf(a) <= PriceOf(b);
  const bool better = a.time < b.time || PriceOf(a) < PriceOf(b);
  return no_worse && better;
}

class SkylineProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SkylineProperty, SurvivorsAreUndominatedAndLosersAreDominated) {
  Rng rng(GetParam());
  std::vector<PricedPlan> plans;
  const int n = static_cast<int>(rng.NextInt(1, 60));
  for (int i = 0; i < n; ++i) plans.push_back(RandomPlan(rng));
  const PlanSet set = testing::PlanSetOf(plans);

  std::vector<size_t> kept;
  SkylineScratch scratch;
  SkylineIndicesInto(set, &kept, &scratch);
  ASSERT_FALSE(kept.empty());

  std::vector<bool> is_kept(plans.size(), false);
  for (size_t idx : kept) is_kept[idx] = true;

  // Existing and possible plans are skylined separately, so dominance
  // only counts within a plan's own partition.
  const auto same_partition = [&](size_t i, size_t j) {
    return plans[i].existing == plans[j].existing;
  };
  for (size_t i = 0; i < plans.size(); ++i) {
    if (is_kept[i]) {
      // No plan of its partition strictly dominates a survivor.
      for (size_t j = 0; j < plans.size(); ++j) {
        EXPECT_FALSE(j != i && same_partition(i, j) &&
                     Dominates(plans[j], plans[i]))
            << "plan " << j << " dominates surviving plan " << i;
      }
    } else {
      // Every eliminated plan is dominated by, or duplicates, a survivor
      // of its partition.
      bool justified = false;
      for (size_t idx : kept) {
        if (!same_partition(idx, i)) continue;
        justified |= Dominates(plans[idx], plans[i]);
        justified |= plans[idx].time == plans[i].time &&
                     PriceOf(plans[idx]) == PriceOf(plans[i]);
      }
      EXPECT_TRUE(justified) << "plan " << i << " eliminated unjustly";
    }
  }

  // Survivors list the existing partition first, each partition in
  // strictly ascending time.
  for (size_t k = 1; k < kept.size(); ++k) {
    const PricedPlan& prev = plans[kept[k - 1]];
    const PricedPlan& next = plans[kept[k]];
    if (same_partition(kept[k - 1], kept[k])) {
      EXPECT_LT(prev.time, next.time);
    } else {
      EXPECT_TRUE(prev.existing && !next.existing);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkylineProperty,
                         ::testing::Range<uint64_t>(1, 26));

/// A random plan set shaped like the enumerator's: a few shapes of 1-4
/// node variants, each duplicated into 1-4 member families in shuffled
/// order. The shape's first family holds its (time, Ce) per variant, and
/// variant k of a member is priced by layout: that Ce plus the member's
/// base charge (often tied with another member's) plus a CPU-node prefix
/// shared by the set. It exists iff the member's base and the first k CPU
/// nodes are resident. Times come from a coarse grid, so equal-time
/// groups span shapes.
PlanSet RandomClassedSet(Rng& rng) {
  const auto max_nodes = static_cast<size_t>(rng.NextInt(1, 4));
  std::vector<int64_t> cpu_prefix = {0};
  std::vector<uint8_t> cpu_resident = {1};
  while (cpu_prefix.size() < max_nodes) {
    cpu_prefix.push_back(cpu_prefix.back() + rng.NextInt(0, 40));
    cpu_resident.push_back(cpu_resident.back() && rng.NextBernoulli(0.6));
  }
  struct Shape {
    std::vector<double> time;
    std::vector<int64_t> ce;
  };
  std::vector<Shape> shapes(static_cast<size_t>(rng.NextInt(1, 7)));
  std::vector<size_t> order;  // Shape of each family, shuffled below.
  for (size_t s = 0; s < shapes.size(); ++s) {
    const auto variants = static_cast<size_t>(rng.NextInt(1, max_nodes));
    for (size_t k = 0; k < variants; ++k) {
      shapes[s].time.push_back(0.5 * static_cast<double>(rng.NextInt(1, 12)));
      shapes[s].ce.push_back(rng.NextInt(1, 200));
    }
    order.insert(order.end(), static_cast<size_t>(rng.NextInt(1, 4)), s);
  }
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }

  PlanSet set;
  set.cpu_prefix_micros = cpu_prefix;
  std::vector<uint32_t> class_of(shapes.size(), UINT32_MAX);
  for (size_t s : order) {
    const auto f = static_cast<uint32_t>(set.families.size());
    if (class_of[s] == UINT32_MAX) class_of[s] = f;
    PlanFamily family;
    family.first = static_cast<uint32_t>(set.size());
    family.count = static_cast<uint32_t>(shapes[s].time.size());
    family.shape_class = class_of[s];
    set.families.push_back(family);
    const int64_t base =
        !set.base_micros.empty() && rng.NextBernoulli(0.3)
            ? set.base_micros[rng.NextBounded(set.base_micros.size())]
            : rng.NextInt(0, 150);
    set.base_micros.push_back(base);
    const bool base_resident = rng.NextBernoulli(0.5);
    for (size_t k = 0; k < family.count; ++k) {
      set.records.emplace_back();
      set.family.push_back(f);
      set.nodes.push_back(static_cast<uint32_t>(k + 1));
      set.existing.push_back(base_resident && cpu_resident[k] ? 1 : 0);
      // Only the class's first family's slots are read.
      set.time.push_back(class_of[s] == f ? shapes[s].time[k] : -1.0);
      set.ce_micros.push_back(class_of[s] == f ? shapes[s].ce[k] : -1);
    }
  }
  return set;
}

class ShapeClassSkylineProperty : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ShapeClassSkylineProperty, PrunedScanEqualsFullScan) {
  Rng rng(GetParam());
  size_t pruned_sets = 0;
  for (int round = 0; round < 50; ++round) {
    const PlanSet set = RandomClassedSet(rng);
    std::vector<size_t> kept;
    SkylineScratch scratch;
    SkylineIndicesInto(set, &kept, &scratch);
    ASSERT_EQ(kept, testing::FullScanSkyline(set)) << "round " << round;
    pruned_sets += testing::HasSharedShapeClass(set);
  }
  EXPECT_GT(pruned_sets, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShapeClassSkylineProperty,
                         ::testing::Range<uint64_t>(1, 21));

// ------------------------------------------------------------ cost model

class CostMonotonicity : public ::testing::TestWithParam<uint64_t> {
 protected:
  CostMonotonicity()
      : catalog_(testing::MakeTinyCatalog()),
        prices_(testing::MakeRoundPrices()),
        model_(&catalog_, &prices_) {}

  Catalog catalog_;
  PriceList prices_;
  CostModel model_;
};

TEST_P(CostMonotonicity, WiderSelectionNeverCheaperOrFaster) {
  Rng rng(GetParam());
  const double lo = rng.NextUniform(0.001, 0.4);
  const double hi = lo * rng.NextUniform(1.01, 2.0);
  const Query narrow = testing::MakeTinyQuery(catalog_, lo);
  const Query wide = testing::MakeTinyQuery(catalog_, std::min(1.0, hi));
  for (auto access : {PlanSpec::Access::kBackend,
                      PlanSpec::Access::kCacheScan}) {
    PlanSpec spec;
    spec.access = access;
    const ExecutionEstimate en = model_.EstimateExecution(narrow, spec);
    const ExecutionEstimate ew = model_.EstimateExecution(wide, spec);
    EXPECT_LE(en.time_seconds, ew.time_seconds * (1 + 1e-9));
    EXPECT_LE(en.cost.micros(), ew.cost.micros() + 1);
  }
}

TEST_P(CostMonotonicity, ParallelFactorsAreSane) {
  Rng rng(GetParam() + 1000);
  const double f = rng.NextUniform(0.0, 1.0);
  double prev_time = 2.0;
  for (uint32_t k = 1; k <= 16; ++k) {
    const double time = model_.ParallelTimeFactor(f, k);
    const double cpu = model_.ParallelCpuFactor(f, k);
    EXPECT_GT(time, 0.0);
    EXPECT_LE(time, 1.0 + 1e-12);
    EXPECT_GE(cpu, 1.0 - 1e-12);  // Parallelism never reduces total CPU.
    EXPECT_LE(time, prev_time + 1e-12);  // More nodes never slower.
    // Work conservation: k nodes for time t provide >= the serial work.
    EXPECT_GE(static_cast<double>(k) * time, 1.0 - 1e-9);
    prev_time = time;
  }
}

TEST_P(CostMonotonicity, SupersetIndexCostsAtLeastAsMuchToBuild) {
  Rng rng(GetParam() + 2000);
  const ColumnId date = *catalog_.FindColumn("fact.f_date");
  const ColumnId value = *catalog_.FindColumn("fact.f_value");
  std::vector<bool> cached(catalog_.num_columns(),
                           rng.NextBernoulli(0.5));
  const Money single =
      model_.BuildCost(IndexKey(catalog_, {date}), cached);
  const Money composite =
      model_.BuildCost(IndexKey(catalog_, {date, value}), cached);
  EXPECT_GE(composite, single);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostMonotonicity,
                         ::testing::Range<uint64_t>(1, 21));

// --------------------------------------------------------------- economy

class EconomyInvariants : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EconomyInvariants, BooksBalanceUnderRandomTraffic) {
  const Catalog catalog = testing::MakeTinyCatalog();
  const PriceList prices = testing::MakeRoundPrices();
  const CostModel model(&catalog, &prices);
  StructureRegistry registry(&catalog);
  Rng rng(GetParam());

  EconomyOptions options;
  options.initial_credit = Money::FromDollars(rng.NextUniform(0.1, 20));
  options.regret_fraction_a = rng.NextUniform(0.001, 0.5);
  options.amortization_horizon = rng.NextInt(1, 500);
  options.model_build_latency = rng.NextBernoulli(0.5);
  options.maintenance_failure_fraction = rng.NextUniform(0.01, 0.9);
  options.selection = static_cast<PlanSelection>(rng.NextInt(0, 2));
  EconomyEngine engine(&catalog, &registry, &model, EnumeratorOptions{},
                       options);
  const ColumnId date = *catalog.FindColumn("fact.f_date");
  const ColumnId value = *catalog.FindColumn("fact.f_value");
  engine.SetIndexCandidates(
      {IndexKey(catalog, {date}), IndexKey(catalog, {date, value})});

  double now = 0;
  for (int i = 0; i < 300; ++i) {
    now += rng.NextExponential(20.0);
    const Query q = testing::MakeTinyQuery(
        catalog, rng.NextUniform(0.001, 0.4), static_cast<uint64_t>(i));
    const BudgetFunction budget{
        BudgetShape::kStep, Money::FromDollars(rng.NextUniform(0.00001, 0.01)),
        rng.NextUniform(0.01, 1000.0)};
    const QueryOutcome outcome = engine.OnQuery(q, budget, now);

    // Identity: credit == initial + revenue - expenditure - investment.
    const CloudAccount& account = engine.account();
    ASSERT_EQ(account.credit(),
              account.initial_credit() + account.total_revenue() -
                  account.total_expenditure() - account.total_investment())
        << "seed " << GetParam() << " query " << i;

    // Profit is never negative; payments cover the plan price.
    ASSERT_GE(outcome.profit.micros(), 0);
    if (outcome.served) {
      ASSERT_GE(outcome.payment, outcome.chosen.price);
      // The executed plan's CPU nodes are resident, and so are the
      // columns a column scan reads (SettleExecution checks every
      // structure of the plan).
      const PlanSpec& spec = outcome.chosen.spec;
      ASSERT_LE(spec.cpu_nodes, engine.cache().extra_cpu_nodes() + 1);
      if (spec.access == PlanSpec::Access::kCacheScan) {
        for (ColumnId col : q.AccessedColumns()) {
          ASSERT_TRUE(engine.cache().ColumnResident(col));
        }
      }
    }

    // Regret is non-negative by construction.
    ASSERT_GE(engine.regret().Total().micros(), 0);

    // Structures invested this round are no longer regretted.
    for (StructureId id : outcome.investments) {
      ASSERT_TRUE(engine.regret().Get(id).IsZero());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EconomyInvariants,
                         ::testing::Range<uint64_t>(1, 16));

// ------------------------------------------------------------- simulator

struct SimCase {
  SchemeKind scheme;
  double interarrival;
  uint64_t seed;
};

// ctest names each case after its printed parameter. gtest's fallback
// prints the raw bytes, padding included, which would make the names
// change from run to run; print the fields instead.
void PrintTo(const SimCase& c, std::ostream* os) {
  *os << SchemeKindToString(c.scheme) << '_' << c.interarrival << "s_seed"
      << c.seed;
}

class SimulatorInvariants : public ::testing::TestWithParam<SimCase> {};

TEST_P(SimulatorInvariants, MetricsAreStructurallyConsistent) {
  static const Catalog catalog = MakeTpchCatalog(50.0);
  static const std::vector<QueryTemplate> templates = MakeTpchTemplates();
  const SimCase param = GetParam();

  ExperimentConfig config;
  config.scheme = param.scheme;
  config.workload.interarrival_seconds = param.interarrival;
  config.workload.seed = param.seed;
  config.sim.num_queries = 1200;
  config.customize_econ = [](EconScheme::Config& econ) {
    econ.economy.regret_fraction_a = 0.005;
    econ.economy.initial_credit = Money::FromDollars(30);
    econ.economy.model_build_latency = false;
  };
  const SimMetrics m = RunExperiment(catalog, templates, config);

  EXPECT_EQ(m.queries, 1200u);
  EXPECT_LE(m.served, m.queries);
  EXPECT_EQ(m.served_in_cache + m.served_in_backend, m.served);
  EXPECT_GE(m.operating_cost.cpu_dollars, 0.0);
  EXPECT_GE(m.operating_cost.network_dollars, 0.0);
  EXPECT_GE(m.operating_cost.disk_dollars, 0.0);
  EXPECT_GE(m.operating_cost.io_dollars, 0.0);
  EXPECT_GT(m.operating_cost.Total(), 0.0);
  EXPECT_EQ(m.response_hist.count(), m.served);
  EXPECT_GE(m.response_hist.Quantile(1.0), m.response_hist.Quantile(0.0));
  EXPECT_GE(m.MeanResponse(), m.response_hist.Quantile(0.0));
  EXPECT_LE(m.MeanResponse(), m.response_hist.Quantile(1.0));
  // Cumulative cost timeline is non-decreasing and ends at the total.
  double last = -1;
  for (double v : m.cost_over_time.values()) {
    EXPECT_GE(v, last);
    last = v;
  }
  EXPECT_NEAR(last, m.operating_cost.Total(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SimulatorInvariants,
    ::testing::Values(SimCase{SchemeKind::kBypassYield, 1.0, 1},
                      SimCase{SchemeKind::kBypassYield, 60.0, 2},
                      SimCase{SchemeKind::kEconCol, 1.0, 3},
                      SimCase{SchemeKind::kEconCol, 60.0, 4},
                      SimCase{SchemeKind::kEconCheap, 1.0, 5},
                      SimCase{SchemeKind::kEconCheap, 60.0, 6},
                      SimCase{SchemeKind::kEconFast, 1.0, 7},
                      SimCase{SchemeKind::kEconFast, 60.0, 8}));

// ----------------------------------------------------------- trace replay

TEST(TraceReplayInvariant, ReplayedStreamDrivesIdenticalDecisions) {
  // A recorded trace must be a perfect substitute for the live generator:
  // the same scheme makes the same decisions query for query.
  const Catalog catalog = MakeTpchCatalog(50.0);
  Result<std::vector<ResolvedTemplate>> resolved =
      ResolveTemplates(catalog, MakeTpchTemplates());
  ASSERT_TRUE(resolved.ok());

  WorkloadOptions wl;
  wl.interarrival_seconds = 2.0;
  wl.seed = 31;
  WorkloadGenerator generator(&catalog, *resolved, wl);
  std::vector<Query> live;
  for (int i = 0; i < 600; ++i) live.push_back(generator.Next());

  const std::string csv = TraceWriter::ToCsv(live);
  Result<std::vector<Query>> replayed = TraceReader::FromCsv(csv, catalog);
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed->size(), live.size());

  const PriceList prices = PriceList::AmazonEc2_2009();
  const std::vector<StructureKey> indexes =
      RecommendIndexes(catalog, *resolved, 65);
  auto make_scheme = [&]() {
    EconScheme::Config config = EconScheme::EconCheapConfig();
    config.economy.regret_fraction_a = 0.005;
    config.economy.initial_credit = Money::FromDollars(30);
    config.economy.model_build_latency = false;
    config.seed = 5;
    return std::make_unique<EconScheme>(&catalog, &prices, indexes,
                                        std::move(config));
  };
  auto live_scheme = make_scheme();
  auto replay_scheme = make_scheme();
  for (size_t i = 0; i < live.size(); ++i) {
    const ServedQuery a =
        live_scheme->OnQuery(live[i], live[i].arrival_time);
    const ServedQuery b =
        replay_scheme->OnQuery((*replayed)[i], (*replayed)[i].arrival_time);
    ASSERT_EQ(a.spec.access, b.spec.access) << "query " << i;
    ASSERT_EQ(a.spec.cpu_nodes, b.spec.cpu_nodes) << "query " << i;
    ASSERT_EQ(a.payment, b.payment) << "query " << i;
    ASSERT_EQ(a.investments, b.investments) << "query " << i;
  }
  EXPECT_EQ(live_scheme->credit(), replay_scheme->credit());
}

// ---------------------------------------------------------------- budget

class BudgetProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BudgetProperty, AllShapesMonotoneAndBounded) {
  Rng rng(GetParam());
  const Money amount = Money::FromDollars(rng.NextUniform(0.001, 100.0));
  const double t_max = rng.NextUniform(0.01, 1000.0);
  for (BudgetShape shape : {BudgetShape::kStep, BudgetShape::kLinear,
                            BudgetShape::kConvex, BudgetShape::kConcave}) {
    const BudgetFunction budget{shape, amount, t_max};
    EXPECT_TRUE(testing::ValidateMonotone(budget).ok());
    Money prev = amount + Money::FromMicros(1);
    for (int i = 1; i <= 32; ++i) {
      const double t = t_max * i / 32.0;
      const Money value = budget.At(t);
      EXPECT_LE(value, amount);      // Never above the headline amount.
      EXPECT_GE(value.micros(), 0);  // Never negative.
      EXPECT_LE(value, prev);        // Non-increasing.
      prev = value;
    }
    EXPECT_TRUE(budget.At(t_max * 1.0001).IsZero());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BudgetProperty,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace cloudcache
