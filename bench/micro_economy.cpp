// M3: full economy decision throughput (OnQuery end to end) — bounds how
// many simulated queries per second the harness sustains.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "src/baseline/scheme.h"
#include "src/catalog/tpch.h"
#include "src/econ/economy.h"
#include "src/query/templates.h"
#include "src/structure/index_advisor.h"
#include "src/util/rng.h"

namespace cloudcache {
namespace {

struct Env {
  Env() : catalog(MakeTpchCatalog(2500.0)) {
    auto resolved = ResolveTemplates(catalog, MakeTpchTemplates());
    templates = *resolved;
    indexes = RecommendIndexes(catalog, templates, 65);
    Rng rng(3);
    for (int i = 0; i < 256; ++i) {
      queries.push_back(InstantiateQuery(
          templates[i % templates.size()], catalog, rng,
          static_cast<int>(i % templates.size()), i));
    }
  }
  Catalog catalog;
  std::vector<ResolvedTemplate> templates;
  std::vector<StructureKey> indexes;
  std::vector<Query> queries;
};

Env& GetEnv() {
  static Env env;
  return env;
}

void BM_EconomyOnQuery(benchmark::State& state) {
  Env& env = GetEnv();
  PriceList prices = PriceList::AmazonEc2_2009();
  EconScheme::Config config = EconScheme::EconCheapConfig();
  config.economy.initial_credit = Money::FromDollars(200);
  config.economy.model_build_latency = false;
  EconScheme scheme(&env.catalog, &prices, env.indexes,
                    std::move(config));
  size_t i = 0;
  double now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scheme.OnQuery(env.queries[i++ % env.queries.size()], now));
    now += 10.0;
  }
}
BENCHMARK(BM_EconomyOnQuery);

// The eviction-heavy economy: elastic-churn's settings on one node (1 s
// arrivals, a = 0.001, $20 credit), so structures keep being built and
// failing maintenance. Each query also ticks the economy twice at its own
// time, as the simulator's rent meter and metered bill do, so the failure
// scan runs three times per query. A fixed iteration count makes every
// run serve the same queries, so timings compare like for like.
void BM_EconomyOnQueryChurn(benchmark::State& state) {
  Env& env = GetEnv();
  PriceList prices = PriceList::AmazonEc2_2009();
  EconScheme::Config config = EconScheme::EconCheapConfig();
  config.economy.initial_credit = Money::FromDollars(20);
  config.economy.regret_fraction_a = 0.001;
  config.economy.model_build_latency = false;
  EconScheme scheme(&env.catalog, &prices, env.indexes,
                    std::move(config));
  size_t i = 0;
  double now = 0;
  uint64_t evictions = 0;
  for (auto _ : state) {
    const ServedQuery served =
        scheme.OnQuery(env.queries[i++ % env.queries.size()], now);
    evictions += served.evictions;
    scheme.ChargeExpenditure(Money(), now);
    scheme.ChargeExpenditure(Money(), now);
    now += 1.0;
  }
  state.counters["evictions_per_kquery"] = benchmark::Counter(
      1000.0 * static_cast<double>(evictions) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_EconomyOnQueryChurn)->Iterations(50'000);

// Cancelling a freshly built structure's schedule at the paper's default
// horizon (n = 50,000), as every maintenance-failure eviction does.
void BM_AmortizerCancel(benchmark::State& state) {
  Amortizer amortizer(EconomyOptions().amortization_horizon);
  const Money build = Money::FromMicros(123'456'789);
  for (auto _ : state) {
    amortizer.RegisterBuild(7, build);
    amortizer.ChargeShare(7);
    benchmark::DoNotOptimize(amortizer.Cancel(7));
  }
}
BENCHMARK(BM_AmortizerCancel);

// Pricing right after a residency move: each iteration adds or removes
// one index key column that the query does not read, then quotes one
// TPC-H query (enumerate + price). The move changes no plan's residency,
// only the build cost of the hypothetical indexes keyed on that column.
void BM_PriceAfterResidencyMove(benchmark::State& state) {
  Env& env = GetEnv();
  PriceList prices = PriceList::AmazonEc2_2009();
  const CostModel model(&env.catalog, &prices);
  StructureRegistry registry(&env.catalog);
  EconomyEngine engine(&env.catalog, &registry, &model, EnumeratorOptions{},
                       EconomyOptions{});
  engine.SetIndexCandidates(env.indexes);
  // The first query with a probe-able index (leading key column read by
  // the query) that has a key column the query does not read.
  const Query* query = nullptr;
  StructureId toggled = 0;
  for (const Query& candidate : env.queries) {
    const std::vector<ColumnId>& accessed = candidate.AccessedColumns();
    const auto reads = [&](ColumnId col) {
      return std::find(accessed.begin(), accessed.end(), col) !=
             accessed.end();
    };
    for (const StructureKey& key : env.indexes) {
      if (key.table != candidate.table || !reads(key.columns.front())) {
        continue;
      }
      const auto other =
          std::find_if_not(key.columns.begin(), key.columns.end(), reads);
      if (other == key.columns.end()) continue;
      query = &candidate;
      toggled = registry.Intern(ColumnKey(env.catalog, *other));
      break;
    }
    if (query != nullptr) break;
  }
  if (query == nullptr) {
    state.SkipWithError("no query has an unread index key column");
    return;
  }
  CacheState& cache = engine.cache();
  for (auto _ : state) {
    const Status moved = cache.IsResident(toggled) ? cache.Remove(toggled)
                                                   : cache.Add(toggled, 0);
    benchmark::DoNotOptimize(moved.ok());
    benchmark::DoNotOptimize(&engine.Quote(*query, 0));
  }
}
BENCHMARK(BM_PriceAfterResidencyMove);

void BM_EconColOnQuery(benchmark::State& state) {
  Env& env = GetEnv();
  PriceList prices = PriceList::AmazonEc2_2009();
  EconScheme scheme(&env.catalog, &prices, env.indexes,
                    EconScheme::EconColConfig());
  size_t i = 0;
  double now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scheme.OnQuery(env.queries[i++ % env.queries.size()], now));
    now += 10.0;
  }
}
BENCHMARK(BM_EconColOnQuery);

void BM_BudgetEvaluation(benchmark::State& state) {
  static constexpr const char* kNames[] = {"step", "linear", "convex",
                                           "concave"};
  const BudgetFunction budget{static_cast<BudgetShape>(state.range(0)),
                              Money::FromDollars(1), 100.0};
  state.SetLabel(kNames[state.range(0)]);
  double t = 0.0;
  for (auto _ : state) {
    t += 0.1;
    if (t > 100.0) t = 0.1;
    benchmark::DoNotOptimize(budget.At(t));
  }
}
BENCHMARK(BM_BudgetEvaluation)->DenseRange(0, 3);

}  // namespace
}  // namespace cloudcache
