// M1: throughput of the cost model (Eq. 8-15) — the hot inner function of
// the whole simulator; every candidate plan of every query calls it.

#include <benchmark/benchmark.h>

#include "src/catalog/tpch.h"
#include "src/cost/cost_model.h"
#include "src/query/templates.h"
#include "src/util/rng.h"

namespace cloudcache {
namespace {

struct Env {
  Env()
      : catalog(MakeTpchCatalog(2500.0)),
        prices(PriceList::AmazonEc2_2009()),
        model(&catalog, &prices) {
    auto resolved = ResolveTemplates(catalog, MakeTpchTemplates());
    templates = *resolved;
    Rng rng(1);
    for (int i = 0; i < 64; ++i) {
      queries.push_back(InstantiateQuery(
          templates[i % templates.size()], catalog, rng,
          static_cast<int>(i % templates.size()), i));
    }
  }
  Catalog catalog;
  PriceList prices;
  CostModel model;
  std::vector<ResolvedTemplate> templates;
  std::vector<Query> queries;
};

Env& GetEnv() {
  static Env env;
  return env;
}

void BM_EstimateBackend(benchmark::State& state) {
  Env& env = GetEnv();
  PlanSpec spec;
  spec.access = PlanSpec::Access::kBackend;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.model.EstimateExecution(
        env.queries[i++ % env.queries.size()], spec));
  }
}
BENCHMARK(BM_EstimateBackend);

void BM_EstimateCacheScan(benchmark::State& state) {
  Env& env = GetEnv();
  PlanSpec spec;
  spec.access = PlanSpec::Access::kCacheScan;
  spec.cpu_nodes = static_cast<uint32_t>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.model.EstimateExecution(
        env.queries[i++ % env.queries.size()], spec));
  }
}
BENCHMARK(BM_EstimateCacheScan)->Arg(1)->Arg(3);

void BM_EstimateCacheIndex(benchmark::State& state) {
  Env& env = GetEnv();
  PlanSpec spec;
  spec.access = PlanSpec::Access::kCacheIndex;
  spec.covered_predicates = {0};
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.model.EstimateExecution(
        env.queries[i++ % env.queries.size()], spec));
  }
}
BENCHMARK(BM_EstimateCacheIndex);

void BM_ColumnBuildCost(benchmark::State& state) {
  Env& env = GetEnv();
  ColumnId col = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        env.model.ColumnBuildCost(col++ % env.catalog.num_columns()));
  }
}
BENCHMARK(BM_ColumnBuildCost);

void BM_IndexBuildCost(benchmark::State& state) {
  Env& env = GetEnv();
  const ColumnId date = *env.catalog.FindColumn("lineitem.l_shipdate");
  const ColumnId disc = *env.catalog.FindColumn("lineitem.l_discount");
  const StructureKey key = IndexKey(env.catalog, {date, disc});
  const std::vector<bool> none(env.catalog.num_columns(), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.model.BuildCost(key, none));
  }
}
BENCHMARK(BM_IndexBuildCost);

}  // namespace
}  // namespace cloudcache
