// M2: plan enumeration and skyline filtering throughput — called once per
// query with the full 65-candidate advisor pool.

#include <benchmark/benchmark.h>

#include "src/cache/cache_state.h"
#include "src/catalog/tpch.h"
#include "src/plan/enumerator.h"
#include "src/plan/skyline.h"
#include "src/query/templates.h"
#include "src/structure/index_advisor.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace cloudcache {
namespace {

/// The plan cache off, so every call derives the full plan set rather
/// than re-pricing a cached one.
EnumeratorOptions UncachedOptions() {
  EnumeratorOptions options;
  options.enable_plan_cache = false;
  return options;
}

struct Env {
  Env()
      : catalog(MakeTpchCatalog(2500.0)),
        prices(PriceList::AmazonEc2_2009()),
        model(&catalog, &prices),
        registry(&catalog),
        cache(&registry),
        enumerator(&model, &registry, UncachedOptions()),
        cached(&model, &registry, EnumeratorOptions()) {
    auto resolved = ResolveTemplates(catalog, MakeTpchTemplates());
    templates = *resolved;
    enumerator.SetIndexCandidates(
        RecommendIndexes(catalog, templates, 65));
    cached.SetIndexCandidates(RecommendIndexes(catalog, templates, 65));
    Rng rng(2);
    for (int i = 0; i < 64; ++i) {
      queries.push_back(InstantiateQuery(
          templates[i % templates.size()], catalog, rng,
          static_cast<int>(i % templates.size()), i));
    }
    // Warm half the hot columns so both existing and hypothetical plans
    // appear, as in mid-simulation steady state.
    const ColumnId date = *catalog.FindColumn("lineitem.l_shipdate");
    const ColumnId disc = *catalog.FindColumn("lineitem.l_discount");
    CLOUDCACHE_CHECK(
        cache.Add(registry.Intern(ColumnKey(catalog, date)), 0).ok());
    CLOUDCACHE_CHECK(
        cache.Add(registry.Intern(ColumnKey(catalog, disc)), 0).ok());
  }
  Catalog catalog;
  PriceList prices;
  CostModel model;
  StructureRegistry registry;
  CacheState cache;
  PlanEnumerator enumerator;
  /// Plan cache on: after one miss per template, every call is a hit
  /// that only writes the time/Ce columns (the simulator's steady state).
  PlanEnumerator cached;
  std::vector<ResolvedTemplate> templates;
  std::vector<Query> queries;
};

Env& GetEnv() {
  static Env env;
  return env;
}

void BM_Enumerate(benchmark::State& state) {
  Env& env = GetEnv();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.enumerator.EnumerateShared(
        env.queries[i++ % env.queries.size()], env.cache));
  }
}
BENCHMARK(BM_Enumerate);

void BM_EnumerateCached(benchmark::State& state) {
  Env& env = GetEnv();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.cached.EnumerateShared(
        env.queries[i++ % env.queries.size()], env.cache));
  }
}
BENCHMARK(BM_EnumerateCached);

void BM_EnumerateAndSkyline(benchmark::State& state) {
  Env& env = GetEnv();
  size_t i = 0;
  std::vector<size_t> survivors;
  SkylineScratch scratch;
  for (auto _ : state) {
    const PlanSet* set = env.enumerator.EnumerateShared(
        env.queries[i++ % env.queries.size()], env.cache);
    SkylineIndicesInto(*set, &survivors, &scratch);
    benchmark::DoNotOptimize(survivors.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_EnumerateAndSkyline);

void BM_RecommendIndexes(benchmark::State& state) {
  Env& env = GetEnv();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RecommendIndexes(env.catalog, env.templates, 65));
  }
}
BENCHMARK(BM_RecommendIndexes);

}  // namespace
}  // namespace cloudcache
