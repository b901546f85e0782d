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

/// The plan cache on, but every call follows a residency move: one column
/// the query reads is toggled (built or evicted), then the query is
/// enumerated, so each call pays for revalidating its cached plan set.
void BM_EnumerateAfterResidencyMove(benchmark::State& state) {
  Env& env = GetEnv();
  CacheState cache = env.cache;  // Toggled privately.
  std::vector<StructureId> toggled;
  for (const Query& query : env.queries) {
    toggled.push_back(env.registry.Intern(
        ColumnKey(env.catalog, query.AccessedColumns().front())));
  }
  size_t i = 0;
  for (auto _ : state) {
    const size_t q = i++ % env.queries.size();
    const Status moved = cache.IsResident(toggled[q])
                             ? cache.Remove(toggled[q])
                             : cache.Add(toggled[q], 0);
    benchmark::DoNotOptimize(moved.ok());
    benchmark::DoNotOptimize(
        env.cached.EnumerateShared(env.queries[q], cache));
  }
}
BENCHMARK(BM_EnumerateAfterResidencyMove);

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

/// The decision loop's steady state: plan-cache hits, so each call only
/// estimates once per shape class and skylines the cheapest family of
/// each (shape class, base residency) group.
void BM_EnumerateCachedAndSkyline(benchmark::State& state) {
  Env& env = GetEnv();
  size_t i = 0;
  std::vector<size_t> survivors;
  SkylineScratch scratch;
  for (auto _ : state) {
    const PlanSet* set = env.cached.EnumerateShared(
        env.queries[i++ % env.queries.size()], env.cache);
    SkylineIndicesInto(*set, &survivors, &scratch);
    benchmark::DoNotOptimize(survivors.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_EnumerateCachedAndSkyline);

/// The skyline alone over each query's cached plan set, its columns
/// written once up front.
void BM_SkylineCached(benchmark::State& state) {
  Env& env = GetEnv();
  std::vector<PlanSet> sets;
  for (const Query& query : env.queries) {
    sets.push_back(*env.cached.EnumerateShared(query, env.cache));
  }
  size_t i = 0;
  std::vector<size_t> survivors;
  SkylineScratch scratch;
  for (auto _ : state) {
    SkylineIndicesInto(sets[i++ % sets.size()], &survivors, &scratch);
    benchmark::DoNotOptimize(survivors.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SkylineCached);

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
