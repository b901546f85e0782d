#include "src/plan/enumerator.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "tests/testing/fixtures.h"

namespace cloudcache {
namespace {

class EnumeratorTest : public ::testing::Test {
 protected:
  EnumeratorTest()
      : catalog_(testing::MakeTinyCatalog()),
        prices_(testing::MakeRoundPrices()),
        model_(&catalog_, &prices_),
        registry_(&catalog_),
        cache_(&registry_) {}

  PlanEnumerator MakeEnumerator(EnumeratorOptions options = {}) {
    PlanEnumerator enumerator(&model_, &registry_, options);
    const ColumnId date = *catalog_.FindColumn("fact.f_date");
    const ColumnId value = *catalog_.FindColumn("fact.f_value");
    const ColumnId key = *catalog_.FindColumn("fact.f_key");
    enumerator.SetIndexCandidates({
        IndexKey(catalog_, {date}),
        IndexKey(catalog_, {date, value}),
        IndexKey(catalog_, {date, value, key}),  // Covering for the query.
        IndexKey(catalog_, {key}),               // Leading col not a pred.
    });
    return enumerator;
  }

  /// Makes all accessed columns of the tiny query resident.
  void CacheQueryColumns(const Query& q) {
    for (ColumnId col : q.AccessedColumns()) {
      CLOUDCACHE_CHECK(
          cache_.Add(registry_.Intern(ColumnKey(catalog_, col)), 0).ok());
    }
  }

  Catalog catalog_;
  PriceList prices_;
  CostModel model_;
  StructureRegistry registry_;
  CacheState cache_;
};

TEST_F(EnumeratorTest, BackendPlanAlwaysPresent) {
  PlanEnumerator enumerator = MakeEnumerator();
  const Query q = testing::MakeTinyQuery(catalog_);
  const PlanSet set = *enumerator.EnumerateShared(q, cache_);
  size_t backend_plans = 0;
  for (const PlanRecord& plan : set.records) {
    if (plan.spec.access == PlanSpec::Access::kBackend) {
      ++backend_plans;
      EXPECT_TRUE(plan.IsExisting());
      EXPECT_TRUE(plan.structures.empty());
    }
  }
  EXPECT_EQ(backend_plans, 1u);
}

TEST_F(EnumeratorTest, ColdCacheMakesCachePlansHypothetical) {
  PlanEnumerator enumerator = MakeEnumerator();
  const Query q = testing::MakeTinyQuery(catalog_);
  const PlanSet set = *enumerator.EnumerateShared(q, cache_);
  for (const PlanRecord& plan : set.records) {
    if (plan.spec.access != PlanSpec::Access::kBackend) {
      EXPECT_FALSE(plan.IsExisting());
    }
  }
  EXPECT_EQ(std::count(set.existing.begin(), set.existing.end(), 1), 1);
}

TEST_F(EnumeratorTest, WarmCacheMakesScanExecutable) {
  PlanEnumerator enumerator = MakeEnumerator();
  const Query q = testing::MakeTinyQuery(catalog_);
  CacheQueryColumns(q);
  const PlanSet set = *enumerator.EnumerateShared(q, cache_);
  bool found = false;
  for (const PlanRecord& plan : set.records) {
    if (plan.spec.access == PlanSpec::Access::kCacheScan &&
        plan.spec.cpu_nodes == 1) {
      EXPECT_TRUE(plan.IsExisting());
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(EnumeratorTest, ScanUsesOneStructurePerAccessedColumn) {
  PlanEnumerator enumerator = MakeEnumerator();
  const Query q = testing::MakeTinyQuery(catalog_);
  const PlanSet set = *enumerator.EnumerateShared(q, cache_);
  for (const PlanRecord& plan : set.records) {
    if (plan.spec.access == PlanSpec::Access::kCacheScan &&
        plan.spec.cpu_nodes == 1) {
      EXPECT_EQ(plan.structures.size(), q.AccessedColumns().size());
    }
  }
}

TEST_F(EnumeratorTest, IndexAppliesOnlyWithLeadingPredicate) {
  PlanEnumerator enumerator = MakeEnumerator();
  const Query q = testing::MakeTinyQuery(catalog_);
  const PlanSet set = *enumerator.EnumerateShared(q, cache_);
  for (const PlanRecord& plan : set.records) {
    if (plan.spec.access == PlanSpec::Access::kCacheIndex) {
      EXPECT_FALSE(plan.spec.covered_predicates.empty());
      // The f_key-leading index must never appear: f_key carries no
      // predicate.
      for (StructureId id : plan.structures) {
        const StructureKey& key = registry_.key(id);
        if (key.type == StructureType::kIndex) {
          EXPECT_NE(key.columns.front(),
                    *catalog_.FindColumn("fact.f_key"));
        }
      }
    }
  }
}

TEST_F(EnumeratorTest, CoveringIndexDetected) {
  PlanEnumerator enumerator = MakeEnumerator();
  const Query q = testing::MakeTinyQuery(catalog_);
  const PlanSet set = *enumerator.EnumerateShared(q, cache_);
  bool saw_covering = false;
  for (const PlanRecord& plan : set.records) {
    if (plan.spec.access == PlanSpec::Access::kCacheIndex &&
        plan.spec.covering) {
      saw_covering = true;
      // A covering plan needs only the index (plus any cpu nodes).
      for (StructureId id : plan.structures) {
        EXPECT_NE(registry_.key(id).type, StructureType::kColumn);
      }
    }
  }
  EXPECT_TRUE(saw_covering);
}

TEST_F(EnumeratorTest, NonCoveringIndexPullsBaseColumns) {
  PlanEnumerator enumerator = MakeEnumerator();
  const Query q = testing::MakeTinyQuery(catalog_);
  const PlanSet set = *enumerator.EnumerateShared(q, cache_);
  for (const PlanRecord& plan : set.records) {
    if (plan.spec.access == PlanSpec::Access::kCacheIndex &&
        !plan.spec.covering && plan.spec.cpu_nodes == 1) {
      size_t columns = 0;
      for (StructureId id : plan.structures) {
        columns += registry_.key(id).type == StructureType::kColumn;
      }
      EXPECT_GT(columns, 0u);
    }
  }
}

TEST_F(EnumeratorTest, NodeVariantsEmitted) {
  EnumeratorOptions options;
  options.node_options = {1, 2, 4};
  PlanEnumerator enumerator = MakeEnumerator(options);
  const Query q = testing::MakeTinyQuery(catalog_);
  const PlanSet set = *enumerator.EnumerateShared(q, cache_);
  std::vector<uint32_t> scan_nodes;
  for (const PlanRecord& plan : set.records) {
    if (plan.spec.access == PlanSpec::Access::kCacheScan) {
      scan_nodes.push_back(plan.spec.cpu_nodes);
    }
  }
  std::sort(scan_nodes.begin(), scan_nodes.end());
  EXPECT_EQ(scan_nodes, (std::vector<uint32_t>{1, 2, 4}));
}

TEST_F(EnumeratorTest, MultiNodePlansRequireCpuStructures) {
  PlanEnumerator enumerator = MakeEnumerator();
  const Query q = testing::MakeTinyQuery(catalog_);
  const PlanSet set = *enumerator.EnumerateShared(q, cache_);
  for (const PlanRecord& plan : set.records) {
    if (plan.spec.cpu_nodes > 1) {
      size_t cpu_structures = 0;
      for (StructureId id : plan.structures) {
        cpu_structures += registry_.key(id).type == StructureType::kCpuNode;
      }
      EXPECT_EQ(cpu_structures, plan.spec.cpu_nodes - 1u);
    }
  }
}

TEST_F(EnumeratorTest, NoIndexesWhenDisabled) {
  EnumeratorOptions options;
  options.allow_indexes = false;
  PlanEnumerator enumerator = MakeEnumerator(options);
  const Query q = testing::MakeTinyQuery(catalog_);
  for (const PlanRecord& plan :
       enumerator.EnumerateShared(q, cache_)->records) {
    EXPECT_NE(plan.spec.access, PlanSpec::Access::kCacheIndex);
  }
}

TEST_F(EnumeratorTest, NoParallelWhenDisabled) {
  EnumeratorOptions options;
  options.allow_parallel = false;
  PlanEnumerator enumerator = MakeEnumerator(options);
  const Query q = testing::MakeTinyQuery(catalog_);
  for (const PlanRecord& plan :
       enumerator.EnumerateShared(q, cache_)->records) {
    EXPECT_EQ(plan.spec.cpu_nodes, 1u);
  }
}

TEST_F(EnumeratorTest, NoHypotheticalsWhenDisabled) {
  EnumeratorOptions options;
  options.include_hypothetical = false;
  PlanEnumerator enumerator = MakeEnumerator(options);
  const Query q = testing::MakeTinyQuery(catalog_);
  const PlanSet set = *enumerator.EnumerateShared(q, cache_);
  for (const PlanRecord& plan : set.records) {
    EXPECT_TRUE(plan.IsExisting());
  }
  EXPECT_EQ(set.size(), 1u);  // Only the backend plan on cold cache.
}

TEST_F(EnumeratorTest, MissingListsExactlyNonResidentStructures) {
  PlanEnumerator enumerator = MakeEnumerator();
  const Query q = testing::MakeTinyQuery(catalog_);
  // Cache only one of the accessed columns.
  const ColumnId date = *catalog_.FindColumn("fact.f_date");
  CLOUDCACHE_CHECK(
      cache_.Add(registry_.Intern(ColumnKey(catalog_, date)), 0).ok());
  const PlanSet set = *enumerator.EnumerateShared(q, cache_);
  for (size_t i = 0; i < set.size(); ++i) {
    const PlanRecord& plan = set.records[i];
    EXPECT_EQ(set.existing[i] != 0, plan.IsExisting()) << "plan " << i;
    for (StructureId id : plan.missing) {
      EXPECT_FALSE(cache_.IsResident(id));
    }
    for (StructureId id : plan.structures) {
      const bool in_missing =
          std::find(plan.missing.begin(), plan.missing.end(), id) !=
          plan.missing.end();
      EXPECT_EQ(in_missing, !cache_.IsResident(id));
    }
  }
}

TEST_F(EnumeratorTest, IndexesOnOtherTablesIgnored) {
  PlanEnumerator enumerator(&model_, &registry_, {});
  const ColumnId d_attr = *catalog_.FindColumn("dim.d_attr");
  enumerator.SetIndexCandidates({IndexKey(catalog_, {d_attr})});
  const Query q = testing::MakeTinyQuery(catalog_);  // On fact.
  for (const PlanRecord& plan :
       enumerator.EnumerateShared(q, cache_)->records) {
    EXPECT_NE(plan.spec.access, PlanSpec::Access::kCacheIndex);
  }
}

// --- Plan-skeleton cache -------------------------------------------------

/// Full structural + priced equality of two plan sets, element by element.
void ExpectSamePlanSet(const PlanSet& a, const PlanSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const PlanRecord& pa = a.records[i];
    const PlanRecord& pb = b.records[i];
    EXPECT_EQ(pa.spec.access, pb.spec.access) << "plan " << i;
    EXPECT_EQ(pa.spec.covered_predicates, pb.spec.covered_predicates);
    EXPECT_EQ(pa.spec.covering, pb.spec.covering);
    EXPECT_EQ(pa.spec.cpu_nodes, pb.spec.cpu_nodes);
    EXPECT_EQ(pa.structures, pb.structures) << "plan " << i;
    EXPECT_EQ(pa.missing, pb.missing) << "plan " << i;
    EXPECT_EQ(a.nodes[i], b.nodes[i]) << "plan " << i;
    EXPECT_EQ(a.existing[i], b.existing[i]) << "plan " << i;
    EXPECT_EQ(a.time[i], b.time[i]) << "plan " << i;
    EXPECT_EQ(a.price_micros[i], b.price_micros[i]) << "plan " << i;
  }
  EXPECT_EQ(a.cpu_node_ids, b.cpu_node_ids);
  ASSERT_EQ(a.families.size(), b.families.size());
  for (size_t f = 0; f < a.families.size(); ++f) {
    EXPECT_EQ(a.families[f].first, b.families[f].first) << "family " << f;
    EXPECT_EQ(a.families[f].count, b.families[f].count) << "family " << f;
    EXPECT_EQ(a.families[f].base_structures, b.families[f].base_structures)
        << "family " << f;
  }
}

TEST_F(EnumeratorTest, PlanCacheHitServesIdenticalPlans) {
  PlanEnumerator cached = MakeEnumerator();
  EnumeratorOptions off;
  off.enable_plan_cache = false;
  PlanEnumerator reference = MakeEnumerator(off);

  // Two instances of the same template with different selectivities.
  const Query q1 = testing::MakeTinyQuery(catalog_, 0.01, 1);
  const Query q2 = testing::MakeTinyQuery(catalog_, 0.2, 2);
  const PlanSet first = *cached.EnumerateShared(q1, cache_);
  EXPECT_EQ(cached.plan_cache_misses(), 1u);
  const PlanSet second = *cached.EnumerateShared(q2, cache_);
  EXPECT_EQ(cached.plan_cache_hits(), 1u);
  EXPECT_EQ(cached.plan_cache_size(), 1u);

  ExpectSamePlanSet(first, *reference.EnumerateShared(q1, cache_));
  ExpectSamePlanSet(second, *reference.EnumerateShared(q2, cache_));
  EXPECT_EQ(reference.plan_cache_hits(), 0u);
  EXPECT_EQ(reference.plan_cache_size(), 0u);
}

TEST_F(EnumeratorTest, PlanCacheInvalidatedByResidencyEpoch) {
  PlanEnumerator cached = MakeEnumerator();
  EnumeratorOptions off;
  off.enable_plan_cache = false;
  PlanEnumerator reference = MakeEnumerator(off);

  const Query q = testing::MakeTinyQuery(catalog_);
  (void)cached.EnumerateShared(q, cache_);
  // Residency moves: cached skeletons must be re-derived, and the fresh
  // missing-sets must reflect the new epoch.
  const ColumnId date = *catalog_.FindColumn("fact.f_date");
  CLOUDCACHE_CHECK(
      cache_.Add(registry_.Intern(ColumnKey(catalog_, date)), 0).ok());
  const PlanSet after = *cached.EnumerateShared(q, cache_);
  EXPECT_EQ(cached.plan_cache_misses(), 2u);
  EXPECT_EQ(cached.plan_cache_hits(), 0u);
  ExpectSamePlanSet(after, *reference.EnumerateShared(q, cache_));

  // And removal invalidates again.
  CLOUDCACHE_CHECK(
      cache_.Remove(registry_.Intern(ColumnKey(catalog_, date))).ok());
  ExpectSamePlanSet(*cached.EnumerateShared(q, cache_),
                    *reference.EnumerateShared(q, cache_));
  EXPECT_EQ(cached.plan_cache_misses(), 3u);
}

TEST_F(EnumeratorTest, PlanCacheInvalidatedByCandidateGeneration) {
  PlanEnumerator cached = MakeEnumerator();
  const Query q = testing::MakeTinyQuery(catalog_);
  (void)cached.EnumerateShared(q, cache_);
  const uint64_t generation = cached.candidate_generation();

  // Re-registering candidates bumps the generation and re-derives.
  const ColumnId date = *catalog_.FindColumn("fact.f_date");
  cached.SetIndexCandidates({IndexKey(catalog_, {date})});
  EXPECT_EQ(cached.candidate_generation(), generation + 1);
  const PlanSet after = *cached.EnumerateShared(q, cache_);
  EXPECT_EQ(cached.plan_cache_misses(), 2u);

  size_t index_plans = 0;
  for (const PlanRecord& plan : after.records) {
    index_plans += plan.spec.access == PlanSpec::Access::kCacheIndex;
  }
  // Only the one remaining applicable candidate, at each node count.
  EXPECT_EQ(index_plans, cached.options().node_options.size());
}

TEST_F(EnumeratorTest, DistinctCacheStatesWithEqualEpochsDoNotCollide) {
  PlanEnumerator cached = MakeEnumerator();
  EnumeratorOptions off;
  off.enable_plan_cache = false;
  PlanEnumerator reference = MakeEnumerator(off);
  const Query q = testing::MakeTinyQuery(catalog_);

  // Two caches at the same epoch with different residents: alternating
  // them must miss (entries are keyed on cache identity), never serve the
  // other cache's missing-sets.
  CacheState other(&registry_);
  const ColumnId date = *catalog_.FindColumn("fact.f_date");
  const ColumnId value = *catalog_.FindColumn("fact.f_value");
  CLOUDCACHE_CHECK(
      cache_.Add(registry_.Intern(ColumnKey(catalog_, date)), 0).ok());
  CLOUDCACHE_CHECK(
      other.Add(registry_.Intern(ColumnKey(catalog_, value)), 0).ok());
  ASSERT_EQ(cache_.epoch(), other.epoch());

  (void)cached.EnumerateShared(q, cache_);
  const PlanSet from_other = *cached.EnumerateShared(q, other);
  EXPECT_EQ(cached.plan_cache_misses(), 2u);
  EXPECT_EQ(cached.plan_cache_hits(), 0u);
  ExpectSamePlanSet(from_other, *reference.EnumerateShared(q, other));
}

TEST_F(EnumeratorTest, AdHocQueriesBypassPlanCache) {
  PlanEnumerator cached = MakeEnumerator();
  Query q = testing::MakeTinyQuery(catalog_);
  q.template_id = -1;
  (void)cached.EnumerateShared(q, cache_);
  (void)cached.EnumerateShared(q, cache_);
  EXPECT_EQ(cached.plan_cache_size(), 0u);
  EXPECT_EQ(cached.plan_cache_hits(), 0u);
  EXPECT_EQ(cached.plan_cache_misses(), 0u);
}

TEST_F(EnumeratorTest, PlanCacheKillSwitchDisablesCaching) {
  EnumeratorOptions options;
  options.enable_plan_cache = false;
  PlanEnumerator enumerator = MakeEnumerator(options);
  const Query q = testing::MakeTinyQuery(catalog_);
  (void)enumerator.EnumerateShared(q, cache_);
  (void)enumerator.EnumerateShared(q, cache_);
  EXPECT_EQ(enumerator.plan_cache_size(), 0u);
  EXPECT_EQ(enumerator.plan_cache_hits(), 0u);
}

TEST_F(EnumeratorTest, SignatureMismatchFallsBackToRederivation) {
  PlanEnumerator cached = MakeEnumerator();
  EnumeratorOptions off;
  off.enable_plan_cache = false;
  PlanEnumerator reference = MakeEnumerator(off);

  const Query q1 = testing::MakeTinyQuery(catalog_);
  (void)cached.EnumerateShared(q1, cache_);

  // Same template id, different shape (trace replay could do this): the
  // signature check must reject the cached skeletons.
  Query q2 = testing::MakeTinyQuery(catalog_);
  q2.output_columns = {*catalog_.FindColumn("fact.f_key")};
  DeriveResultShape(catalog_, 1.0, &q2);
  const PlanSet got = *cached.EnumerateShared(q2, cache_);
  EXPECT_EQ(cached.plan_cache_misses(), 2u);
  ExpectSamePlanSet(got, *reference.EnumerateShared(q2, cache_));
}

}  // namespace
}  // namespace cloudcache
