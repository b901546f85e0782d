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

TEST_F(EnumeratorTest, ShapeClassesShareOneEstimate) {
  PlanEnumerator enumerator = MakeEnumerator();
  // Only f_date is predicated, so the (date) and (date, value) indexes
  // probe the same predicate and both fetch rows from f_key: one shape.
  // (date, value, key) covers the query: a shape of its own.
  Query q;
  q.template_id = 0;
  q.table = *catalog_.FindTable("fact");
  q.output_columns = {*catalog_.FindColumn("fact.f_key"),
                      *catalog_.FindColumn("fact.f_value")};
  Predicate date;
  date.column = *catalog_.FindColumn("fact.f_date");
  date.selectivity = 0.01;
  date.clustered = true;
  q.predicates.push_back(date);
  DeriveResultShape(catalog_, 1.0, &q);
  const PlanSet set = *enumerator.EnumerateShared(q, cache_);

  // Families: backend, scan, (date), (date, value), (date, value, key).
  ASSERT_EQ(set.families.size(), 5u);
  std::vector<uint32_t> classes;
  for (const PlanFamily& family : set.families) {
    classes.push_back(family.shape_class);
  }
  EXPECT_EQ(classes, (std::vector<uint32_t>{0, 1, 2, 2, 4}));
  EXPECT_FALSE(set.records[set.families[3].first].spec.covering);
  EXPECT_TRUE(set.records[set.families[4].first].spec.covering);

  // The member reads the leader's slots, and both match the single-shot
  // estimate of each plan's own spec (no carried charges were written).
  const PlanFamily& leader = set.families[2];
  const PlanFamily& member = set.families[3];
  ASSERT_EQ(member.count, leader.count);
  for (uint32_t k = 0; k < member.count; ++k) {
    EXPECT_EQ(set.Slot(member.first + k), leader.first + k);
    EXPECT_EQ(set.Slot(leader.first + k), leader.first + k);
    const ExecutionEstimate single =
        model_.EstimateExecution(q, set.records[member.first + k].spec);
    EXPECT_EQ(set.Time(member.first + k), single.time_seconds);
    EXPECT_EQ(set.PriceMicros(member.first + k), single.cost.micros());
  }
  // Different shapes, different estimates.
  EXPECT_NE(set.Time(set.families[4].first), set.Time(leader.first));
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
    EXPECT_EQ(a.family[i], b.family[i]) << "plan " << i;
    EXPECT_EQ(a.Time(i), b.Time(i)) << "plan " << i;
    EXPECT_EQ(a.PriceMicros(i), b.PriceMicros(i)) << "plan " << i;
  }
  EXPECT_EQ(a.cpu_node_ids, b.cpu_node_ids);
  ASSERT_EQ(a.families.size(), b.families.size());
  for (size_t f = 0; f < a.families.size(); ++f) {
    EXPECT_EQ(a.families[f].first, b.families[f].first) << "family " << f;
    EXPECT_EQ(a.families[f].count, b.families[f].count) << "family " << f;
    EXPECT_EQ(a.families[f].base_structures, b.families[f].base_structures)
        << "family " << f;
    EXPECT_EQ(a.families[f].shape_class, b.families[f].shape_class)
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

TEST_F(EnumeratorTest, PlanCacheRefreshedOnResidencyEpoch) {
  PlanEnumerator cached = MakeEnumerator();
  EnumeratorOptions off;
  off.enable_plan_cache = false;
  PlanEnumerator reference = MakeEnumerator(off);

  const Query q = testing::MakeTinyQuery(catalog_);
  (void)cached.EnumerateShared(q, cache_);
  // Residency moves: the cached skeleton is reused (a hit), and its
  // refreshed missing-sets must reflect the new epoch.
  const ColumnId date = *catalog_.FindColumn("fact.f_date");
  CLOUDCACHE_CHECK(
      cache_.Add(registry_.Intern(ColumnKey(catalog_, date)), 0).ok());
  const PlanSet after = *cached.EnumerateShared(q, cache_);
  EXPECT_EQ(cached.plan_cache_misses(), 1u);
  EXPECT_EQ(cached.plan_cache_hits(), 1u);
  ExpectSamePlanSet(after, *reference.EnumerateShared(q, cache_));

  // And removal refreshes again.
  CLOUDCACHE_CHECK(
      cache_.Remove(registry_.Intern(ColumnKey(catalog_, date))).ok());
  ExpectSamePlanSet(*cached.EnumerateShared(q, cache_),
                    *reference.EnumerateShared(q, cache_));

  // A move of a structure no plan of the template employs leaves every
  // missing-set as it was.
  const ColumnId d_attr = *catalog_.FindColumn("dim.d_attr");
  CLOUDCACHE_CHECK(
      cache_.Add(registry_.Intern(ColumnKey(catalog_, d_attr)), 0).ok());
  ExpectSamePlanSet(*cached.EnumerateShared(q, cache_),
                    *reference.EnumerateShared(q, cache_));
  EXPECT_EQ(cached.plan_cache_misses(), 1u);
  EXPECT_EQ(cached.plan_cache_hits(), 3u);
}

TEST_F(EnumeratorTest, PlanCacheRefreshedAfterMultiStructureMove) {
  PlanEnumerator cached = MakeEnumerator();
  EnumeratorOptions off;
  off.enable_plan_cache = false;
  PlanEnumerator reference = MakeEnumerator(off);
  const Query q = testing::MakeTinyQuery(catalog_);
  (void)cached.EnumerateShared(q, cache_);

  // One epoch-spanning move: a non-covering index, the base columns its
  // row fetches read, and an extra CPU node all become resident at once.
  const ColumnId date = *catalog_.FindColumn("fact.f_date");
  const StructureId index = registry_.Intern(IndexKey(catalog_, {date}));
  CLOUDCACHE_CHECK(cache_.Add(index, 0).ok());
  for (ColumnId col : q.AccessedColumns()) {
    if (col == date) continue;
    CLOUDCACHE_CHECK(
        cache_.Add(registry_.Intern(ColumnKey(catalog_, col)), 0).ok());
  }
  const StructureId cpu = registry_.Intern(CpuNodeKey(0));
  CLOUDCACHE_CHECK(cache_.Add(cpu, 0).ok());
  const PlanSet warm = *cached.EnumerateShared(q, cache_);
  ExpectSamePlanSet(warm, *reference.EnumerateShared(q, cache_));
  // The index plan now executes on one and on two nodes.
  size_t executable_index_plans = 0;
  for (size_t i = 0; i < warm.size(); ++i) {
    executable_index_plans +=
        warm.existing[i] != 0 &&
        warm.records[i].spec.access == PlanSpec::Access::kCacheIndex;
  }
  EXPECT_EQ(executable_index_plans, 2u);

  // Partly back: the index and the CPU node go, the columns stay.
  CLOUDCACHE_CHECK(cache_.Remove(index).ok());
  CLOUDCACHE_CHECK(cache_.Remove(cpu).ok());
  ExpectSamePlanSet(*cached.EnumerateShared(q, cache_),
                    *reference.EnumerateShared(q, cache_));
  EXPECT_EQ(cached.plan_cache_misses(), 1u);
  EXPECT_EQ(cached.plan_cache_hits(), 2u);
}

TEST_F(EnumeratorTest, PlanCacheInvalidatedByCandidateGeneration) {
  PlanEnumerator cached = MakeEnumerator();
  const Query q = testing::MakeTinyQuery(catalog_);
  (void)cached.EnumerateShared(q, cache_);
  const uint64_t generation = cached.candidate_generation();

  // Re-registering candidates bumps the generation and re-derives, also
  // when residency moved in the same step (no refresh of the stale
  // skeleton).
  const ColumnId date = *catalog_.FindColumn("fact.f_date");
  cached.SetIndexCandidates({IndexKey(catalog_, {date})});
  EXPECT_EQ(cached.candidate_generation(), generation + 1);
  CLOUDCACHE_CHECK(
      cache_.Add(registry_.Intern(ColumnKey(catalog_, date)), 0).ok());
  const PlanSet after = *cached.EnumerateShared(q, cache_);
  EXPECT_EQ(cached.plan_cache_misses(), 2u);
  EXPECT_EQ(cached.plan_cache_hits(), 0u);
  EnumeratorOptions off;
  off.enable_plan_cache = false;
  PlanEnumerator reference(&model_, &registry_, off);
  reference.SetIndexCandidates({IndexKey(catalog_, {date})});
  ExpectSamePlanSet(after, *reference.EnumerateShared(q, cache_));

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

  // Two caches at the same epoch with different residents: the residency
  // stamp includes the cache's identity, so alternating them must never
  // serve the other cache's missing-sets.
  CacheState other(&registry_);
  const ColumnId date = *catalog_.FindColumn("fact.f_date");
  const ColumnId value = *catalog_.FindColumn("fact.f_value");
  CLOUDCACHE_CHECK(
      cache_.Add(registry_.Intern(ColumnKey(catalog_, date)), 0).ok());
  CLOUDCACHE_CHECK(
      other.Add(registry_.Intern(ColumnKey(catalog_, value)), 0).ok());
  ASSERT_EQ(cache_.epoch(), other.epoch());

  // Alternating the caches reuses the one skeleton but refreshes its
  // missing-sets against whichever cache the call names.
  for (int round = 0; round < 2; ++round) {
    ExpectSamePlanSet(*cached.EnumerateShared(q, cache_),
                      *reference.EnumerateShared(q, cache_));
    ExpectSamePlanSet(*cached.EnumerateShared(q, other),
                      *reference.EnumerateShared(q, other));
  }
  EXPECT_EQ(cached.plan_cache_misses(), 1u);
  EXPECT_EQ(cached.plan_cache_hits(), 3u);
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
  // signature check must reject the cached skeletons, also after a
  // residency move.
  Query q2 = testing::MakeTinyQuery(catalog_);
  q2.output_columns = {*catalog_.FindColumn("fact.f_key")};
  DeriveResultShape(catalog_, 1.0, &q2);
  const ColumnId key = *catalog_.FindColumn("fact.f_key");
  CLOUDCACHE_CHECK(
      cache_.Add(registry_.Intern(ColumnKey(catalog_, key)), 0).ok());
  const PlanSet got = *cached.EnumerateShared(q2, cache_);
  EXPECT_EQ(cached.plan_cache_misses(), 2u);
  EXPECT_EQ(cached.plan_cache_hits(), 0u);
  ExpectSamePlanSet(got, *reference.EnumerateShared(q2, cache_));
}

}  // namespace
}  // namespace cloudcache
