#include "src/plan/enumerator.h"

#include <algorithm>

#include "src/util/logging.h"
#include "src/util/slot_pool.h"

namespace cloudcache {

namespace {

/// EmitNodeVariants requires its structure list sorted and deduplicated;
/// every plan family routes through this one normalization.
void NormalizeStructures(std::vector<StructureId>* structures) {
  std::sort(structures->begin(), structures->end());
  structures->erase(std::unique(structures->begin(), structures->end()),
                    structures->end());
}

}  // namespace

PlanEnumerator::PlanEnumerator(const CostModel* model,
                               StructureRegistry* registry,
                               EnumeratorOptions options)
    : model_(model),
      registry_(registry),
      options_(std::move(options)),
      batch_(model) {
  CLOUDCACHE_CHECK(std::find(options_.node_options.begin(),
                             options_.node_options.end(),
                             1u) != options_.node_options.end());
  std::sort(options_.node_options.begin(), options_.node_options.end());
  options_.node_options.erase(std::unique(options_.node_options.begin(),
                                          options_.node_options.end()),
                              options_.node_options.end());
}

void PlanEnumerator::SetIndexCandidates(
    const std::vector<StructureKey>& candidates) {
  index_candidates_.clear();
  index_candidates_.reserve(candidates.size());
  for (const StructureKey& key : candidates) {
    CLOUDCACHE_CHECK(key.type == StructureType::kIndex);
    index_candidates_.push_back(registry_->Intern(key));
  }
  ++generation_;  // Every cached plan list is now stale.
}

bool PlanEnumerator::SignatureMatches(const TemplateCacheEntry& entry,
                                      const Query& query) const {
  if (entry.table != query.table) return false;
  if (entry.output_columns != query.output_columns) return false;
  if (entry.predicate_columns.size() != query.predicates.size()) {
    return false;
  }
  for (size_t i = 0; i < query.predicates.size(); ++i) {
    if (entry.predicate_columns[i] != query.predicates[i].column) {
      return false;
    }
  }
  return true;
}

void PlanEnumerator::EmitNodeVariants(const CacheState& cache,
                                      const PlanSpec& spec,
                                      const std::vector<StructureId>& structures,
                                      std::vector<QueryPlan>* out,
                                      size_t* used) const {
  // `structures` must arrive sorted and deduplicated (the callers own the
  // scratch buffer and normalize it once per plan family).
  for (uint32_t nodes : options_.node_options) {
    if (nodes > 1 && !options_.allow_parallel) break;
    QueryPlan& plan = AcquireSlot(out, used, &build_spares_);
    plan.spec = spec;
    plan.spec.cpu_nodes = nodes;
    plan.structures.assign(structures.begin(), structures.end());
    // Extra nodes beyond the always-on one are structures in their own
    // right (BuildN/MaintN apply to them).
    for (uint32_t extra = 0; extra + 1 < nodes; ++extra) {
      plan.structures.push_back(registry_->Intern(CpuNodeKey(extra)));
    }
    plan.missing.clear();
    for (StructureId id : plan.structures) {
      if (!cache.IsResident(id)) plan.missing.push_back(id);
    }
    if (!plan.missing.empty() && !options_.include_hypothetical) {
      --*used;  // Drop the variant; the slot is recycled by the next one.
    }
  }
}

void PlanEnumerator::BuildPlans(const Query& query, const CacheState& cache,
                                std::vector<QueryPlan>* out) const {
  size_t used = 0;

  // 1. The back-end plan: always available, employs no cache structures.
  {
    QueryPlan& plan = AcquireSlot(out, &used, &build_spares_);
    plan.spec.access = PlanSpec::Access::kBackend;
    plan.spec.covered_predicates.clear();
    plan.spec.covering = false;
    plan.spec.cpu_nodes = 1;
    plan.structures.clear();
    plan.missing.clear();
  }

  const std::vector<ColumnId>& accessed = query.AccessedColumns();
  const Catalog& catalog = registry_->catalog();

  // 2. Column-scan plan over the accessed columns.
  {
    PlanSpec spec;
    spec.access = PlanSpec::Access::kCacheScan;
    structures_scratch_.clear();
    for (ColumnId col : accessed) {
      structures_scratch_.push_back(registry_->Intern(ColumnKey(catalog, col)));
    }
    NormalizeStructures(&structures_scratch_);
    EmitNodeVariants(cache, spec, structures_scratch_, out, &used);
  }

  // 3. Index plans from the candidate pool.
  if (options_.allow_indexes) {
    for (StructureId index_id : index_candidates_) {
      const StructureKey& key = registry_->key(index_id);
      if (key.table != query.table) continue;

      // The probe covers the maximal prefix of key columns that carry
      // predicates of this query; an index whose leading column has no
      // predicate cannot be probed.
      PlanSpec spec;
      spec.access = PlanSpec::Access::kCacheIndex;
      for (ColumnId key_col : key.columns) {
        bool found = false;
        for (size_t pos = 0; pos < query.predicates.size(); ++pos) {
          if (query.predicates[pos].column == key_col) {
            spec.covered_predicates.push_back(pos);
            found = true;
            break;
          }
        }
        if (!found) break;
      }
      if (spec.covered_predicates.empty()) continue;

      spec.covering = std::all_of(
          accessed.begin(), accessed.end(), [&](ColumnId col) {
            return std::find(key.columns.begin(), key.columns.end(), col) !=
                   key.columns.end();
          });

      structures_scratch_.clear();
      structures_scratch_.push_back(index_id);
      if (!spec.covering) {
        // Row fetches read every accessed column absent from the index
        // key from the cached base columns.
        for (ColumnId col : accessed) {
          if (std::find(key.columns.begin(), key.columns.end(), col) ==
              key.columns.end()) {
            structures_scratch_.push_back(
                registry_->Intern(ColumnKey(catalog, col)));
          }
        }
      }
      NormalizeStructures(&structures_scratch_);
      EmitNodeVariants(cache, spec, structures_scratch_, out, &used);
    }
  }
  ReleaseSurplus(out, used, &build_spares_);
}

PlanSet* PlanEnumerator::EnumerateShared(const Query& query,
                                         const CacheState& cache) const {
  PlanSet* set;
  if (!options_.enable_plan_cache || query.template_id < 0) {
    BuildPlans(query, cache, &adhoc_plans_.plans);
    set = &adhoc_plans_;
  } else {
    TemplateCacheEntry& entry = template_cache_[query.template_id];
    if (entry.valid && entry.cache == &cache &&
        entry.epoch == cache.epoch() && entry.generation == generation_ &&
        SignatureMatches(entry, query)) {
      ++cache_hits_;
    } else {
      ++cache_misses_;
      BuildPlans(query, cache, &entry.plans.plans);
      entry.cache = &cache;
      entry.epoch = cache.epoch();
      entry.generation = generation_;
      entry.valid = true;
      entry.table = query.table;
      entry.output_columns = query.output_columns;
      entry.predicate_columns.clear();
      for (const Predicate& p : query.predicates) {
        entry.predicate_columns.push_back(p.column);
      }
    }
    set = &entry.plans;
  }

  // Price the cached plans for this query instance, in place. Estimates
  // depend on the instance's selectivities and result shape, so they are
  // never cached — but plans arrive grouped by family, so the batch
  // estimator shares the access-path computation across each family's
  // node variants. The structure-dependent fields are untouched: on a
  // cache hit this loop is the ONLY per-query work.
  batch_.Reset(query);
  for (QueryPlan& plan : set->plans) {
    plan.carried_charges = Money();
    plan.execution = batch_.Estimate(plan.spec);
  }
  return set;
}

}  // namespace cloudcache
