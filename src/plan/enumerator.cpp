#include "src/plan/enumerator.h"

#include <algorithm>

#include "src/util/logging.h"
#include "src/util/slot_pool.h"

namespace cloudcache {

namespace {

/// Sorts and deduplicates a structure list. EmitNodeVariants requires its
/// list normalized; every plan family routes through this one function.
void NormalizeStructures(std::vector<StructureId>* structures) {
  std::sort(structures->begin(), structures->end());
  structures->erase(std::unique(structures->begin(), structures->end()),
                    structures->end());
}

/// Rewrites each plan's `missing` list and `existing` bit for `cache`.
void RefreshResidency(const CacheState& cache, PlanSet* set) {
  for (size_t i = 0; i < set->size(); ++i) {
    PlanRecord& plan = set->records[i];
    plan.missing.clear();
    for (StructureId id : plan.structures) {
      if (!cache.IsResident(id)) plan.missing.push_back(id);
    }
    set->existing[i] = plan.missing.empty() ? 1 : 0;
  }
}

}  // namespace

PlanEnumerator::PlanEnumerator(const CostModel* model,
                               StructureRegistry* registry,
                               EnumeratorOptions options)
    : model_(model),
      registry_(registry),
      options_(std::move(options)),
      batch_(model, options_.node_options) {
  std::sort(options_.node_options.begin(), options_.node_options.end());
  options_.node_options.erase(std::unique(options_.node_options.begin(),
                                          options_.node_options.end()),
                              options_.node_options.end());
  // Node counts start at 1, and 1 must be among them.
  CLOUDCACHE_CHECK(!options_.node_options.empty() &&
                   options_.node_options.front() == 1u);
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

void PlanEnumerator::EmitNodeVariants(const PlanSpec& spec,
                                      const std::vector<StructureId>& structures,
                                      PlanSet* out, size_t* used) const {
  // `structures` must arrive sorted and deduplicated (the callers own the
  // scratch buffer and normalize it once per plan family).
  PlanFamily family;
  family.first = static_cast<uint32_t>(*used);
  family.base_structures = static_cast<uint32_t>(structures.size());
  for (uint32_t nodes : options_.node_options) {
    if (nodes > 1 && !options_.allow_parallel) break;
    PlanRecord& plan = AcquireSlot(&out->records, used, &build_spares_);
    plan.spec = spec;
    plan.spec.cpu_nodes = nodes;
    plan.structures.assign(structures.begin(), structures.end());
    // Extra nodes beyond the always-on one are structures in their own
    // right (BuildN/MaintN apply to them).
    for (uint32_t extra = 0; extra + 1 < nodes; ++extra) {
      const StructureId id = registry_->Intern(CpuNodeKey(extra));
      plan.structures.push_back(id);
      if (extra == out->cpu_node_ids.size()) {
        out->cpu_node_ids.push_back(id);
      }
    }
    out->family.push_back(static_cast<uint32_t>(out->families.size()));
    out->nodes.push_back(nodes);
    ++family.count;
  }
  out->families.push_back(family);
}

void PlanEnumerator::BuildPlans(const Query& query, PlanSet* out) const {
  size_t used = 0;
  out->families.clear();
  out->family.clear();
  out->nodes.clear();
  out->cpu_node_ids.clear();

  // 1. The back-end plan: always available, employs no cache structures.
  {
    PlanRecord& plan = AcquireSlot(&out->records, &used, &build_spares_);
    plan.spec.access = PlanSpec::Access::kBackend;
    plan.spec.covered_predicates.clear();
    plan.spec.covering = false;
    plan.spec.cpu_nodes = 1;
    plan.structures.clear();
    out->families.push_back(PlanFamily{0, 1, 0});
    out->family.push_back(0);
    out->nodes.push_back(1);
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
    EmitNodeVariants(spec, structures_scratch_, out, &used);
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
      EmitNodeVariants(spec, structures_scratch_, out, &used);
    }
  }
  ReleaseSurplus(&out->records, used, &build_spares_);

  // 4. Shape classes: a family joins the first earlier class whose first
  // family has the same estimation inputs, or starts its own.
  for (uint32_t f = 0; f < out->families.size(); ++f) {
    PlanFamily& family = out->families[f];
    const PlanSpec& spec = out->records[family.first].spec;
    const uint32_t* nodes = &out->nodes[family.first];
    family.shape_class = f;
    for (uint32_t c = 0; c < f; ++c) {
      const PlanFamily& lead = out->families[c];
      const PlanSpec& other = out->records[lead.first].spec;
      if (lead.shape_class == c && other.access == spec.access &&
          other.covering == spec.covering &&
          other.covered_predicates == spec.covered_predicates &&
          std::equal(nodes, nodes + family.count, &out->nodes[lead.first],
                     &out->nodes[lead.first] + lead.count)) {
        family.shape_class = c;
        break;
      }
    }
  }
  out->existing.resize(used);
  out->time.resize(used);
  out->ce_micros.resize(used);
  out->base_micros.assign(out->families.size(), 0);
  out->cpu_prefix_micros.assign(out->cpu_node_ids.size() + 1, 0);
}

PlanSet* PlanEnumerator::EnumerateShared(const Query& query,
                                         const CacheState& cache) const {
  PlanSet* set;
  if (!options_.enable_plan_cache || query.template_id < 0) {
    BuildPlans(query, &adhoc_plans_);
    RefreshResidency(cache, &adhoc_plans_);
    set = &adhoc_plans_;
  } else {
    TemplateCacheEntry& entry = template_cache_[query.template_id];
    if (entry.valid && entry.generation == generation_ &&
        SignatureMatches(entry, query)) {
      ++cache_hits_;
    } else {
      ++cache_misses_;
      BuildPlans(query, &entry.plans);
      entry.employed.clear();
      for (const PlanRecord& plan : entry.plans.records) {
        entry.employed.insert(entry.employed.end(), plan.structures.begin(),
                              plan.structures.end());
      }
      NormalizeStructures(&entry.employed);
      entry.employed_resident.resize(entry.employed.size());
      entry.cache = nullptr;  // Force the residency refresh below.
      entry.generation = generation_;
      entry.valid = true;
      entry.table = query.table;
      entry.output_columns = query.output_columns;
      entry.predicate_columns.clear();
      for (const Predicate& p : query.predicates) {
        entry.predicate_columns.push_back(p.column);
      }
    }
    if (entry.cache != &cache || entry.epoch != cache.epoch()) {
      bool flipped = entry.cache == nullptr;
      for (size_t k = 0; k < entry.employed.size(); ++k) {
        const uint8_t resident = cache.IsResident(entry.employed[k]) ? 1 : 0;
        flipped |= entry.employed_resident[k] != resident;
        entry.employed_resident[k] = resident;
      }
      if (flipped) RefreshResidency(cache, &entry.plans);
      entry.cache = &cache;
      entry.epoch = cache.epoch();
    }
    set = &entry.plans;
  }

  // Estimate the plans for this query instance. Estimates depend on the
  // instance's selectivities and result shape, so they are never cached;
  // but the batch estimator derives one ExecutionBase per shape class and
  // finalizes its node variants from it, straight into the class's
  // columns, which its other members read. On a cache hit this loop is
  // the ONLY per-query work.
  batch_.Reset(query);
  for (uint32_t f = 0; f < set->families.size(); ++f) {
    const PlanFamily& family = set->families[f];
    if (family.shape_class != f) continue;
    batch_.EstimateFamily(set->records[family.first].spec,
                          &set->nodes[family.first], family.count,
                          &set->time[family.first],
                          &set->ce_micros[family.first]);
  }
  return set;
}

}  // namespace cloudcache
