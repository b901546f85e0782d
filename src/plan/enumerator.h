#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/cache/cache_state.h"
#include "src/cost/cost_model.h"
#include "src/plan/plan.h"
#include "src/query/query.h"
#include "src/structure/structure.h"

namespace cloudcache {

/// Knobs restricting the plan space; the scheme variants of Section VII-A
/// are expressed through these (econ-col disables indexes and parallelism).
struct EnumeratorOptions {
  bool allow_indexes = true;
  bool allow_parallel = true;
  /// Node counts tried for cache plans; must contain 1.
  std::vector<uint32_t> node_options = {1, 2, 3, 4};
  /// Whether to emit hypothetical (PQpos) plans at all; the bypass-yield
  /// baseline has no regret machinery and turns this off.
  bool include_hypothetical = true;
  /// Kill switch for the per-template plan cache. The cache is
  /// semantically invisible (cached plans are invalidated on every
  /// residency epoch or candidate-generation change, and execution
  /// estimates are always recomputed per query); disabling it exists for
  /// A/B perf measurement and for the bit-identical-metrics regression
  /// test.
  bool enable_plan_cache = true;
};

/// Enumerates the candidate plan set PQ for a query (Section IV-B):
///
///  * the back-end plan (always exists, uses no cache structures),
///  * a cache column-scan plan over the accessed columns,
///  * one cache index plan per applicable candidate index (an index
///    applies when its leading key column carries one of the query's
///    predicates; the probe covers the maximal key prefix of predicate
///    columns, and the plan is covering if the key contains every accessed
///    column),
///  * each of the above at every allowed CPU-node count.
///
/// Structures already resident make a plan executable (PQexist); plans
/// referencing unbuilt structures are emitted as hypothetical (PQpos) when
/// include_hypothetical is set. The returned set is NOT skyline-filtered:
/// the economy first adds carried charges (Ca, owed maintenance), then
/// applies SkylineIndicesInto.
///
/// Hot path: queries of the same template share the structure-dependent
/// part of their plans (spec shape, employed structures, which are
/// absent), so those are materialized once per template and cached; a
/// cache hit only re-runs CostModel::EstimateExecution (per-instance
/// selectivities) over the cached plans in place. An entry is keyed by
/// Query::template_id and revalidated against (CacheState::epoch,
/// candidate generation, the query's column signature); ad hoc queries
/// (template_id < 0) always take the derive-from-scratch path.
class PlanEnumerator {
 public:
  PlanEnumerator(const CostModel* model, StructureRegistry* registry,
                 EnumeratorOptions options);

  /// Registers the advisor's index candidate pool (interning the keys).
  /// Bumps the candidate generation, invalidating all cached plans.
  void SetIndexCandidates(const std::vector<StructureKey>& candidates);

  /// The interned candidate index ids.
  const std::vector<StructureId>& index_candidates() const {
    return index_candidates_;
  }

  /// Enumerates plans for `query` against the current cache contents and
  /// returns the enumerator-OWNED plan set, freshly priced for this query
  /// instance (zero-copy: the per-query decision loop reads it in place).
  /// On a template-cache hit no plan vectors are touched at all — only
  /// `execution` and `carried_charges` are rewritten in place. The
  /// pointee is valid until the next call on this enumerator; callers may
  /// mutate the per-query scalar fields (`execution`, `carried_charges`)
  /// but must NOT touch `spec`/`structures`/`missing`, which are the
  /// cached template state.
  PlanSet* EnumerateShared(const Query& query, const CacheState& cache) const;

  const EnumeratorOptions& options() const { return options_; }

  /// Monotonic counter bumped by SetIndexCandidates; part of the plan
  /// cache key.
  uint64_t candidate_generation() const { return generation_; }

  /// Plan-cache observability (for tests and benchmarks).
  uint64_t plan_cache_hits() const { return cache_hits_; }
  uint64_t plan_cache_misses() const { return cache_misses_; }
  size_t plan_cache_size() const { return template_cache_.size(); }

 private:
  struct TemplateCacheEntry {
    /// Identity of the CacheState the plans were derived against —
    /// epochs of two different caches are not comparable, so a caller
    /// alternating caches (A/B harnesses) must miss, not collide.
    const CacheState* cache = nullptr;
    uint64_t epoch = 0;
    uint64_t generation = 0;
    bool valid = false;
    /// Structural signature of the query the plans were derived from;
    /// a template id must always map to one structure, but trace replay
    /// can in principle reuse ids across shapes, so a mismatch falls back
    /// to re-derivation instead of serving wrong plans.
    TableId table = 0;
    std::vector<ColumnId> output_columns;
    std::vector<ColumnId> predicate_columns;
    /// The materialized plan set. `spec`/`structures`/`missing` are
    /// template state filled on (re)build; `execution`/`carried_charges`
    /// are per-query and rewritten by every EnumerateShared call.
    PlanSet plans;
  };

  /// Derives the full plan list for `query` into `out` (slot-reusing).
  /// Fills only the structure-dependent fields; `execution` and
  /// `carried_charges` are left stale for the per-query pricing pass.
  void BuildPlans(const Query& query, const CacheState& cache,
                  std::vector<QueryPlan>* out) const;

  /// Adds per-node-count variants of a cache plan to `out`.
  void EmitNodeVariants(const CacheState& cache, const PlanSpec& spec,
                        const std::vector<StructureId>& structures,
                        std::vector<QueryPlan>* out, size_t* used) const;

  bool SignatureMatches(const TemplateCacheEntry& entry,
                        const Query& query) const;

  const CostModel* model_;
  StructureRegistry* registry_;
  EnumeratorOptions options_;
  std::vector<StructureId> index_candidates_;
  uint64_t generation_ = 0;

  /// Plan cache + scratch. Mutable: EnumerateShared is logically const (the
  /// plan set it returns is a pure function of (query, cache, candidates))
  /// and an enumerator is owned by one single-threaded engine. The spare
  /// pools park surplus output elements when a smaller template follows a
  /// larger one, so mixed-template steady state stays allocation-free.
  mutable std::unordered_map<int, TemplateCacheEntry> template_cache_;
  mutable PlanSet adhoc_plans_;
  mutable std::vector<StructureId> structures_scratch_;
  /// Spare slots for BuildPlans targets (cache entries, adhoc set).
  mutable std::vector<QueryPlan> build_spares_;
  /// Shares the per-family ExecutionBase across a query's node variants.
  mutable CostModel::BatchEstimator batch_;
  mutable uint64_t cache_hits_ = 0;
  mutable uint64_t cache_misses_ = 0;
};

}  // namespace cloudcache
