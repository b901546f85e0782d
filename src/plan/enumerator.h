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
/// Hot path: queries of the same template share the cold part of their
/// plan set (records, families, node counts, is-existing bits), so it is
/// derived once per template and cached; a cache hit only writes the
/// time and Ce columns, one ExecutionBase per plan family. An entry is
/// keyed by Query::template_id and revalidated against
/// (CacheState::epoch, candidate generation, the query's column
/// signature); ad hoc queries (template_id < 0) always take the
/// derive-from-scratch path.
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
  /// returns the enumerator-OWNED plan set with its `time` and
  /// `price_micros` (= Ce) columns written for this query instance
  /// (zero-copy: the per-query decision loop reads it in place). On a
  /// template-cache hit the cold part is not touched at all. The pointee
  /// is valid until the next call on this enumerator; callers may rewrite
  /// the hot columns but must NOT touch the cold part, which is the
  /// cached template state.
  PlanSet* EnumerateShared(const Query& query, const CacheState& cache) const;

  /// Plan `i` of `set` (the set the last EnumerateShared returned) as a
  /// QueryPlan: its record, one re-estimate for the query of that call
  /// (the same bits as the columns, because estimation is pure), and the
  /// carried charges the price column holds beyond Ce.
  QueryPlan Materialize(const PlanSet& set, size_t i) const;

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
    /// The plan set: its cold part is filled on (re)build, its hot
    /// columns are rewritten by every EnumerateShared call.
    PlanSet plans;
  };

  /// Derives the cold part of `query`'s plan set into `out`
  /// (slot-reusing) and sizes its hot columns, leaving them stale for the
  /// per-query pricing pass.
  void BuildPlans(const Query& query, const CacheState& cache,
                  PlanSet* out) const;

  /// Adds the per-node-count variants of one plan family to `out`.
  void EmitNodeVariants(const CacheState& cache, const PlanSpec& spec,
                        const std::vector<StructureId>& structures,
                        PlanSet* out, size_t* used) const;

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
  mutable std::vector<PlanRecord> build_spares_;
  /// Writes the time/Ce columns, one ExecutionBase per plan family.
  mutable CostModel::BatchEstimator batch_;
  mutable uint64_t cache_hits_ = 0;
  mutable uint64_t cache_misses_ = 0;
};

}  // namespace cloudcache
