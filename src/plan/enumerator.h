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
  /// Kill switch for the per-template plan cache. The cache is
  /// semantically invisible (a cached skeleton is re-derived on every
  /// candidate-generation change, its missing-sets are refreshed on every
  /// residency epoch, and execution estimates are always recomputed per
  /// query); disabling it exists for A/B perf measurement and for the
  /// bit-identical-metrics regression test.
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
/// referencing unbuilt structures are emitted as hypothetical (PQpos). The
/// returned set is NOT skyline-filtered: the economy first writes its
/// carried charges (Ca, owed maintenance) — one base charge per family and
/// a CPU-node prefix — then applies SkylineIndicesInto.
///
/// Hot path: which plans exist depends on residency, but the plans do
/// not. Queries of the same template share the skeleton of their plan set
/// (records, families and their shape classes, node counts, CPU-node
/// ids), derived once per template and cached; a cache hit only writes
/// the time and Ce columns of each shape class, from one ExecutionBase
/// per class. Member families copy nothing: PlanSet reads a member's
/// estimate from its class's slots, and no plan is ever materialized —
/// the decision loop and the served outcome read the columns. An entry
/// is keyed by Query::template_id and revalidated against (candidate
/// generation, the query's column signature). When the residency stamp
/// (CacheState identity, CacheState::epoch) has moved since the entry was
/// last served and a structure the skeleton employs changed residency,
/// its `missing` lists and `existing` bits are refreshed in place — still
/// a hit. Ad hoc queries (template_id < 0) always take the
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
  /// returns the enumerator-OWNED plan set with its shape classes' `time`
  /// and `ce_micros` columns written for this query instance (zero-copy:
  /// the per-query decision loop reads it in place). Its `base_micros`
  /// and `cpu_prefix_micros` are the caller's to write (zero after a
  /// rebuild). On a template-cache hit the cold part is touched only to
  /// refresh its missing-sets after a residency move. The pointee is
  /// valid until the next call on this enumerator; callers may rewrite
  /// the hot columns but must NOT touch the cold part, which is the
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
    /// Residency stamp the missing-sets were last refreshed against —
    /// epochs of two different caches are not comparable, so a caller
    /// alternating caches (A/B harnesses) refreshes on every switch.
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
    /// Every structure the skeleton employs (ascending, distinct) and
    /// whether each was resident at the last refresh: a residency move
    /// that flips none of them changes no missing-set.
    std::vector<StructureId> employed;
    std::vector<uint8_t> employed_resident;
    /// The plan set: its skeleton is filled on (re)build, its
    /// missing-sets on a residency move, its hot columns by every
    /// EnumerateShared call.
    PlanSet plans;
  };

  /// Derives the residency-free skeleton of `query`'s plan set, its
  /// families grouped into shape classes, into `out` (slot-reusing),
  /// leaving `missing`, `existing` and the hot columns stale for
  /// RefreshResidency and the pricing pass.
  void BuildPlans(const Query& query, PlanSet* out) const;

  /// Adds the per-node-count variants of one plan family to `out`.
  void EmitNodeVariants(const PlanSpec& spec,
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
  /// Writes the time/Ce columns, one ExecutionBase per shape class.
  mutable CostModel::BatchEstimator batch_;
  mutable uint64_t cache_hits_ = 0;
  mutable uint64_t cache_misses_ = 0;
};

}  // namespace cloudcache
