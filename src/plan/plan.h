#pragma once

#include <cstdint>
#include <vector>

#include "src/cost/cost_model.h"
#include "src/structure/structure.h"
#include "src/util/money.h"

namespace cloudcache {

/// The structure-dependent part of a candidate plan: its physical shape,
/// the structures it employs, and which of them do not exist yet. The
/// shape and structures depend only on the query's template, so the
/// enumerator derives them once per template; `missing` follows the cache
/// residency and is refreshed in place when it moves.
///
/// Plans with an empty `missing` set form PQexist (executable right now);
/// plans employing at least one unbuilt structure form PQpos, considered
/// only for regret accounting and investment (Section IV-B).
struct PlanRecord {
  PlanSpec spec;
  /// Every structure the plan employs — resident or hypothetical. The
  /// regret of a rejected plan is distributed uniformly over this set.
  std::vector<StructureId> structures;
  /// Subset of `structures` not currently resident; empty <=> PQexist.
  std::vector<StructureId> missing;

  /// True if every employed structure exists (the plan is executable).
  bool IsExisting() const { return missing.empty(); }
};

/// One plan family: the node-count variants of one access shape
/// (access, covered_predicates, covering), stored consecutively. Every
/// variant employs the family's base structures followed by its own
/// CPU-node extras CpuNodeKey(0), CpuNodeKey(1), ...
struct PlanFamily {
  /// Index of the family's first plan; the variants are
  /// [first, first + count).
  uint32_t first = 0;
  uint32_t count = 0;
  /// How many leading entries of each variant's `structures` are the
  /// family's base structures (the rest are CPU-node extras).
  uint32_t base_structures = 0;
  /// The shape class, named by its first family's index. Families with
  /// equal access, covering, covered_predicates and node counts share
  /// one: estimation reads only those, the query and the node count.
  uint32_t shape_class = 0;
};

/// The plan set PQ of one query, split in a cold part and hot columns.
///
/// The cold part is rebuilt only when the enumerator re-derives the
/// template's plans (a plan-cache miss); in between, only the `missing`
/// lists and the `existing` column change, refreshed when the cache
/// residency moves. The hot columns are rewritten for every query
/// instance, and the decision loop — skyline, affordability, selection,
/// regret — reads them instead of the records.
///
/// Prices are not stored per plan; Price(i) adds three columns where it is
/// read: the Ce of plan i's shape class at its variant, its family's base
/// charge, and the set's CPU-node prefix at its node count. So members of
/// one shape class share each variant's time and Ce by layout, and two
/// members' prices differ by one constant (their base charges) across
/// every variant — SkylineIndicesInto relies on it.
struct PlanSet {
  // --- Cold part.
  std::vector<PlanRecord> records;
  std::vector<PlanFamily> families;
  /// Per plan: the index of its family.
  std::vector<uint32_t> family;
  /// Per plan: CPU nodes employed (records[i].spec.cpu_nodes; 1 for the
  /// back-end plan).
  std::vector<uint32_t> nodes;
  /// Per plan: 1 iff records[i].IsExisting().
  std::vector<uint8_t> existing;
  /// Ids of CpuNodeKey(0), CpuNodeKey(1), ... as far as any plan of the
  /// set employs them; a plan on n nodes employs the first n - 1.
  std::vector<StructureId> cpu_node_ids;

  // --- Hot columns, rewritten per query: `time` and `ce_micros` by the
  // enumerator, the carried charges by the economy's pricing pass (zero
  // until one runs).
  /// Response time and Ce (micro-dollars) of each shape class's variants,
  /// at the plan slots of the class's first family; the slots of the
  /// other members are never read.
  std::vector<double> time;
  std::vector<int64_t> ce_micros;
  /// Per family: the carried charges (Ca plus owed maintenance) of its
  /// base structures.
  std::vector<int64_t> base_micros;
  /// cpu_prefix_micros[k]: the carried charges of the first k CPU-node
  /// structures, which a plan on k + 1 nodes employs.
  std::vector<int64_t> cpu_prefix_micros;

  size_t size() const { return records.size(); }
  /// The slot of `time`/`ce_micros` holding plan i's estimate: the same
  /// variant of its shape class's first family.
  size_t Slot(size_t i) const {
    const PlanFamily& f = families[family[i]];
    return families[f.shape_class].first + (i - f.first);
  }
  /// Response time of plan i for the current query.
  double Time(size_t i) const { return time[Slot(i)]; }
  /// C = Ce + Ca of plan i (Eq. 4).
  int64_t PriceMicros(size_t i) const {
    return ce_micros[Slot(i)] + base_micros[family[i]] +
           cpu_prefix_micros[nodes[i] - 1];
  }
  Money Price(size_t i) const { return Money::FromMicros(PriceMicros(i)); }
};

}  // namespace cloudcache
