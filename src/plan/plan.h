#pragma once

#include <cstdint>
#include <string>
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

/// A materialized, priced plan: the record plus its execution estimate
/// and carried charges for one query instance. The decision loop prices
/// plans as PlanSet columns; only the executed plan becomes a QueryPlan.
struct QueryPlan : PlanRecord {
  /// Execution estimate at the deciding scheme's price list.
  ExecutionEstimate execution;
  /// Amortized-cost component Ca (Eq. 5-7) plus owed maintenance of the
  /// plan's structures (footnote 3).
  Money carried_charges;

  /// C(PQ) = Ce(PQ) + Ca(PQ): the plan's advertised price (Eq. 4).
  Money Price() const { return execution.cost + carried_charges; }

  /// Response time the plan guarantees.
  double TimeSeconds() const { return execution.time_seconds; }

  /// Debug form, e.g. "cache-index[3n] t=1.20s price=$0.004 (+2 missing)".
  std::string ToString() const;
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
/// Price invariant: members of one shape class have the same time and Ce
/// bits at each variant k, and the price column adds a per-family
/// constant plus a per-node-count term shared by the set (base structures'
/// charges plus a CPU-node prefix). So two members' prices differ by one
/// constant across k — SkylineIndicesInto relies on it.
struct PlanSet {
  // --- Cold part.
  std::vector<PlanRecord> records;
  std::vector<PlanFamily> families;
  /// Per plan: CPU nodes employed (records[i].spec.cpu_nodes; 1 for the
  /// back-end plan).
  std::vector<uint32_t> nodes;
  /// Per plan: 1 iff records[i].IsExisting().
  std::vector<uint8_t> existing;
  /// Ids of CpuNodeKey(0), CpuNodeKey(1), ... as far as any plan of the
  /// set employs them; a plan on n nodes employs the first n - 1.
  std::vector<StructureId> cpu_node_ids;

  // --- Hot columns, one entry per plan.
  /// Response time of the plan for the current query.
  std::vector<double> time;
  /// Ce in micro-dollars after enumeration; the economy then adds the
  /// carried charges, making it the plan's price C = Ce + Ca (Eq. 4).
  std::vector<int64_t> price_micros;

  size_t size() const { return records.size(); }
  Money Price(size_t i) const { return Money::FromMicros(price_micros[i]); }
};

}  // namespace cloudcache
