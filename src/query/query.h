#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/catalog/schema.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace cloudcache {

/// A selection predicate of a query, reduced to what the cost model and
/// index advisor need: which column it constrains, how selective it is, and
/// whether it is an equality (point) predicate — equality and narrow range
/// predicates are what indexes accelerate.
struct Predicate {
  ColumnId column = 0;
  /// Fraction of the table's rows that satisfy the predicate, in (0, 1].
  double selectivity = 1.0;
  /// True for point/equality predicates; false for range predicates.
  bool equality = false;
  /// True if backend data is physically clustered on this column, letting a
  /// scan skip to the matching region (see PredicateSpec::clustered).
  bool clustered = false;
};

/// A user query, reduced to its resource profile.
///
/// The paper's cost model (Section V-B) needs only the optimizer-reported
/// totals of a plan — CPU work `qtot`, I/O volume `iotot`, and result size
/// `S(Q)` — not SQL. A Query therefore carries the logical facts those
/// totals are derived from: the driving table, the columns it touches, its
/// predicates, and its result shape. Join templates are folded onto the
/// driving (largest) table with their cost reflected in `cpu_multiplier`.
struct Query {
  /// Monotonically increasing id assigned by the workload generator.
  uint64_t id = 0;
  /// Which of the workload's templates produced this query (-1 for ad hoc).
  int template_id = -1;
  /// The driving table.
  TableId table = 0;
  /// Columns the query must read that are returned to the user.
  std::vector<ColumnId> output_columns;
  /// Selection predicates (their columns must also be readable).
  std::vector<Predicate> predicates;
  /// Relative CPU cost per scanned row vs a plain scan; >= 1. Encodes
  /// folded join/aggregation work of the template.
  double cpu_multiplier = 1.0;
  /// Fraction of the execution that parallelizes across CPU nodes
  /// (Amdahl); scientific scan/aggregate queries are close to 1.
  double parallel_fraction = 0.9;
  /// Rows surviving all predicates.
  uint64_t result_rows = 0;
  /// Result size S(Q) in bytes, shipped to the user (and, for back-end
  /// execution, across the wide-area network to the cache).
  uint64_t result_bytes = 0;
  /// Arrival time in simulation seconds.
  SimTime arrival_time = 0;
  /// Which query stream issued this query (multi-tenant simulation).
  /// Single-stream runs leave the default: tenant 0 is the classic single
  /// user of the paper's evaluation.
  uint32_t tenant_id = 0;

  /// Product of predicate selectivities (independence assumption), the
  /// fraction of the table scanned output must consider.
  double CombinedSelectivity() const;

  /// Output and predicate columns, deduplicated, in ascending ColumnId
  /// order. These are the columns a cache-resident plan needs.
  ///
  /// Memoized: the set is derived once (the workload generator does it at
  /// instantiation) and the same vector is handed to the enumerator, the
  /// cost model, and the simulator's metered re-pricing — the hot path
  /// calls this several times per plan per query. The memo revalidates
  /// against a fingerprint of the output and predicate column ids, so any
  /// later mutation of those fields (incremental construction in tests,
  /// in-place column swaps) recomputes instead of serving a stale set.
  const std::vector<ColumnId>& AccessedColumns() const;

  /// Validates internal consistency against `catalog`: columns belong to
  /// `table`, selectivities in (0,1], result within table bounds.
  Status Validate(const Catalog& catalog) const;

 private:
  /// FNV-1a fingerprint of (output_columns, predicates' columns) — the
  /// exact inputs AccessedColumns derives from.
  uint64_t ColumnFingerprint() const;

  /// AccessedColumns memo plus the fingerprint it was computed at (its
  /// staleness check). Mutable so the lazily-filled memo keeps the
  /// accessor const; queries are confined to one simulation thread, so no
  /// synchronization is needed.
  mutable std::vector<ColumnId> accessed_memo_;
  mutable uint64_t memo_fingerprint_ = 0;
};

/// Recomputes result_rows/result_bytes from the predicates and output
/// columns. `row_limit_fraction` further scales the result (for templates
/// with aggregation that collapses rows).
void DeriveResultShape(const Catalog& catalog, double row_limit_fraction,
                       Query* query);

}  // namespace cloudcache
