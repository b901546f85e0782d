#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/plan/plan.h"

namespace cloudcache {

/// Reusable buffer for SkylineIndicesInto; hold one per engine so the
/// per-query filter allocates nothing in steady state.
struct SkylineScratch {
  /// Packed sort key of one plan, read from the plan set's columns.
  struct Key {
    double time;
    int64_t price;
    size_t index;
  };

  /// Per partition (indexed by the is-existing bit): its Pareto frontier.
  std::vector<Key> frontier[2];
  /// Per (shape class, base residency) group: its cheapest family.
  std::vector<uint32_t> group_best;
  /// Those families, ascending: the only ones the scans visit.
  std::vector<uint32_t> scanned;
};

/// Pareto skyline over (execution time, price), per footnote 2 of the
/// paper: "PQ holds only the skyline query plans (w.r.t. execution time and
/// overall cost); i.e. if there are two plans with the same execution time,
/// only the cheapest one is encompassed."
///
/// A plan is dominated if another plan is no slower AND no more expensive
/// (and strictly better on at least one axis). Ties on both axes keep the
/// first plan (stable).
///
/// The per-query decision loop's skyline: applies the skyline to each
/// partition of `in` separately — existing and possible plans are
/// skylined independently, because PQexist must retain an executable
/// frontier even when hypothetical plans dominate it — and fills `out`
/// with the survivors' plan indices (existing partition first, each in
/// ascending-time order). It reads only the hot columns, the node counts,
/// the `existing` column and the family table, never a plan record.
///
/// Per (shape class, base residency `existing[first]`) group it scans
/// only the family with the lowest first-variant price (ties to the
/// lowest index). By PlanSet's layout every other member's variant is
/// the kept family's variant plus a constant, so it is dominated by, or
/// ties later than, one the scan keeps, and the survivors and their order
/// equal a scan over every plan.
void SkylineIndicesInto(const PlanSet& in, std::vector<size_t>* out,
                        SkylineScratch* scratch);

}  // namespace cloudcache
