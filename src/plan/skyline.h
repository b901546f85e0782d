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

  std::vector<Key> frontier;
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
/// ascending-time order). It reads only the `time`, `price_micros` and
/// `existing` columns, never a plan record.
void SkylineIndicesInto(const PlanSet& in, std::vector<size_t>* out,
                        SkylineScratch* scratch);

}  // namespace cloudcache
