#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "src/plan/plan.h"

namespace cloudcache::testing {

/// A plan set whose records and hot columns come from already priced
/// plans, in order. Each plan is a one-variant family of its own shape
/// class, so the skyline scans every plan.
inline PlanSet PlanSetOf(const std::vector<QueryPlan>& plans) {
  PlanSet set;
  for (const QueryPlan& plan : plans) {
    const auto i = static_cast<uint32_t>(set.records.size());
    set.families.push_back(PlanFamily{
        i, 1, static_cast<uint32_t>(plan.structures.size()), i});
    set.records.push_back(plan);
    set.nodes.push_back(plan.spec.cpu_nodes);
    set.existing.push_back(plan.IsExisting() ? 1 : 0);
    set.time.push_back(plan.TimeSeconds());
    set.price_micros.push_back(plan.Price().micros());
  }
  return set;
}

/// True iff some family of `set` joined an earlier family's shape class,
/// so the skyline may skip it.
inline bool HasSharedShapeClass(const PlanSet& set) {
  for (size_t f = 0; f < set.families.size(); ++f) {
    if (set.families[f].shape_class != f) return true;
  }
  return false;
}

/// The skyline the slow way, over every plan of `set` and ignoring its
/// families and shape classes: each partition (existing first) sorted by
/// (time, price, index), keeping every plan strictly cheaper than all
/// plans before it.
inline std::vector<size_t> FullScanSkyline(const PlanSet& set) {
  std::vector<size_t> out;
  for (const uint8_t existing : {uint8_t{1}, uint8_t{0}}) {
    std::vector<std::tuple<double, int64_t, size_t>> keys;
    for (size_t i = 0; i < set.time.size(); ++i) {
      if (set.existing[i] == existing) {
        keys.emplace_back(set.time[i], set.price_micros[i], i);
      }
    }
    std::sort(keys.begin(), keys.end());
    int64_t cheapest = std::numeric_limits<int64_t>::max();
    for (const auto& [time, price, index] : keys) {
      if (price < cheapest) {
        cheapest = price;
        out.push_back(index);
      }
    }
  }
  return out;
}

}  // namespace cloudcache::testing
