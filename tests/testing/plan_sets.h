#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "src/plan/plan.h"

namespace cloudcache::testing {

/// One already priced plan of a hand-built set: its time, its Ce and its
/// carried charges, and whether it is executable.
struct PricedPlan {
  double time = 0;
  Money ce;
  Money carried;
  bool existing = true;
};

/// A plan set of `plans`, in order. Each plan is a one-variant family of
/// its own shape class, so the skyline scans every plan, and its carried
/// charges are its family's base charge.
inline PlanSet PlanSetOf(const std::vector<PricedPlan>& plans) {
  PlanSet set;
  set.cpu_prefix_micros = {0};
  for (const PricedPlan& plan : plans) {
    const auto i = static_cast<uint32_t>(set.records.size());
    set.families.push_back(PlanFamily{i, 1, 0, i});
    set.records.emplace_back();
    set.family.push_back(i);
    set.nodes.push_back(1);
    set.existing.push_back(plan.existing ? 1 : 0);
    set.time.push_back(plan.time);
    set.ce_micros.push_back(plan.ce.micros());
    set.base_micros.push_back(plan.carried.micros());
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

/// True iff some shape class of `set` has a member whose base structures
/// are not all resident and whose first variant is cheaper than that of a
/// member whose base is resident: both residency groups of the class must
/// then be scanned.
inline bool HasCheaperNonResidentMember(const PlanSet& set) {
  for (const PlanFamily& hypothetical : set.families) {
    if (set.existing[hypothetical.first] != 0) continue;
    for (const PlanFamily& resident : set.families) {
      if (resident.shape_class == hypothetical.shape_class &&
          set.existing[resident.first] != 0 &&
          set.PriceMicros(hypothetical.first) <
              set.PriceMicros(resident.first)) {
        return true;
      }
    }
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
    for (size_t i = 0; i < set.size(); ++i) {
      if (set.existing[i] == existing) {
        keys.emplace_back(set.Time(i), set.PriceMicros(i), i);
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
