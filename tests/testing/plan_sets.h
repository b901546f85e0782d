#pragma once

#include <vector>

#include "src/plan/plan.h"

namespace cloudcache::testing {

/// A plan set whose records and hot columns come from already priced
/// plans, in order (no families: enough for the column readers, such as
/// the skyline).
inline PlanSet PlanSetOf(const std::vector<QueryPlan>& plans) {
  PlanSet set;
  for (const QueryPlan& plan : plans) {
    set.records.push_back(plan);
    set.nodes.push_back(plan.spec.cpu_nodes);
    set.existing.push_back(plan.IsExisting() ? 1 : 0);
    set.time.push_back(plan.TimeSeconds());
    set.price_micros.push_back(plan.Price().micros());
  }
  return set;
}

}  // namespace cloudcache::testing
