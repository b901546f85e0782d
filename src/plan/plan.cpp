#include "src/plan/plan.h"

#include <cstdio>

namespace cloudcache {

namespace {
const char* AccessName(PlanSpec::Access access) {
  switch (access) {
    case PlanSpec::Access::kBackend:
      return "backend";
    case PlanSpec::Access::kCacheScan:
      return "cache-scan";
    case PlanSpec::Access::kCacheIndex:
      return "cache-index";
  }
  return "?";
}
}  // namespace

std::string QueryPlan::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s[%un] t=%.3fs price=%s%s",
                AccessName(spec.access), spec.cpu_nodes,
                execution.time_seconds, Price().ToString().c_str(),
                missing.empty()
                    ? ""
                    : (" (+" + std::to_string(missing.size()) + " missing)")
                          .c_str());
  return buf;
}

}  // namespace cloudcache
