#pragma once

#include <vector>

namespace cloudcache {

struct TenantMetrics;

/// Fairness statistics over per-tenant allocations.
///
/// The multi-tenant economy shares one cache, one credit account, and one
/// Eq. 3 investment budget among N query streams; these metrics quantify
/// how evenly the outcomes (response times, billed dollars) spread over
/// the streams. They are descriptive — pure functions of the per-tenant
/// values with no internal state — so every caller (metrics, benches, the
/// tenant-aware eviction policy) computes them from the same formulas.

/// Jain's fairness index: (sum x)^2 / (n * sum x^2), in [1/n, 1].
/// 1.0 when every tenant gets the same value, 1/n when a single tenant
/// monopolizes everything. Degenerate inputs (empty, or all values zero)
/// are defined as 1.0: nothing was allocated, so nothing was unfair —
/// and a single-population report stays bit-identical to the default
/// FairnessReport below.
double JainsIndex(const std::vector<double>& values);

/// Max-min share for higher-is-better allocations (dollars, throughput):
/// min(x) / mean(x), in [0, 1]. 1.0 when the worst-off tenant receives
/// exactly the fair (equal) share, 0.0 when some tenant is starved
/// entirely. Same degenerate convention as JainsIndex: empty or all-zero
/// inputs are 1.0.
double MaxMinShare(const std::vector<double>& values);

/// Max-min share for lower-is-better quantities (response times):
/// mean(x) / max(x), in [1/n, 1]. The worst-off tenant of a latency
/// vector is the *max*, so this falls toward 1/n as one tenant's latency
/// dwarfs the rest and reaches 1.0 when everyone waits equally long —
/// moving in the same direction as Jain's index, which the plain
/// min/mean form would not. Degenerate inputs are 1.0.
double MaxMinShareLowerBetter(const std::vector<double>& values);

/// Jain's index rescaled to [0, 1] regardless of population size:
/// (n * J - 1) / (n - 1). 0.0 when one tenant holds everything, 1.0 when
/// the spread is perfectly even. A population of fewer than two values is
/// defined as 0.0 (a single backer IS full concentration) — this is the
/// breadth score the tenant-aware eviction policy uses to decide how
/// broadly a structure's backing regret is shared.
double NormalizedBreadth(const std::vector<double>& values);

/// Per-run fairness summary over the tenant slices of one simulation.
///
/// Defaults are the single-population fixed point (everything 1.0), so a
/// classic single-stream run — which never computes fairness — carries
/// exactly the values one merged stream computes.
struct FairnessReport {
  /// Jain's index / lower-is-better max-min share (mean/max) over
  /// per-tenant mean response seconds.
  double response_jain = 1.0;
  double response_max_min = 1.0;
  /// Jain's index / max-min share (min/mean) over per-tenant billed
  /// dollars (execution + build spending attributed to the tenant's
  /// queries).
  double billed_jain = 1.0;
  double billed_max_min = 1.0;
};

/// Computes the report from per-tenant slices: response values are each
/// tenant's mean response seconds, billed values each tenant's
/// operating-cost total. Deterministic: iterates the slices in order and
/// uses no state beyond them.
FairnessReport ComputeFairness(const std::vector<TenantMetrics>& tenants);

}  // namespace cloudcache
