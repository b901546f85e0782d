#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/metrics.h"
#include "src/econ/fairness.h"
#include "src/obs/histogram.h"
#include "src/util/money.h"
#include "src/util/stats.h"

namespace cloudcache {

/// Metered operating cost decomposed by resource — the quantities behind
/// Fig. 4. All values in dollars at the metered (real) price list.
struct ResourceBreakdown {
  double cpu_dollars = 0;
  double network_dollars = 0;
  double disk_dollars = 0;
  double io_dollars = 0;

  double Total() const {
    return cpu_dollars + network_dollars + disk_dollars + io_dollars;
  }

  ResourceBreakdown& operator+=(const ResourceBreakdown& other) {
    cpu_dollars += other.cpu_dollars;
    network_dollars += other.network_dollars;
    disk_dollars += other.disk_dollars;
    io_dollars += other.io_dollars;
    return *this;
  }
};

/// The per-query counter block: everything AccountOutcome books for one
/// served-query outcome. The run-wide aggregates (SimMetrics) and every
/// tenant slice (TenantMetrics) are this one block, so they stay in
/// lockstep through one accounting path and one Save/Restore.
struct QueryCounters {
  // --- Traffic mix.
  uint64_t queries = 0;
  uint64_t served = 0;
  uint64_t served_in_cache = 0;
  uint64_t served_in_backend = 0;
  uint64_t wan_bytes = 0;

  // --- Fig. 5: response time over served queries, in arrival order on
  // every driver. The histogram keeps the exact count, sum, min and max
  // beside its quantile buckets (p50/p95/p99).
  obs::Histogram response_hist;

  // --- Fig. 4: metered execution + build dollars. On SimMetrics it also
  // carries the rent; shared-infrastructure rent (disk byte-seconds, node
  // reservations) never lands on a tenant slice because no single tenant
  // owns the shared cache, so summing the slices yields the run total
  // minus rent.
  ResourceBreakdown operating_cost;

  // --- Economic identity (economy schemes only).
  Money revenue;
  Money profit;

  // --- Budget case mix (economy schemes only).
  uint64_t case_a = 0;
  uint64_t case_b = 0;
  uint64_t case_c = 0;

  // --- Adaptation the queries triggered.
  uint64_t investments = 0;
  uint64_t evictions = 0;
  /// Queries served while their tenant was under admission throttling
  /// (still served and billed; only their regret went unbooked).
  uint64_t throttled = 0;

  /// Mean response time in seconds (0 if nothing served): the exact sum
  /// over the exact count.
  double MeanResponse() const { return response_hist.mean(); }
  /// Fraction of served queries answered from the cache.
  double CacheHitRate() const {
    return served == 0 ? 0.0
                       : static_cast<double>(served_in_cache) /
                             static_cast<double>(served);
  }
};

/// Per-tenant slice of a multi-tenant run: what one query stream consumed
/// and paid.
struct TenantMetrics : QueryCounters {
  uint32_t tenant_id = 0;
  /// Regret the economy holds on this tenant's behalf at run end (the
  /// tenant's unserved demand for faster/cheaper structures).
  Money final_regret;
};

/// Everything one simulation run measures.
struct SimMetrics : QueryCounters {
  std::string scheme_name;

  // --- Economy health.
  Money final_credit;

  // --- Final cache shape.
  uint64_t final_resident_bytes = 0;
  uint32_t final_extra_nodes = 0;

  // --- Timelines, sampled by SampleTimelines (src/sim/driver_core.h) and
  // capped at kTimelineCap points each; downsampled again on report.
  TimeSeries cost_over_time;    // Cumulative operating dollars.
  TimeSeries credit_over_time;  // CR in dollars.

  // --- Per-tenant slices. Sized to the stream count by the multi-stream
  // Simulator constructor; empty on the classic single-stream path,
  // whose aggregates above are the whole story.
  std::vector<TenantMetrics> tenants;

  // --- Fairness over the tenant slices (ComputeFairness at run end).
  // Left at its trivially-fair defaults on the classic path — which is
  // exactly what one merged stream computes.
  FairnessReport fairness;

  // --- Cluster shape (Scheme::DescribeCluster at run end). Inert —
  // active = false, all zeros, no node slices — on the single-node path.
  ClusterMetrics cluster;
};

}  // namespace cloudcache
