#pragma once

#include "src/persist/codec.h"
#include "src/sim/metrics.h"

namespace cloudcache {
namespace persist {

// Field lists of the SimMetrics tree. A checkpoint must carry the
// in-flight metrics of the interrupted run — the counter blocks with
// their response histograms, timelines, tenant and cluster slices —
// because the crash-recovery invariant is that the resumed run's final
// SimMetrics is bit-identical to the uninterrupted run's, and metrics
// accumulate from query zero.

template <typename Codec, typename Cluster>
void ClusterMetricsFields(Codec& c, Cluster& cluster) {
  c.Bool(cluster.active);
  c.U32(cluster.final_nodes);
  c.U32(cluster.peak_nodes);
  c.U64(cluster.scale_out_events);
  c.U64(cluster.scale_in_events);
  c.U64(cluster.migrations);
  c.U64(cluster.migration_failures);
  c.F64(cluster.node_rent_dollars);
  c.Seq(cluster.nodes, [&c](auto& node) {
    c.U32(node.ordinal);
    c.U64(node.queries);
    c.U64(node.served);
    c.U64(node.served_in_cache);
    c.Money(node.revenue);
    c.Money(node.profit);
    c.Money(node.final_credit);
    c.U64(node.final_resident_bytes);
    c.F64(node.rented_at_seconds);
  });
}

/// One per-query counter block, run-wide or one tenant's.
template <typename Codec, typename Counters>
void QueryCountersFields(Codec& c, Counters& counters) {
  c.U64(counters.queries);
  c.U64(counters.served);
  c.U64(counters.served_in_cache);
  c.U64(counters.served_in_backend);
  c.U64(counters.wan_bytes);
  c.Nested(counters.response_hist);
  c.F64(counters.operating_cost.cpu_dollars);
  c.F64(counters.operating_cost.network_dollars);
  c.F64(counters.operating_cost.disk_dollars);
  c.F64(counters.operating_cost.io_dollars);
  c.Money(counters.revenue);
  c.Money(counters.profit);
  c.U64(counters.case_a);
  c.U64(counters.case_b);
  c.U64(counters.case_c);
  c.U64(counters.investments);
  c.U64(counters.evictions);
  c.U64(counters.throttled);
}

/// The field list of the whole SimMetrics tree.
template <typename Codec, typename Metrics>
void SimMetricsFields(Codec& c, Metrics& metrics) {
  c.Str(metrics.scheme_name);
  QueryCountersFields(c, metrics);
  c.Money(metrics.final_credit);
  c.U64(metrics.final_resident_bytes);
  c.U32(metrics.final_extra_nodes);
  TimeSeries::Fields(c, metrics.cost_over_time);
  TimeSeries::Fields(c, metrics.credit_over_time);
  c.Seq(metrics.tenants, [&c](auto& tenant) {
    c.U32(tenant.tenant_id);
    QueryCountersFields(c, tenant);
    c.Money(tenant.final_regret);
  });
  c.F64(metrics.fairness.response_jain);
  c.F64(metrics.fairness.response_max_min);
  c.F64(metrics.fairness.billed_jain);
  c.F64(metrics.fairness.billed_max_min);
  ClusterMetricsFields(c, metrics.cluster);
}

}  // namespace persist
}  // namespace cloudcache
