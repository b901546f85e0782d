#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/sim/metrics.h"

namespace cloudcache::testing {

inline bool ByteIdenticalSeries(const std::vector<double>& a,
                                const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Asserts two per-query counter blocks are identical, field by field, to
/// the last micro-dollar and double bit — the run-wide aggregates or one
/// tenant slice.
inline void ExpectBitIdenticalCounters(const QueryCounters& a,
                                       const QueryCounters& b) {
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.served_in_cache, b.served_in_cache);
  EXPECT_EQ(a.served_in_backend, b.served_in_backend);
  EXPECT_EQ(a.wan_bytes, b.wan_bytes);
  EXPECT_TRUE(obs::BitIdentical(a.response_hist, b.response_hist));
  EXPECT_EQ(a.operating_cost.cpu_dollars, b.operating_cost.cpu_dollars);
  EXPECT_EQ(a.operating_cost.network_dollars,
            b.operating_cost.network_dollars);
  EXPECT_EQ(a.operating_cost.disk_dollars, b.operating_cost.disk_dollars);
  EXPECT_EQ(a.operating_cost.io_dollars, b.operating_cost.io_dollars);
  EXPECT_EQ(a.revenue.micros(), b.revenue.micros());
  EXPECT_EQ(a.profit.micros(), b.profit.micros());
  EXPECT_EQ(a.case_a, b.case_a);
  EXPECT_EQ(a.case_b, b.case_b);
  EXPECT_EQ(a.case_c, b.case_c);
  EXPECT_EQ(a.investments, b.investments);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.throttled, b.throttled);
}

/// Asserts every aggregate metric a run produces — the counter block, the
/// final credit and cache shape, fairness, and the full cost/credit
/// timelines — is identical between two runs. The per-tenant slices are
/// compared separately (see ExpectBitIdenticalTenants) because only the
/// multi-tenant simulation path fills them: a single-stream run and its
/// twin through the tenancy layer (wrapped_path.h) must agree on every
/// aggregate even though one of them carries a slice.
inline void ExpectBitIdenticalMetrics(const SimMetrics& a,
                                      const SimMetrics& b) {
  EXPECT_EQ(a.scheme_name, b.scheme_name);
  ExpectBitIdenticalCounters(a, b);
  EXPECT_EQ(a.final_credit.micros(), b.final_credit.micros());

  EXPECT_EQ(a.final_resident_bytes, b.final_resident_bytes);
  EXPECT_EQ(a.final_extra_nodes, b.final_extra_nodes);

  // The fairness report is a pure function of the tenant slices, and its
  // defaults are the single-population fixed point — so a classic run
  // (never computed) and a one-tenant merged run (computed) agree too.
  EXPECT_EQ(a.fairness.response_jain, b.fairness.response_jain);
  EXPECT_EQ(a.fairness.response_max_min, b.fairness.response_max_min);
  EXPECT_EQ(a.fairness.billed_jain, b.fairness.billed_jain);
  EXPECT_EQ(a.fairness.billed_max_min, b.fairness.billed_max_min);

  EXPECT_TRUE(
      ByteIdenticalSeries(a.cost_over_time.times(), b.cost_over_time.times()));
  EXPECT_TRUE(ByteIdenticalSeries(a.cost_over_time.values(),
                                  b.cost_over_time.values()));
  EXPECT_TRUE(ByteIdenticalSeries(a.credit_over_time.times(),
                                  b.credit_over_time.times()));
  EXPECT_TRUE(ByteIdenticalSeries(a.credit_over_time.values(),
                                  b.credit_over_time.values()));
}

/// Asserts the cluster shapes of two cluster runs are identical — event
/// counters, metered node rent to the double bit, and every per-node
/// slice.
inline void ExpectBitIdenticalCluster(const SimMetrics& a,
                                      const SimMetrics& b) {
  EXPECT_EQ(a.cluster.active, b.cluster.active);
  EXPECT_EQ(a.cluster.final_nodes, b.cluster.final_nodes);
  EXPECT_EQ(a.cluster.peak_nodes, b.cluster.peak_nodes);
  EXPECT_EQ(a.cluster.scale_out_events, b.cluster.scale_out_events);
  EXPECT_EQ(a.cluster.scale_in_events, b.cluster.scale_in_events);
  EXPECT_EQ(a.cluster.migrations, b.cluster.migrations);
  EXPECT_EQ(a.cluster.migration_failures, b.cluster.migration_failures);
  EXPECT_EQ(a.cluster.node_rent_dollars, b.cluster.node_rent_dollars);
  ASSERT_EQ(a.cluster.nodes.size(), b.cluster.nodes.size());
  for (size_t n = 0; n < a.cluster.nodes.size(); ++n) {
    const NodeMetrics& na = a.cluster.nodes[n];
    const NodeMetrics& nb = b.cluster.nodes[n];
    EXPECT_EQ(na.ordinal, nb.ordinal);
    EXPECT_EQ(na.queries, nb.queries);
    EXPECT_EQ(na.served, nb.served);
    EXPECT_EQ(na.served_in_cache, nb.served_in_cache);
    EXPECT_EQ(na.revenue.micros(), nb.revenue.micros());
    EXPECT_EQ(na.profit.micros(), nb.profit.micros());
    EXPECT_EQ(na.final_credit.micros(), nb.final_credit.micros());
    EXPECT_EQ(na.final_resident_bytes, nb.final_resident_bytes);
    EXPECT_EQ(na.rented_at_seconds, nb.rented_at_seconds);
  }
}

/// Asserts the per-tenant slices of two multi-tenant runs are identical,
/// field by field, to the last micro-dollar and double bit.
inline void ExpectBitIdenticalTenants(const SimMetrics& a,
                                      const SimMetrics& b) {
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (size_t t = 0; t < a.tenants.size(); ++t) {
    const TenantMetrics& ta = a.tenants[t];
    const TenantMetrics& tb = b.tenants[t];
    EXPECT_EQ(ta.tenant_id, tb.tenant_id);
    ExpectBitIdenticalCounters(ta, tb);
    EXPECT_EQ(ta.final_regret.micros(), tb.final_regret.micros());
  }
}

}  // namespace cloudcache::testing
