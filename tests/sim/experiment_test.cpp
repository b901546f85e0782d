#include "src/sim/experiment.h"

#include <gtest/gtest.h>

#include "src/catalog/tpch.h"
#include "src/util/rng.h"

namespace cloudcache {
namespace {

class ExperimentTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog(MakeTpchCatalog(20.0));
    templates_ = new std::vector<QueryTemplate>(MakeTpchTemplates());
  }
  static void TearDownTestSuite() {
    delete catalog_;
    delete templates_;
  }

  ExperimentConfig SmallConfig(SchemeKind scheme) {
    ExperimentConfig config;
    config.scheme = scheme;
    config.sim.num_queries = 300;
    config.workload.seed = 3;
    return config;
  }

  static Catalog* catalog_;
  static std::vector<QueryTemplate>* templates_;
};

Catalog* ExperimentTest::catalog_ = nullptr;
std::vector<QueryTemplate>* ExperimentTest::templates_ = nullptr;

TEST_F(ExperimentTest, SchemeNamePropagates) {
  for (SchemeKind kind : PaperSchemes()) {
    const SimMetrics m =
        RunExperiment(*catalog_, *templates_, SmallConfig(kind));
    EXPECT_EQ(m.scheme_name, SchemeKindToString(kind));
  }
}

TEST_F(ExperimentTest, IndexCandidateCountIsRespected) {
  // With an empty advisor pool, econ-cheap degenerates to column scans
  // plus parallelism: no index is ever resident.
  ExperimentConfig config = SmallConfig(SchemeKind::kEconCheap);
  config.index_candidates = 0;
  config.sim.num_queries = 1500;
  config.customize_econ = [](EconScheme::Config& econ) {
    econ.economy.regret_fraction_a = 0.001;
    econ.economy.initial_credit = Money::FromDollars(50);
    econ.economy.model_build_latency = false;
  };
  const SimMetrics m = RunExperiment(*catalog_, *templates_, config);
  EXPECT_EQ(m.queries, 1500u);
  // The run completes; any investments are columns or CPU nodes. (The
  // absence of indexes is observable through the scheme's cache in the
  // scheme tests; here we pin the plumbing: no crash, full service.)
  EXPECT_EQ(m.served, 1500u);
}

TEST_F(ExperimentTest, WorkloadKnobsReachTheGenerator) {
  ExperimentConfig slow = SmallConfig(SchemeKind::kBypassYield);
  slow.workload.interarrival_seconds = 100.0;
  ExperimentConfig fast = SmallConfig(SchemeKind::kBypassYield);
  fast.workload.interarrival_seconds = 1.0;
  const SimMetrics slow_m = RunExperiment(*catalog_, *templates_, slow);
  const SimMetrics fast_m = RunExperiment(*catalog_, *templates_, fast);
  // Same queries, 100x the wall clock: strictly more disk-rent exposure
  // (both runs cache nothing at this length, so rent is zero-zero; the
  // observable difference is the timeline span).
  ASSERT_GE(slow_m.cost_over_time.size(), 2u);
  ASSERT_GE(fast_m.cost_over_time.size(), 2u);
  EXPECT_GT(slow_m.cost_over_time.times().back(),
            fast_m.cost_over_time.times().back() * 50);
}

TEST_F(ExperimentTest, MeteredPricesControlOperatingCost) {
  ExperimentConfig cheap_net = SmallConfig(SchemeKind::kBypassYield);
  cheap_net.sim.metered_prices.network_byte_dollars = 0.0;
  const SimMetrics free_net =
      RunExperiment(*catalog_, *templates_, cheap_net);
  const SimMetrics paid_net = RunExperiment(
      *catalog_, *templates_, SmallConfig(SchemeKind::kBypassYield));
  EXPECT_EQ(free_net.operating_cost.network_dollars, 0.0);
  EXPECT_GT(paid_net.operating_cost.network_dollars, 0.0);
  // Physical behaviour (what executed where) is identical: metering does
  // not feed back into bypass decisions.
  EXPECT_EQ(free_net.served_in_cache, paid_net.served_in_cache);
  EXPECT_DOUBLE_EQ(free_net.MeanResponse(), paid_net.MeanResponse());
}

TEST_F(ExperimentTest, ExperimentSeedSeparatesFromWorkloadSeed) {
  // config.seed feeds the scheme's budget jitter; workload.seed feeds the
  // query stream. Changing only the scheme seed must leave the stream
  // identical (same backend traffic for bypass, which has no jitter).
  ExperimentConfig a = SmallConfig(SchemeKind::kEconCheap);
  ExperimentConfig b = a;
  b.seed = a.seed + 1;
  const SimMetrics ma = RunExperiment(*catalog_, *templates_, a);
  const SimMetrics mb = RunExperiment(*catalog_, *templates_, b);
  // Same queries, different users: revenue differs, query count equal.
  EXPECT_EQ(ma.queries, mb.queries);
  EXPECT_NE(ma.revenue, mb.revenue);
}

TEST_F(ExperimentTest, TenantWorkloadOptionsFollowTheSeedDiscipline) {
  WorkloadOptions base;
  base.seed = 123;
  base.interarrival_seconds = 10.0;
  TenancyOptions tenancy;
  tenancy.tenants = 4;

  // Tenant 0 is the classic stream; tenants 1+ fork via MixSeed.
  EXPECT_EQ(TenantWorkloadOptions(base, tenancy, 0).seed, base.seed);
  for (uint32_t t = 1; t < 4; ++t) {
    const WorkloadOptions options = TenantWorkloadOptions(base, tenancy, t);
    EXPECT_EQ(options.seed, MixSeed(base.seed, t));
    EXPECT_EQ(options.tenant_id, t);
    EXPECT_EQ(options.popularity_offset, t);
  }
}

TEST_F(ExperimentTest, TenantTrafficSharesPreserveAggregateLoad) {
  WorkloadOptions base;
  base.interarrival_seconds = 10.0;
  for (double skew : {0.0, 1.0, 2.0}) {
    TenancyOptions tenancy;
    tenancy.tenants = 5;
    tenancy.traffic_skew = skew;
    double aggregate_rate = 0;
    double previous_rate = 1e9;
    for (uint32_t t = 0; t < 5; ++t) {
      const double interarrival =
          TenantWorkloadOptions(base, tenancy, t).interarrival_seconds;
      ASSERT_GT(interarrival, 0.0);
      const double rate = 1.0 / interarrival;
      aggregate_rate += rate;
      EXPECT_LE(rate, previous_rate);  // Tenant 0 is hottest.
      previous_rate = rate;
    }
    EXPECT_NEAR(aggregate_rate, 1.0 / base.interarrival_seconds, 1e-12);
  }
  // Zero skew splits evenly; one tenant degenerates to the base stream.
  TenancyOptions even;
  even.tenants = 4;
  EXPECT_DOUBLE_EQ(
      TenantWorkloadOptions(base, even, 2).interarrival_seconds, 40.0);
  TenancyOptions solo;
  EXPECT_DOUBLE_EQ(
      TenantWorkloadOptions(base, solo, 0).interarrival_seconds, 10.0);
}

TEST_F(ExperimentTest, NeutralTenantBudgetOverridesAreBitIdentical) {
  // Overrides at scale 1.0 build per-tenant synthesizers whose options
  // equal the shared one; every budget draw computes the same doubles, so
  // the runs must agree to the bit — the guard against the override path
  // perturbing tenants it does not change.
  ExperimentConfig config = SmallConfig(SchemeKind::kEconCheap);
  config.tenancy.tenants = 2;
  const SimMetrics baseline = RunExperiment(*catalog_, *templates_, config);

  ExperimentConfig neutral = config;
  neutral.tenancy.tenant_budgets = {{0, 1.0, 1.0}, {1, 1.0, 1.0}};
  const SimMetrics overridden =
      RunExperiment(*catalog_, *templates_, neutral);
  EXPECT_EQ(baseline.revenue.micros(), overridden.revenue.micros());
  EXPECT_EQ(baseline.profit.micros(), overridden.profit.micros());
  ASSERT_EQ(baseline.tenants.size(), overridden.tenants.size());
  for (size_t t = 0; t < baseline.tenants.size(); ++t) {
    EXPECT_EQ(baseline.tenants[t].revenue.micros(),
              overridden.tenants[t].revenue.micros());
    EXPECT_EQ(baseline.tenants[t].case_a, overridden.tenants[t].case_a);
  }
}

TEST_F(ExperimentTest, TenantBudgetOverridesShapeThatTenantOnly) {
  // Squeezing tenant 1's willingness to pay moves its budget mass below
  // the back-end quote: its case-A share grows and its revenue drops,
  // while tenant 0 — identical stream, untouched shape — keeps drawing
  // the same budgets from its own jitter stream.
  ExperimentConfig config = SmallConfig(SchemeKind::kEconCheap);
  config.sim.num_queries = 600;
  config.tenancy.tenants = 2;
  const SimMetrics base = RunExperiment(*catalog_, *templates_, config);

  ExperimentConfig squeezed = config;
  squeezed.tenancy.tenant_budgets = {{1, 0.3, 1.0}};
  const SimMetrics shaped = RunExperiment(*catalog_, *templates_, squeezed);

  ASSERT_EQ(base.tenants.size(), 2u);
  ASSERT_EQ(shaped.tenants.size(), 2u);
  // The workload derivation is untouched: tenant 0 sees the same stream
  // (its *outcomes* may shift — the tenants share one cache, and tenant
  // 1's collapsed demand changes what gets built).
  EXPECT_EQ(base.tenants[0].queries, shaped.tenants[0].queries);
  // Tenant 1's budgets collapsed below the quote: more case A, less
  // revenue.
  EXPECT_GT(shaped.tenants[1].case_a, base.tenants[1].case_a);
  EXPECT_LT(shaped.tenants[1].revenue.micros(),
            base.tenants[1].revenue.micros());
}

TEST_F(ExperimentTest, MultiTenantExperimentEndToEnd) {
  ExperimentConfig config = SmallConfig(SchemeKind::kEconCheap);
  config.tenancy.tenants = 3;
  config.tenancy.traffic_skew = 1.0;
  const SimMetrics metrics = RunExperiment(*catalog_, *templates_, config);
  EXPECT_EQ(metrics.queries, 300u);
  ASSERT_EQ(metrics.tenants.size(), 3u);
  uint64_t sum = 0;
  for (const TenantMetrics& tenant : metrics.tenants) {
    EXPECT_GT(tenant.queries, 0u);
    sum += tenant.queries;
  }
  EXPECT_EQ(sum, metrics.queries);
  // Zipf shares with skew 1: tenant 0 gets the largest slice.
  EXPECT_GT(metrics.tenants[0].queries, metrics.tenants[1].queries);
  EXPECT_GT(metrics.tenants[1].queries, metrics.tenants[2].queries);
}

}  // namespace
}  // namespace cloudcache
