#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/baseline/bypass_yield.h"
#include "tests/testing/fixtures.h"

namespace cloudcache {
namespace {

/// One template over the tiny catalog's fact table: result-heavy clustered
/// scan, so caching pays off quickly.
std::vector<QueryTemplate> TinyTemplates() {
  return {{
      .name = "fact_scan",
      .table = "fact",
      .output_columns = {"f_key", "f_value"},
      .predicates = {{"f_date", 0.1, 0.3, false, true},
                     {"f_value", 0.4, 0.6, false, false}},
      .row_limit_fraction = 1.0,
      .cpu_multiplier = 1.0,
      .parallel_fraction = 0.9,
  }};
}

class SimulatorTest : public ::testing::Test {
 protected:
  SimulatorTest()
      : catalog_(testing::MakeTinyCatalog()),
        prices_(testing::MakeRoundPrices()) {
    Result<std::vector<ResolvedTemplate>> resolved =
        ResolveTemplates(catalog_, TinyTemplates());
    CLOUDCACHE_CHECK(resolved.ok());
    templates_ = *resolved;
  }

  WorkloadOptions DefaultWorkload() {
    WorkloadOptions options;
    options.interarrival_seconds = 10.0;
    return options;
  }

  SimulatorOptions DefaultSim(uint64_t queries = 500) {
    SimulatorOptions options;
    options.num_queries = queries;
    options.metered_prices = prices_;
    return options;
  }

  Catalog catalog_;
  PriceList prices_;
  std::vector<ResolvedTemplate> templates_;
};

TEST_F(SimulatorTest, RunsRequestedQueryCount) {
  BypassYieldScheme::Options bypass_options;
    bypass_options.cache_fraction = 0.9;  // Fit all three hot columns.
    BypassYieldScheme scheme(&catalog_, bypass_options);
  WorkloadGenerator workload(&catalog_, templates_, DefaultWorkload());
  Simulator sim(&catalog_, &scheme, &workload, DefaultSim(123));
  const SimMetrics metrics = sim.Run();
  EXPECT_EQ(metrics.queries, 123u);
  EXPECT_EQ(metrics.served, 123u);  // Bypass serves everything.
  EXPECT_EQ(metrics.scheme_name, "bypass");
}

TEST_F(SimulatorTest, BackendPlusCacheEqualsServed) {
  BypassYieldScheme::Options bypass_options;
    bypass_options.cache_fraction = 0.9;  // Fit all three hot columns.
    BypassYieldScheme scheme(&catalog_, bypass_options);
  WorkloadGenerator workload(&catalog_, templates_, DefaultWorkload());
  Simulator sim(&catalog_, &scheme, &workload, DefaultSim());
  const SimMetrics metrics = sim.Run();
  EXPECT_EQ(metrics.served_in_backend + metrics.served_in_cache,
            metrics.served);
  EXPECT_GT(metrics.served_in_cache, 0u);  // The column loads eventually.
}

TEST_F(SimulatorTest, OperatingCostAccumulates) {
  BypassYieldScheme::Options bypass_options;
    bypass_options.cache_fraction = 0.9;  // Fit all three hot columns.
    BypassYieldScheme scheme(&catalog_, bypass_options);
  WorkloadGenerator workload(&catalog_, templates_, DefaultWorkload());
  Simulator sim(&catalog_, &scheme, &workload, DefaultSim());
  const SimMetrics metrics = sim.Run();
  EXPECT_GT(metrics.operating_cost.Total(), 0.0);
  EXPECT_GT(metrics.operating_cost.network_dollars, 0.0);
  // Bypass caches columns -> disk rent is metered even though the scheme's
  // own cost model prices disk at zero.
  EXPECT_GT(metrics.operating_cost.disk_dollars, 0.0);
}

TEST_F(SimulatorTest, ResponseTimeStatsPopulated) {
  BypassYieldScheme::Options bypass_options;
    bypass_options.cache_fraction = 0.9;  // Fit all three hot columns.
    BypassYieldScheme scheme(&catalog_, bypass_options);
  WorkloadGenerator workload(&catalog_, templates_, DefaultWorkload());
  Simulator sim(&catalog_, &scheme, &workload, DefaultSim());
  const SimMetrics metrics = sim.Run();
  EXPECT_GT(metrics.MeanResponse(), 0.0);
  EXPECT_GE(metrics.response_hist.Quantile(0.95),
            metrics.response_hist.Quantile(0.5));
  EXPECT_EQ(metrics.response_hist.count(), metrics.served);
}

TEST_F(SimulatorTest, TimelinesRecorded) {
  BypassYieldScheme::Options bypass_options;
    bypass_options.cache_fraction = 0.9;  // Fit all three hot columns.
    BypassYieldScheme scheme(&catalog_, bypass_options);
  WorkloadGenerator workload(&catalog_, templates_, DefaultWorkload());
  Simulator sim(&catalog_, &scheme, &workload,
                DefaultSim(5 * kTimelineStride));
  const SimMetrics metrics = sim.Run();
  EXPECT_GE(metrics.cost_over_time.size(), 5u);
  // Cumulative cost is non-decreasing.
  double last = -1;
  for (double v : metrics.cost_over_time.values()) {
    EXPECT_GE(v, last);
    last = v;
  }
}

/// Feeds queries 0..n-1 of an n-query run to SampleTimelines, each at
/// arrival time == its index and with CR == its index in dollars.
SimMetrics SampleRun(uint64_t n) {
  SimMetrics metrics;
  for (uint64_t i = 0; i < n; ++i) {
    const double at = static_cast<double>(i);
    metrics.operating_cost.cpu_dollars = at;
    SampleTimelines(i, n, at, &metrics,
                    [at] { return Money::FromDollars(at); });
    EXPECT_LE(metrics.cost_over_time.size(), kTimelineCap);
  }
  return metrics;
}

TEST(SampleTimelinesTest, BelowTheCapSamplesEveryStrideAndTheLastQuery) {
  const SimMetrics metrics = SampleRun(3 * kTimelineStride + 7);
  const std::vector<double> want = {0, kTimelineStride, 2 * kTimelineStride,
                                    3 * kTimelineStride,
                                    3 * kTimelineStride + 6};
  EXPECT_EQ(metrics.cost_over_time.times(), want);
  EXPECT_EQ(metrics.cost_over_time.values(), want);
  EXPECT_EQ(metrics.credit_over_time.times(), want);
  EXPECT_EQ(metrics.credit_over_time.values(), want);
}

TEST(SampleTimelinesTest, FullTimelineHalvesAndDoublesTheStride) {
  // Past 2 * kTimelineCap strides the stride has doubled twice.
  const uint64_t n = 3 * kTimelineCap * kTimelineStride + 123;
  const uint64_t stride = 4 * kTimelineStride;
  const SimMetrics metrics = SampleRun(n);
  const std::vector<double>& times = metrics.cost_over_time.times();
  ASSERT_EQ(times.size(), (n - 1) / stride + 2);
  for (size_t k = 0; k + 1 < times.size(); ++k) {
    EXPECT_EQ(times[k], static_cast<double>(k * stride));
  }
  EXPECT_EQ(times.back(), static_cast<double>(n - 1));
  EXPECT_EQ(metrics.credit_over_time.times(), times);
  EXPECT_EQ(metrics.cost_over_time.values(), times);
}

TEST_F(SimulatorTest, EconSchemeMetricsComplete) {
  EconScheme::Config config = EconScheme::EconCheapConfig();
  config.economy.initial_credit = Money::FromDollars(5);
  config.economy.model_build_latency = false;
  config.economy.amortization_horizon = 100;
  config.economy.regret_fraction_a = 0.01;
  EconScheme scheme(&catalog_, &prices_, {}, std::move(config));
  WorkloadGenerator workload(&catalog_, templates_, DefaultWorkload());
  Simulator sim(&catalog_, &scheme, &workload, DefaultSim(1000));
  const SimMetrics metrics = sim.Run();
  EXPECT_EQ(metrics.queries, 1000u);
  EXPECT_GT(metrics.revenue.micros(), 0);
  EXPECT_EQ(metrics.case_a + metrics.case_b + metrics.case_c, 1000u);
  EXPECT_EQ(metrics.final_credit, scheme.credit());
}

TEST_F(SimulatorTest, DeterministicEndToEnd) {
  auto run = [&]() {
    BypassYieldScheme::Options bypass_options;
    bypass_options.cache_fraction = 0.9;  // Fit all three hot columns.
    BypassYieldScheme scheme(&catalog_, bypass_options);
    WorkloadGenerator workload(&catalog_, templates_, DefaultWorkload());
    Simulator sim(&catalog_, &scheme, &workload, DefaultSim());
    const SimMetrics metrics = sim.Run();
    return std::make_pair(metrics.operating_cost.Total(),
                          metrics.MeanResponse());
  };
  EXPECT_EQ(run(), run());
}

/// Wraps a scheme and records (tenant_id, arrival_time) of every query it
/// is asked to serve — the observable merge order of the multi-tenant
/// event loop.
class RecordingScheme : public Scheme {
 public:
  explicit RecordingScheme(Scheme* inner) : inner_(inner) {}

  const std::string& name() const override { return inner_->name(); }
  ServedQuery OnQuery(const Query& query, SimTime now) override {
    order_.push_back({query.tenant_id, query.arrival_time});
    return inner_->OnQuery(query, now);
  }
  const CacheState& cache() const override { return inner_->cache(); }
  Money credit() const override { return inner_->credit(); }
  void ChargeExpenditure(Money amount, SimTime now) override {
    inner_->ChargeExpenditure(amount, now);
  }

  const std::vector<std::pair<uint32_t, SimTime>>& order() const {
    return order_;
  }

 private:
  Scheme* inner_;
  std::vector<std::pair<uint32_t, SimTime>> order_;
};

TEST_F(SimulatorTest, MultiTenantProcessesRequestedTotal) {
  BypassYieldScheme::Options bypass_options;
  bypass_options.cache_fraction = 0.9;
  BypassYieldScheme scheme(&catalog_, bypass_options);

  WorkloadOptions fast = DefaultWorkload();
  fast.tenant_id = 0;
  fast.interarrival_seconds = 5.0;
  WorkloadOptions slow = DefaultWorkload();
  slow.tenant_id = 1;
  slow.seed = 43;
  slow.interarrival_seconds = 20.0;
  WorkloadGenerator tenant0(&catalog_, templates_, fast);
  WorkloadGenerator tenant1(&catalog_, templates_, slow);

  Simulator sim(&catalog_, &scheme, {&tenant0, &tenant1}, DefaultSim(500));
  const SimMetrics metrics = sim.Run();
  EXPECT_EQ(metrics.queries, 500u);
  ASSERT_EQ(metrics.tenants.size(), 2u);
  EXPECT_EQ(metrics.tenants[0].queries + metrics.tenants[1].queries, 500u);
  // 4x the arrival rate -> roughly 4x the merged share.
  EXPECT_GT(metrics.tenants[0].queries, 3 * metrics.tenants[1].queries);
  EXPECT_GT(metrics.tenants[1].queries, 0u);
}

TEST_F(SimulatorTest, MultiTenantMergeIsTimestampOrderWithTenantTieBreak) {
  BypassYieldScheme::Options bypass_options;
  bypass_options.cache_fraction = 0.9;
  BypassYieldScheme inner(&catalog_, bypass_options);
  RecordingScheme scheme(&inner);

  // Fixed arrivals every 6s and 4s from t=0: ties at t=0, 12, 24, ...
  WorkloadOptions a = DefaultWorkload();
  a.tenant_id = 0;
  a.interarrival_seconds = 6.0;
  WorkloadOptions b = DefaultWorkload();
  b.tenant_id = 1;
  b.seed = 43;
  b.interarrival_seconds = 4.0;
  WorkloadGenerator tenant0(&catalog_, templates_, a);
  WorkloadGenerator tenant1(&catalog_, templates_, b);

  Simulator sim(&catalog_, &scheme, {&tenant0, &tenant1}, DefaultSim(200));
  sim.Run();

  // Reference: the same two fixed schedules, stably merged by
  // (time, tenant).
  std::vector<std::pair<uint32_t, SimTime>> reference;
  const auto& order = scheme.order();
  {
    std::vector<std::pair<SimTime, uint32_t>> events;
    size_t count0 = 0, count1 = 0;
    for (const auto& entry : order) {
      (entry.first == 0 ? count0 : count1)++;
    }
    for (size_t i = 0; i < count0; ++i) {
      events.push_back({static_cast<SimTime>(i) * 6.0, 0});
    }
    for (size_t i = 0; i < count1; ++i) {
      events.push_back({static_cast<SimTime>(i) * 4.0, 1});
    }
    std::sort(events.begin(), events.end());
    for (const auto& [time, tenant] : events) {
      reference.push_back({tenant, time});
    }
  }
  EXPECT_EQ(order, reference);
}

TEST_F(SimulatorTest, MultiTenantSliceMatchesDedicatedRuns) {
  // Tenant slices carry real per-stream accounting: each slice's served
  // count equals its queries for bypass (everything is served), and the
  // response stats come from that tenant's queries only.
  BypassYieldScheme::Options bypass_options;
  bypass_options.cache_fraction = 0.9;
  BypassYieldScheme scheme(&catalog_, bypass_options);

  WorkloadOptions a = DefaultWorkload();
  a.tenant_id = 0;
  WorkloadOptions b = DefaultWorkload();
  b.tenant_id = 1;
  b.seed = 99;
  WorkloadGenerator tenant0(&catalog_, templates_, a);
  WorkloadGenerator tenant1(&catalog_, templates_, b);

  Simulator sim(&catalog_, &scheme, {&tenant0, &tenant1}, DefaultSim(400));
  const SimMetrics metrics = sim.Run();
  ASSERT_EQ(metrics.tenants.size(), 2u);
  for (const TenantMetrics& tenant : metrics.tenants) {
    EXPECT_EQ(tenant.served, tenant.queries);
    EXPECT_EQ(tenant.response_hist.count(), tenant.served);
    EXPECT_GT(tenant.operating_cost.Total(), 0.0);
    EXPECT_EQ(tenant.operating_cost.disk_dollars, 0.0);  // Rent is shared.
  }
  EXPECT_EQ(metrics.tenants[0].queries + metrics.tenants[1].queries,
            metrics.queries);
}

TEST_F(SimulatorTest, LongerIntervalsCostMoreDiskRent) {
  auto disk_cost = [&](double interval) {
    BypassYieldScheme::Options bypass_options;
    bypass_options.cache_fraction = 0.9;  // Fit all three hot columns.
    BypassYieldScheme scheme(&catalog_, bypass_options);
    WorkloadOptions wl = DefaultWorkload();
    wl.interarrival_seconds = interval;
    WorkloadGenerator workload(&catalog_, templates_, wl);
    Simulator sim(&catalog_, &scheme, &workload, DefaultSim());
    return sim.Run().operating_cost.disk_dollars;
  };
  // Same query stream stretched over more wall-clock: strictly more rent.
  EXPECT_GT(disk_cost(60.0), disk_cost(1.0));
}

/// Wraps a scheme and sums every metered charge booked against it.
class ChargeSumScheme : public Scheme {
 public:
  explicit ChargeSumScheme(Scheme* inner) : inner_(inner) {}

  const std::string& name() const override { return inner_->name(); }
  ServedQuery OnQuery(const Query& query, SimTime now) override {
    return inner_->OnQuery(query, now);
  }
  const CacheState& cache() const override { return inner_->cache(); }
  Money credit() const override { return inner_->credit(); }
  void ChargeExpenditure(Money amount, SimTime now) override {
    charged_ += amount;
    inner_->ChargeExpenditure(amount, now);
  }

  Money charged() const { return charged_; }

 private:
  Scheme* inner_;
  Money charged_;
};

TEST_F(SimulatorTest, ResidualRentIsFlushedAtRunEnd) {
  // Regression: rent accrues in a double accumulator and is only charged
  // once it rounds to a whole micro-dollar; a run whose total rent never
  // reaches one micro used to end with the accumulator unflushed — the
  // cloud metered disk time it never billed. The flush must charge the
  // rounded-UP residue at end of run.
  PriceList rent_only;
  rent_only.cpu_second_dollars = 0;
  rent_only.network_byte_dollars = 0;
  rent_only.io_op_dollars = 0;
  // 24 MB of cached columns over a few hundred seconds stays far below
  // one micro-dollar of rent, so every accrual lands in the pending
  // fraction and nothing is billed mid-run.
  rent_only.disk_byte_second_dollars = 1e-18;

  BypassYieldScheme::Options bypass_options;
  bypass_options.cache_fraction = 0.9;  // Fit all three hot columns.
  BypassYieldScheme inner(&catalog_, bypass_options);
  ChargeSumScheme scheme(&inner);
  WorkloadGenerator workload(&catalog_, templates_, DefaultWorkload());
  SimulatorOptions options = DefaultSim(50);
  options.metered_prices = rent_only;
  Simulator sim(&catalog_, &scheme, &workload, options);
  const SimMetrics metrics = sim.Run();

  // Rent was metered (the columns loaded) but stayed sub-micro...
  ASSERT_GT(metrics.operating_cost.disk_dollars, 0.0);
  ASSERT_LT(metrics.operating_cost.disk_dollars, 1e-6);
  // ...so the only possible bill is the end-of-run flush: one micro, the
  // metered total rounded up.
  EXPECT_EQ(scheme.charged().micros(), 1);
}

}  // namespace
}  // namespace cloudcache
