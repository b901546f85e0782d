#include <gtest/gtest.h>

#include "src/catalog/tpch.h"
#include "src/sim/experiment.h"
#include "src/sim/report.h"

namespace cloudcache {
namespace {

/// Integration tests drive the real experiment pipeline on a 100 GB TPC-H
/// backend (paper shape, reduced scale so CI stays fast).
class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog(MakeTpchCatalog(100.0));
    templates_ = new std::vector<QueryTemplate>(MakeTpchTemplates());
  }
  static void TearDownTestSuite() {
    delete catalog_;
    delete templates_;
    catalog_ = nullptr;
    templates_ = nullptr;
  }

  ExperimentConfig BaseConfig(SchemeKind scheme,
                              uint64_t queries = 2000) {
    ExperimentConfig config;
    config.scheme = scheme;
    config.workload.interarrival_seconds = 1.0;
    config.workload.seed = 11;
    config.sim.num_queries = queries;
    return config;
  }

  /// Adaptation-friendly knobs: with only a few thousand CI queries (the
  /// paper runs a million) thresholds must be proportionally easier for
  /// either scheme to act at all within the run.
  static void EagerEcon(EconScheme::Config& econ) {
    econ.economy.regret_fraction_a = 0.001;
    econ.economy.initial_credit = Money::FromDollars(20);
    econ.economy.model_build_latency = false;
  }
  static void EagerBypass(BypassYieldScheme::Options& options) {
    options.yield_threshold = 0.2;
    options.aging_interval = 1'000'000;
  }

  static Catalog* catalog_;
  static std::vector<QueryTemplate>* templates_;
};

Catalog* EndToEndTest::catalog_ = nullptr;
std::vector<QueryTemplate>* EndToEndTest::templates_ = nullptr;

TEST_F(EndToEndTest, AllFourSchemesComplete) {
  for (SchemeKind kind : PaperSchemes()) {
    const SimMetrics metrics =
        RunExperiment(*catalog_, *templates_, BaseConfig(kind, 500));
    EXPECT_EQ(metrics.queries, 500u) << SchemeKindToString(kind);
    EXPECT_EQ(metrics.served, 500u) << SchemeKindToString(kind);
    EXPECT_GT(metrics.MeanResponse(), 0.0) << SchemeKindToString(kind);
    EXPECT_GT(metrics.operating_cost.Total(), 0.0)
        << SchemeKindToString(kind);
  }
}

TEST_F(EndToEndTest, EconSchemesInvestAndHitCache) {
  ExperimentConfig config = BaseConfig(SchemeKind::kEconCheap, 4000);
  config.customize_econ = EagerEcon;
  const SimMetrics metrics = RunExperiment(*catalog_, *templates_, config);
  EXPECT_GT(metrics.investments, 0u);
  EXPECT_GT(metrics.served_in_cache, 0u);
  EXPECT_GT(metrics.revenue.micros(), 0);
}

TEST_F(EndToEndTest, BypassEventuallyCaches) {
  ExperimentConfig config = BaseConfig(SchemeKind::kBypassYield, 4000);
  config.customize_bypass = EagerBypass;
  const SimMetrics metrics = RunExperiment(*catalog_, *templates_, config);
  EXPECT_GT(metrics.investments, 0u);
  EXPECT_GT(metrics.served_in_cache, 0u);
}

TEST_F(EndToEndTest, BudgetCasesPartitionQueries) {
  const SimMetrics metrics = RunExperiment(
      *catalog_, *templates_, BaseConfig(SchemeKind::kEconCheap, 1000));
  EXPECT_EQ(metrics.case_a + metrics.case_b + metrics.case_c, 1000u);
  // The jittered budget model produces both under- and over-budget users.
  EXPECT_GT(metrics.case_a, 0u);
  EXPECT_GT(metrics.case_b + metrics.case_c, 0u);
}

TEST_F(EndToEndTest, DeterministicAcrossRuns) {
  const SimMetrics a = RunExperiment(*catalog_, *templates_,
                                     BaseConfig(SchemeKind::kEconFast, 800));
  const SimMetrics b = RunExperiment(*catalog_, *templates_,
                                     BaseConfig(SchemeKind::kEconFast, 800));
  EXPECT_DOUBLE_EQ(a.operating_cost.Total(), b.operating_cost.Total());
  EXPECT_DOUBLE_EQ(a.MeanResponse(), b.MeanResponse());
  EXPECT_EQ(a.investments, b.investments);
  EXPECT_EQ(a.final_credit, b.final_credit);
}

TEST_F(EndToEndTest, SeedChangesOutcome) {
  ExperimentConfig config = BaseConfig(SchemeKind::kEconCheap, 800);
  const SimMetrics a = RunExperiment(*catalog_, *templates_, config);
  config.workload.seed = 12;
  const SimMetrics b = RunExperiment(*catalog_, *templates_, config);
  EXPECT_NE(a.operating_cost.Total(), b.operating_cost.Total());
}

TEST_F(EndToEndTest, CustomizeEconHookApplies) {
  ExperimentConfig config = BaseConfig(SchemeKind::kEconCheap, 500);
  config.customize_econ = [](EconScheme::Config& econ) {
    // Users walk away from offers above their budget: observable as
    // unserved queries, which the default config never produces.
    econ.economy.user_accepts_above_budget = false;
  };
  const SimMetrics metrics = RunExperiment(*catalog_, *templates_, config);
  EXPECT_LT(metrics.served, metrics.queries);
}

TEST_F(EndToEndTest, CustomizeBypassHookApplies) {
  ExperimentConfig config = BaseConfig(SchemeKind::kBypassYield, 500);
  config.customize_bypass = [](BypassYieldScheme::Options& options) {
    options.cache_fraction = 0.0;  // No cache at all.
  };
  const SimMetrics metrics = RunExperiment(*catalog_, *templates_, config);
  EXPECT_EQ(metrics.served_in_cache, 0u);
  EXPECT_EQ(metrics.investments, 0u);
}

TEST_F(EndToEndTest, GoGridPricesChangeEconBehaviour) {
  ExperimentConfig ec2 = BaseConfig(SchemeKind::kEconCheap, 3000);
  ec2.customize_econ = EagerEcon;
  ExperimentConfig gogrid = ec2;
  gogrid.decision_prices = PriceList::GoGrid2009();
  const SimMetrics a = RunExperiment(*catalog_, *templates_, ec2);
  const SimMetrics b = RunExperiment(*catalog_, *templates_, gogrid);
  // With free bandwidth the WAN-avoidance incentive collapses, so the
  // decisions (and therefore the metered costs) must differ.
  EXPECT_NE(a.operating_cost.Total(), b.operating_cost.Total());
}

TEST_F(EndToEndTest, PaperConstantsExposed) {
  EXPECT_EQ(PaperInterarrivals(), (std::vector<double>{1, 10, 30, 60}));
  EXPECT_EQ(PaperSchemes().size(), 4u);
}

TEST_F(EndToEndTest, RunAllSchemesReturnsFour) {
  ExperimentConfig config = BaseConfig(SchemeKind::kEconCheap, 300);
  const std::vector<SimMetrics> results =
      RunAllSchemes(*catalog_, *templates_, config);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].scheme_name, "bypass");
  EXPECT_EQ(results[1].scheme_name, "econ-col");
  EXPECT_EQ(results[2].scheme_name, "econ-cheap");
  EXPECT_EQ(results[3].scheme_name, "econ-fast");
  // The summary table renders without error.
  EXPECT_EQ(MakeSchemeSummaryTable(results).num_rows(), 4u);
}

}  // namespace
}  // namespace cloudcache
