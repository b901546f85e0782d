// The plan-skeleton cache is a pure memoization: with
// EnumeratorOptions::enable_plan_cache off, every simulation must replay
// to the last micro-dollar and the last timeline byte. This is the
// end-to-end gate for the per-query hot-path overhaul — any invalidation
// bug (stale missing-sets, skipped re-pricing, wrong candidate
// generation) shows up here as a diverging metric. The elastic case
// churns residency on every node while the fleet grows, and restores a
// mid-run checkpoint into fresh enumerators, so every refresh of a cached
// skeleton's missing-sets is pinned against a cache-off rebuild.

#include <gtest/gtest.h>

#include <string>

#include "src/catalog/tpch.h"
#include "src/sim/experiment.h"
#include "tests/testing/metrics_equal.h"

namespace cloudcache {
namespace {

using cloudcache::testing::ExpectBitIdenticalCluster;
using cloudcache::testing::ExpectBitIdenticalMetrics;

/// `config` with the plan cache switched on or off.
ExperimentConfig WithPlanCache(ExperimentConfig config, bool enable) {
  const auto base_customize = config.customize_econ;
  config.customize_econ = [base_customize, enable](EconScheme::Config& econ) {
    if (base_customize) base_customize(econ);
    econ.enumerator.enable_plan_cache = enable;
  };
  return config;
}

/// Runs `config` twice — plan cache on, then off — and compares.
void RunPair(const Catalog& catalog,
             const std::vector<QueryTemplate>& templates,
             const ExperimentConfig& config) {
  const SimMetrics on =
      RunExperiment(catalog, templates, WithPlanCache(config, true));
  const SimMetrics off =
      RunExperiment(catalog, templates, WithPlanCache(config, false));
  ExpectBitIdenticalMetrics(on, off);
}

class PlanCacheEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog(MakeTpchCatalog(100.0));
    templates_ = new std::vector<QueryTemplate>(MakeTpchTemplates());
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
    delete templates_;
    templates_ = nullptr;
  }

  /// Active economy configuration (investments within the short run, as in
  /// paper_properties_test) so the cache actually goes through residency
  /// refreshes, build latencies aside.
  static ExperimentConfig ActiveConfig(SchemeKind scheme, double interval) {
    ExperimentConfig config;
    config.scheme = scheme;
    config.workload.interarrival_seconds = interval;
    config.workload.seed = 29;
    config.seed = 30;
    config.sim.num_queries = 1'500;
    config.customize_econ = [](EconScheme::Config& econ) {
      econ.economy.regret_fraction_a = 0.001;
      econ.economy.initial_credit = Money::FromDollars(20);
      econ.economy.model_build_latency = false;
    };
    return config;
  }

  static Catalog* catalog_;
  static std::vector<QueryTemplate>* templates_;
};

Catalog* PlanCacheEquivalenceTest::catalog_ = nullptr;
std::vector<QueryTemplate>* PlanCacheEquivalenceTest::templates_ = nullptr;

TEST_F(PlanCacheEquivalenceTest, Fig4GridBitIdentical) {
  for (double interval : PaperInterarrivals()) {
    for (SchemeKind scheme : PaperSchemes()) {
      if (scheme == SchemeKind::kBypassYield) continue;  // No enumerator.
      SCOPED_TRACE(std::string(SchemeKindToString(scheme)) + " @ " +
                   std::to_string(interval) + "s");
      RunPair(*catalog_, *templates_, ActiveConfig(scheme, interval));
    }
  }
}

TEST_F(PlanCacheEquivalenceTest, AblationVariantBitIdentical) {
  // A2/A6-style ablation points: a short amortization horizon under each
  // budget shape stresses different plan-pricing paths than the defaults,
  // and pins every shape's B_Q by a whole run.
  for (BudgetShape shape : {BudgetShape::kStep, BudgetShape::kLinear,
                            BudgetShape::kConvex, BudgetShape::kConcave}) {
    SCOPED_TRACE("shape " + std::to_string(static_cast<int>(shape)));
    ExperimentConfig config = ActiveConfig(SchemeKind::kEconCheap, 10.0);
    const auto base_customize = config.customize_econ;
    config.customize_econ = [base_customize, shape](EconScheme::Config& econ) {
      base_customize(econ);
      econ.economy.amortization_horizon = 2'000;
      econ.budget.shape = shape;
    };
    RunPair(*catalog_, *templates_, config);
  }
}

TEST_F(PlanCacheEquivalenceTest, BuildLatencyVariantBitIdentical) {
  // With build latency modeled, structures activate between queries
  // (epoch moves inside ActivatePending rather than at investment time) —
  // a distinct refresh schedule worth pinning.
  ExperimentConfig config = ActiveConfig(SchemeKind::kEconFast, 1.0);
  const auto base_customize = config.customize_econ;
  config.customize_econ = [base_customize](EconScheme::Config& econ) {
    base_customize(econ);
    econ.economy.model_build_latency = true;
  };
  RunPair(*catalog_, *templates_, config);
}

TEST_F(PlanCacheEquivalenceTest, ElasticChurnBitIdenticalThroughRestore) {
  // Shaped like perfbench's elastic-churn: a 1-4 node elastic fleet of
  // cut-rate nodes under 1 s arrivals and the active economy.
  ExperimentConfig config = ActiveConfig(SchemeKind::kEconCheap, 1.0);
  config.sim.num_queries = 3'000;
  config.cluster.nodes = 1;
  config.cluster.elastic = true;
  config.cluster.node_rent_multiplier = 0.25;
  config.cluster.elasticity.max_nodes = 4;
  config.cluster.elasticity.check_interval_queries = 250;
  const SimMetrics off =
      RunExperiment(*catalog_, *templates_, WithPlanCache(config, false));
  ASSERT_TRUE(off.cluster.active);
  EXPECT_GT(off.cluster.scale_out_events, 0u);

  ExperimentConfig on = WithPlanCache(config, true);
  const SimMetrics plain = RunExperiment(*catalog_, *templates_, on);
  ExpectBitIdenticalMetrics(plain, off);
  ExpectBitIdenticalCluster(plain, off);

  // Crash at the midpoint, right after its checkpoint, and resume from it.
  on.sim.checkpoint.every = config.sim.num_queries / 2;
  on.sim.checkpoint.path =
      ::testing::TempDir() + "plan_cache_elastic_churn.snap";
  on.sim.checkpoint.crash_after = config.sim.num_queries / 2;
  const Result<SimMetrics> crashed =
      RunExperimentChecked(*catalog_, *templates_, on);
  ASSERT_FALSE(crashed.ok());
  ASSERT_EQ(crashed.status().code(), StatusCode::kResourceExhausted)
      << crashed.status().ToString();
  on.sim.checkpoint.crash_after = 0;
  on.sim.checkpoint.restore = CheckpointOptions::Restore::kHard;
  const Result<SimMetrics> resumed =
      RunExperimentChecked(*catalog_, *templates_, on);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectBitIdenticalMetrics(resumed.value(), off);
  ExpectBitIdenticalCluster(resumed.value(), off);
}

}  // namespace
}  // namespace cloudcache
