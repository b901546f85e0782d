// The cluster is a routed generalization of the paper's one-node cloud,
// and four properties pin it down:
//
//  1. Collapse: a one-node cluster routes every query to its only node,
//     so a one-node ClusterScheme (built by testing::RunThroughWrappedLayer)
//     must reproduce the classic path's SimMetrics bit for bit — every
//     count, micro-dollar, double, and timeline byte (the `--nodes=1
//     --elastic=off` equivalence of the roadmap).
//  2. Determinism: an N-node run — fixed or elastic — is a pure function
//     of its configuration: repeated runs, and runs fanned over any sweep
//     thread count, replay identically, down to the per-node slices.
//  3. Shared invariants survive clustering: each node's plan-skeleton
//     cache must stay a pure memoization while elasticity rents,
//     releases, and migrates structures into its cache (every mutation
//     bumps that node's residency epoch), and the node slices must
//     partition the run-wide traffic.
//  4. The economics hold up: under sustained load the controller rents a
//     second node, and the elastic fleet's aggregate profit is no worse
//     than the fixed single node it grew from.

#include <gtest/gtest.h>

#include "src/catalog/tpch.h"
#include "src/sim/experiment.h"
#include "src/sim/sweep.h"
#include "tests/testing/metrics_equal.h"
#include "tests/testing/wrapped_path.h"

namespace cloudcache {
namespace {

using cloudcache::testing::ExpectBitIdenticalCluster;
using cloudcache::testing::ExpectBitIdenticalMetrics;
using cloudcache::testing::RunThroughWrappedLayer;
using cloudcache::testing::WrappedLayer;

class ClusterEquivalenceTest : public ::testing::Test {
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

  /// Active economy configuration (investments and failure evictions
  /// within the short run) so the nodes' caches actually churn and the
  /// router has residency differences to route on.
  static ExperimentConfig ActiveConfig(SchemeKind scheme, double interval) {
    ExperimentConfig config;
    config.scheme = scheme;
    config.workload.interarrival_seconds = interval;
    config.workload.seed = 31;
    config.seed = 32;
    config.sim.num_queries = 1'500;
    config.customize_econ = [](EconScheme::Config& econ) {
      econ.economy.regret_fraction_a = 0.001;
      econ.economy.initial_credit = Money::FromDollars(20);
      econ.economy.model_build_latency = false;
    };
    return config;
  }

  /// An elastic configuration whose controller actually moves within the
  /// run: tight windows, short sustain, and a rent threshold the active
  /// economy's regret clears under load.
  static ExperimentConfig ElasticConfig(SchemeKind scheme) {
    ExperimentConfig config = ActiveConfig(scheme, 1.0);
    config.sim.num_queries = 6'000;
    config.cluster.nodes = 1;
    config.cluster.elastic = true;
    // Cut-rate spot nodes: the rent threshold sits below the standing
    // regret the active economy carries under 1 s arrivals, so the
    // controller provably moves within the short run.
    config.cluster.node_rent_multiplier = 0.25;
    config.cluster.elasticity.check_interval_queries = 200;
    config.cluster.elasticity.sustain_windows = 2;
    config.cluster.elasticity.cooldown_windows = 2;
    config.cluster.elasticity.max_nodes = 3;
    return config;
  }

  static Catalog* catalog_;
  static std::vector<QueryTemplate>* templates_;
};

Catalog* ClusterEquivalenceTest::catalog_ = nullptr;
std::vector<QueryTemplate>* ClusterEquivalenceTest::templates_ = nullptr;

TEST_F(ClusterEquivalenceTest, SingleNodeClusterPathBitIdentical) {
  // Every scheme, two arrival spacings: a one-node cluster must replay
  // the classic single-node loop exactly.
  for (SchemeKind scheme : PaperSchemes()) {
    for (double interval : {1.0, 10.0}) {
      SCOPED_TRACE(std::string(SchemeKindToString(scheme)) + " @ " +
                   std::to_string(interval) + "s");
      const ExperimentConfig config = ActiveConfig(scheme, interval);
      const SimMetrics classic = RunExperiment(*catalog_, *templates_, config);
      const SimMetrics routed = RunThroughWrappedLayer(
          *catalog_, *templates_, config, WrappedLayer::kCluster);
      ExpectBitIdenticalMetrics(classic, routed);
      // The classic path carries no cluster footprint; the routed path
      // carries exactly one node, and it must restate the aggregates.
      EXPECT_FALSE(classic.cluster.active);
      ASSERT_TRUE(routed.cluster.active);
      ASSERT_EQ(routed.cluster.nodes.size(), 1u);
      EXPECT_EQ(routed.cluster.final_nodes, 1u);
      EXPECT_EQ(routed.cluster.scale_out_events, 0u);
      EXPECT_EQ(routed.cluster.node_rent_dollars, 0.0);
      EXPECT_EQ(routed.cluster.nodes[0].queries, routed.queries);
      EXPECT_EQ(routed.cluster.nodes[0].served, routed.served);
      EXPECT_EQ(routed.cluster.nodes[0].revenue.micros(),
                routed.revenue.micros());
    }
  }
}

TEST_F(ClusterEquivalenceTest, MultiNodeRepeatedRunsBitIdentical) {
  ExperimentConfig config = ActiveConfig(SchemeKind::kEconCheap, 2.0);
  config.cluster.nodes = 3;
  const SimMetrics first = RunExperiment(*catalog_, *templates_, config);
  const SimMetrics second = RunExperiment(*catalog_, *templates_, config);
  ExpectBitIdenticalMetrics(first, second);
  ExpectBitIdenticalCluster(first, second);
  // The router actually spread traffic: no node is silent, and the
  // slices partition the merged stream.
  ASSERT_EQ(first.cluster.nodes.size(), 3u);
  uint64_t routed = 0, served = 0;
  for (const NodeMetrics& node : first.cluster.nodes) {
    EXPECT_GT(node.queries, 0u);
    routed += node.queries;
    served += node.served;
  }
  EXPECT_EQ(routed, first.queries);
  EXPECT_EQ(served, first.served);
}

TEST_F(ClusterEquivalenceTest, ElasticRunsBitIdenticalAcrossRepeats) {
  ExperimentConfig config = ElasticConfig(SchemeKind::kEconCheap);
  const SimMetrics first = RunExperiment(*catalog_, *templates_, config);
  const SimMetrics second = RunExperiment(*catalog_, *templates_, config);
  ExpectBitIdenticalMetrics(first, second);
  ExpectBitIdenticalCluster(first, second);
}

TEST_F(ClusterEquivalenceTest, ClusterBitIdenticalAcrossSweepThreads) {
  // Cluster cells through the sweep engine: per-cell seeds plus routed
  // fleets must make the grid bit-identical for any worker count.
  SweepSpec spec;
  spec.schemes = {SchemeKind::kEconCheap, SchemeKind::kEconFast};
  spec.interarrivals = {2.0, 10.0};
  spec.base = ActiveConfig(SchemeKind::kEconCheap, 2.0);
  spec.base.cluster.nodes = 2;
  spec.seed_policy = SweepSpec::SeedPolicy::kPerCell;

  const std::vector<SweepResult> serial =
      RunSweep(*catalog_, *templates_, spec, /*n_threads=*/1);
  const std::vector<SweepResult> parallel =
      RunSweep(*catalog_, *templates_, spec, /*n_threads=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].cell.label);
    EXPECT_EQ(serial[i].cell.seed, parallel[i].cell.seed);
    ExpectBitIdenticalMetrics(serial[i].metrics, parallel[i].metrics);
    ExpectBitIdenticalCluster(serial[i].metrics, parallel[i].metrics);
  }
}

TEST_F(ClusterEquivalenceTest, PlanCacheStaysPureUnderNodeChurn) {
  // Elasticity rents nodes mid-run and scale-in migrates structures into
  // survivors' caches; every such mutation must bump the owning node's
  // residency epoch or a stale skeleton would diverge the runs.
  for (SchemeKind scheme :
       {SchemeKind::kEconCheap, SchemeKind::kEconFast}) {
    SCOPED_TRACE(SchemeKindToString(scheme));
    ExperimentConfig config = ElasticConfig(scheme);
    const auto base_customize = config.customize_econ;
    auto with_cache = [base_customize](bool enable) {
      return [base_customize, enable](EconScheme::Config& econ) {
        base_customize(econ);
        econ.enumerator.enable_plan_cache = enable;
      };
    };
    config.customize_econ = with_cache(true);
    const SimMetrics on = RunExperiment(*catalog_, *templates_, config);
    config.customize_econ = with_cache(false);
    const SimMetrics off = RunExperiment(*catalog_, *templates_, config);
    ExpectBitIdenticalMetrics(on, off);
    ExpectBitIdenticalCluster(on, off);
  }
}

TEST_F(ClusterEquivalenceTest, ClusterComposesWithMultiTenancy) {
  // Routed nodes under the event-driven multi-tenant merge: per-node
  // economies share the tenant ledgers (TenantRegret sums attribution
  // over nodes), and both sets of slices stay deterministic.
  ExperimentConfig config = ActiveConfig(SchemeKind::kEconCheap, 2.0);
  config.tenancy.tenants = 3;
  config.tenancy.traffic_skew = 1.0;
  config.cluster.nodes = 2;
  const SimMetrics first = RunExperiment(*catalog_, *templates_, config);
  const SimMetrics second = RunExperiment(*catalog_, *templates_, config);
  ExpectBitIdenticalMetrics(first, second);
  ExpectBitIdenticalCluster(first, second);
  cloudcache::testing::ExpectBitIdenticalTenants(first, second);
  ASSERT_EQ(first.tenants.size(), 3u);
  ASSERT_EQ(first.cluster.nodes.size(), 2u);
  uint64_t node_queries = 0;
  for (const NodeMetrics& node : first.cluster.nodes) {
    node_queries += node.queries;
  }
  EXPECT_EQ(node_queries, first.queries);
}

TEST_F(ClusterEquivalenceTest, ElasticControllerRentsUnderSustainedLoad) {
  // The acceptance scenario: under sustained load the controller rents at
  // least a second node, and growing the fleet does not cost the cloud
  // its aggregate profit relative to staying single-node.
  ExperimentConfig fixed = ElasticConfig(SchemeKind::kEconCheap);
  fixed.cluster.elastic = false;
  ExperimentConfig elastic = ElasticConfig(SchemeKind::kEconCheap);

  const SimMetrics single = RunExperiment(*catalog_, *templates_, fixed);
  const SimMetrics grown = RunExperiment(*catalog_, *templates_, elastic);

  ASSERT_TRUE(grown.cluster.active);
  EXPECT_GE(grown.cluster.scale_out_events, 1u);
  EXPECT_GE(grown.cluster.peak_nodes, 2u);
  // Node rent was actually metered for the rented fleet.
  EXPECT_GT(grown.cluster.node_rent_dollars, 0.0);
  // Aggregate profit: no worse than the fixed single node.
  EXPECT_GE(grown.profit.micros(), single.profit.micros());
}

}  // namespace
}  // namespace cloudcache
