// The skyline scans only the cheapest family of each (shape class, base
// residency) group. That is exact because PlanSet prices every member of
// a class from the class's estimates plus a per-family constant, so this
// pin drives whole runs query by query and, before each query is served,
// has every node's economy quote it (EconomyEngine::Quote changes nothing
// but memos) and demands that the quoted set's survivors equal a full
// scan over every plan: across the Fig. 4 grid, an elastic 1-4 node fleet
// through a checkpoint -> restore, four tenants sharing one economy, and
// a run whose classes split by base residency with the non-resident
// member the cheaper one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/catalog/tpch.h"
#include "src/cluster/cluster.h"
#include "src/plan/skyline.h"
#include "src/sim/driver_core.h"
#include "src/sim/experiment.h"
#include "tests/testing/plan_sets.h"

namespace cloudcache {
namespace {

class ShapeClassSurvivorsTest : public ::testing::Test {
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

  /// Active economy (investments and evictions within the short run), so
  /// residency, and with it every group's base residency, churns.
  static ExperimentConfig ActiveConfig(SchemeKind scheme, double interval,
                                       uint64_t queries) {
    ExperimentConfig config;
    config.scheme = scheme;
    config.workload.interarrival_seconds = interval;
    config.workload.seed = 43;
    config.seed = 44;
    config.sim.num_queries = queries;
    config.customize_econ = [](EconScheme::Config& econ) {
      econ.economy.regret_fraction_a = 0.001;
      econ.economy.initial_credit = Money::FromDollars(20);
    };
    return config;
  }

  /// `config` must outlive the returned graph.
  static std::unique_ptr<ExperimentGraph> Build(
      const ExperimentConfig& config) {
    Result<std::unique_ptr<ExperimentGraph>> graph =
        ExperimentGraph::Build(*catalog_, *templates_, config);
    EXPECT_TRUE(graph.ok()) << graph.status().ToString();
    return graph.ok() ? std::move(graph).value() : nullptr;
  }

  /// Quotes `query` on every economy in `scheme` (one per node) and checks
  /// each quoted set's survivors against a full scan.
  void CheckQuotes(const Scheme& scheme, const Query& query) {
    std::vector<const Scheme*> nodes = {&scheme};
    if (const auto* cluster = dynamic_cast<const ClusterScheme*>(&scheme)) {
      nodes.clear();
      for (size_t n = 0; n < cluster->num_nodes(); ++n) {
        nodes.push_back(&cluster->node(n));
      }
      max_nodes_ = std::max(max_nodes_, cluster->num_nodes());
    }
    for (const Scheme* node : nodes) {
      const auto* econ = dynamic_cast<const EconScheme*>(node);
      ASSERT_NE(econ, nullptr);
      const PlanSet& set = econ->engine().Quote(query, query.arrival_time);
      SkylineIndicesInto(set, &survivors_, &scratch_);
      ASSERT_EQ(survivors_, testing::FullScanSkyline(set))
          << "query " << served_;
      ++checked_;
      pruned_ += testing::HasSharedShapeClass(set);
      split_ += testing::HasCheaperNonResidentMember(set);
    }
  }

  /// Serves the next `count` queries of `graph` in merge order, checking
  /// each one's quotes before it is served.
  void Drive(ExperimentGraph* graph, uint32_t streams, uint64_t count) {
    std::vector<WorkloadGenerator*> heads;
    for (uint32_t t = 0; t < streams; ++t) heads.push_back(graph->stream(t));
    for (uint64_t i = 0; i < count; ++i, ++served_) {
      const Query query = heads[MergeHead(heads)]->Next();
      CheckQuotes(graph->scheme(), query);
      if (HasFatalFailure()) return;
      graph->simulator()->ExternalServe(query);
    }
  }

  static Catalog* catalog_;
  static std::vector<QueryTemplate>* templates_;
  std::vector<size_t> survivors_;
  SkylineScratch scratch_;
  uint64_t served_ = 0;
  uint64_t checked_ = 0;
  uint64_t pruned_ = 0;
  /// Quotes with a class split by base residency, non-resident cheaper.
  uint64_t split_ = 0;
  size_t max_nodes_ = 1;
};

Catalog* ShapeClassSurvivorsTest::catalog_ = nullptr;
std::vector<QueryTemplate>* ShapeClassSurvivorsTest::templates_ = nullptr;

TEST_F(ShapeClassSurvivorsTest, Fig4GridSurvivorsMatchFullScan) {
  for (double interval : PaperInterarrivals()) {
    for (SchemeKind scheme : PaperSchemes()) {
      if (scheme == SchemeKind::kBypassYield) continue;  // No skyline.
      SCOPED_TRACE(std::string(SchemeKindToString(scheme)) + " @ " +
                   std::to_string(interval) + "s");
      // The graph keeps pointers into its config.
      const ExperimentConfig config = ActiveConfig(scheme, interval, 500);
      const std::unique_ptr<ExperimentGraph> graph = Build(config);
      ASSERT_NE(graph, nullptr);
      graph->simulator()->ExternalBegin();
      Drive(graph.get(), 1, 500);
      ASSERT_FALSE(HasFatalFailure());
    }
  }
  EXPECT_EQ(checked_, served_);
  EXPECT_GT(pruned_, checked_ / 2);
}

TEST_F(ShapeClassSurvivorsTest, ElasticChurnSurvivorsMatchThroughRestore) {
  // Shaped like perfbench's elastic-churn: a 1-4 node elastic fleet of
  // cut-rate nodes under 1 s arrivals and the active economy.
  ExperimentConfig config = ActiveConfig(SchemeKind::kEconCheap, 1.0, 3'000);
  config.cluster.nodes = 1;
  config.cluster.elastic = true;
  config.cluster.node_rent_multiplier = 0.25;
  config.cluster.elasticity.max_nodes = 4;
  config.cluster.elasticity.check_interval_queries = 250;
  config.sim.checkpoint.path =
      ::testing::TempDir() + "/shape_class_elastic.snap";

  {
    const std::unique_ptr<ExperimentGraph> graph = Build(config);
    ASSERT_NE(graph, nullptr);
    graph->simulator()->ExternalBegin();
    Drive(graph.get(), 1, 1'500);
    ASSERT_FALSE(HasFatalFailure());
    ASSERT_TRUE(graph->simulator()->ExternalCheckpoint().ok());
  }
  // A fresh graph restored from the snapshot: new enumerators rebuild
  // every plan set and its shape classes.
  config.sim.checkpoint.restore = CheckpointOptions::Restore::kHard;
  const std::unique_ptr<ExperimentGraph> resumed = Build(config);
  ASSERT_NE(resumed, nullptr);
  resumed->simulator()->ExternalBegin();
  EXPECT_EQ(resumed->simulator()->external_processed(), 1'500u);
  Drive(resumed.get(), 1, 1'500);
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_GT(max_nodes_, 1u);
  EXPECT_GE(checked_, served_);
  std::remove(config.sim.checkpoint.path.c_str());
}

TEST_F(ShapeClassSurvivorsTest, SplitResidencyClassesSurvivorsMatchFullScan) {
  // Paper arrivals over a longer run: index families of one shape class
  // get built one by one, so a class's members differ in base residency,
  // and often the non-resident member's hypothetical share undercuts the
  // resident one's pending share and rent. Each residency group must then
  // be scanned on its own.
  const ExperimentConfig config =
      ActiveConfig(SchemeKind::kEconCheap, 10.0, 3'000);
  const std::unique_ptr<ExperimentGraph> graph = Build(config);
  ASSERT_NE(graph, nullptr);
  graph->simulator()->ExternalBegin();
  Drive(graph.get(), 1, 3'000);
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_EQ(checked_, served_);
  EXPECT_GT(split_, 100u);
}

TEST_F(ShapeClassSurvivorsTest, FourTenantsSurvivorsMatchFullScan) {
  ExperimentConfig config = ActiveConfig(SchemeKind::kEconCheap, 5.0, 2'000);
  config.tenancy.tenants = 4;
  const std::unique_ptr<ExperimentGraph> graph = Build(config);
  ASSERT_NE(graph, nullptr);
  graph->simulator()->ExternalBegin();
  Drive(graph.get(), 4, 2'000);
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_EQ(checked_, served_);
}

}  // namespace
}  // namespace cloudcache
