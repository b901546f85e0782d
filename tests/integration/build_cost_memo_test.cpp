// The economy memoizes each structure's build cost: the residency-free
// part (CostModel::FixedBuildCost) once, with an index's absent key
// columns re-added when the residency epoch moves, and the hypothetical
// charge EvenShare(cost, horizon, 0) stored with the entry. This pin
// drives whole runs query by query and, after every query that moved a
// node's residency, demands that every interned structure's memoized cost
// equal a fresh CostModel::BuildCost at the node's column residency and
// its stored charge equal EvenShare of that cost: an elastic 1-4 node
// fleet through a checkpoint -> restore, and four tenants sharing one
// economy.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/catalog/tpch.h"
#include "src/cluster/cluster.h"
#include "src/sim/driver_core.h"
#include "src/sim/experiment.h"
#include "tests/testing/economy_peer.h"

namespace cloudcache {
namespace {

class BuildCostMemoTest : public ::testing::Test {
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
  /// residency, and with it every index's absent key columns, churns.
  static ExperimentConfig ActiveConfig(double interval, uint64_t queries) {
    ExperimentConfig config;
    config.scheme = SchemeKind::kEconCheap;
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

  /// Checks every memo entry of each economy in `scheme` (one per node)
  /// whose residency epoch moved since its last check.
  void CheckMemos(const Scheme& scheme) {
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
      const EconomyEngine& engine = econ->engine();
      const CacheState& cache = engine.cache();
      auto [seen, fresh_engine] = epochs_.emplace(&engine, cache.epoch());
      if (!fresh_engine && seen->second == cache.epoch()) continue;
      seen->second = cache.epoch();
      ++moves_;
      const CostModel& model = engine.decision_model();
      const std::vector<bool>& residency = cache.column_residency();
      const StructureRegistry& registry = cache.registry();
      for (StructureId id = 0; id < registry.size(); ++id) {
        const StructureKey& key = registry.key(id);
        const Money fresh = model.BuildCost(key, residency);
        ASSERT_EQ(EconomyEnginePeer::MemoBuildCost(engine, id), fresh)
            << key.ToString(*catalog_) << " after query " << served_;
        ASSERT_EQ(EconomyEnginePeer::MemoShare(engine, id),
                  EvenShare(fresh, engine.options().amortization_horizon, 0))
            << key.ToString(*catalog_) << " after query " << served_;
        switch (key.type) {
          case StructureType::kColumn:
            ++column_checks_;
            break;
          case StructureType::kCpuNode:
            ++cpu_node_checks_;
            break;
          case StructureType::kIndex: {
            const Money absent = model.AbsentKeyColumnsCost(key, residency);
            auto [last, first_sight] =
                index_absent_.emplace(std::make_pair(&engine, id), absent);
            index_flips_ += !first_sight && last->second != absent;
            last->second = absent;
            break;
          }
        }
      }
    }
  }

  /// Serves the next `count` queries of `graph` in merge order, checking
  /// the memos after each.
  void Drive(ExperimentGraph* graph, uint32_t streams, uint64_t count) {
    std::vector<WorkloadGenerator*> heads;
    for (uint32_t t = 0; t < streams; ++t) heads.push_back(graph->stream(t));
    for (uint64_t i = 0; i < count; ++i, ++served_) {
      graph->simulator()->ExternalServe(heads[MergeHead(heads)]->Next());
      CheckMemos(graph->scheme());
      if (HasFatalFailure()) return;
    }
  }

  /// Forgets the engines of a graph about to be destroyed.
  void ForgetEngines() {
    epochs_.clear();
    index_absent_.clear();
  }

  static Catalog* catalog_;
  static std::vector<QueryTemplate>* templates_;
  std::map<const EconomyEngine*, uint64_t> epochs_;
  std::map<std::pair<const EconomyEngine*, StructureId>, Money> index_absent_;
  uint64_t served_ = 0;
  uint64_t moves_ = 0;
  uint64_t column_checks_ = 0;
  uint64_t cpu_node_checks_ = 0;
  /// Index entries whose absent key columns changed between checks.
  uint64_t index_flips_ = 0;
  size_t max_nodes_ = 1;
};

Catalog* BuildCostMemoTest::catalog_ = nullptr;
std::vector<QueryTemplate>* BuildCostMemoTest::templates_ = nullptr;

TEST_F(BuildCostMemoTest, ElasticChurnMemoMatchesFreshCostThroughRestore) {
  // Shaped like perfbench's elastic-churn: a 1-4 node elastic fleet of
  // cut-rate nodes under 1 s arrivals and the active economy.
  ExperimentConfig config = ActiveConfig(1.0, 3'000);
  config.cluster.nodes = 1;
  config.cluster.elastic = true;
  config.cluster.node_rent_multiplier = 0.25;
  config.cluster.elasticity.max_nodes = 4;
  config.cluster.elasticity.check_interval_queries = 250;
  config.sim.checkpoint.path = ::testing::TempDir() + "/build_cost_memo.snap";

  {
    const std::unique_ptr<ExperimentGraph> graph = Build(config);
    ASSERT_NE(graph, nullptr);
    graph->simulator()->ExternalBegin();
    Drive(graph.get(), 1, 1'500);
    ASSERT_FALSE(HasFatalFailure());
    ASSERT_TRUE(graph->simulator()->ExternalCheckpoint().ok());
    ForgetEngines();
  }
  // A fresh graph restored from the snapshot starts with empty memos.
  config.sim.checkpoint.restore = CheckpointOptions::Restore::kHard;
  const std::unique_ptr<ExperimentGraph> resumed = Build(config);
  ASSERT_NE(resumed, nullptr);
  resumed->simulator()->ExternalBegin();
  EXPECT_EQ(resumed->simulator()->external_processed(), 1'500u);
  Drive(resumed.get(), 1, 1'500);
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_GT(max_nodes_, 1u);
  EXPECT_GT(moves_, 20u);
  EXPECT_GT(column_checks_, 0u);
  EXPECT_GT(cpu_node_checks_, 0u);
  EXPECT_GT(index_flips_, 0u);
  std::remove(config.sim.checkpoint.path.c_str());
}

TEST_F(BuildCostMemoTest, FourTenantsMemoMatchesFreshCost) {
  ExperimentConfig config = ActiveConfig(5.0, 2'000);
  config.tenancy.tenants = 4;
  const std::unique_ptr<ExperimentGraph> graph = Build(config);
  ASSERT_NE(graph, nullptr);
  graph->simulator()->ExternalBegin();
  Drive(graph.get(), 4, 2'000);
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_GT(moves_, 20u);
  EXPECT_GT(index_flips_, 0u);
  ForgetEngines();
}

}  // namespace
}  // namespace cloudcache
