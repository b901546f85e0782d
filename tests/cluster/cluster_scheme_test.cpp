#include "src/cluster/cluster.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/structure/structure.h"
#include "tests/testing/fixtures.h"

namespace cloudcache {
namespace {

using cloudcache::testing::MakeRoundPrices;
using cloudcache::testing::MakeTinyCatalog;
using cloudcache::testing::MakeTinyQuery;

/// Drives a ClusterScheme directly (no simulator) so the scale-in and
/// migration mechanics can be pinned with hand-placed residency: the
/// integration suite covers routed fleets under the paper workload, where
/// a cold node is organically empty and migration has nothing to move.
class ClusterSchemeTest : public ::testing::Test {
 protected:
  ClusterSchemeTest()
      : catalog_(MakeTinyCatalog()), prices_(MakeRoundPrices()) {}

  ClusterScheme::NodeFactory EconFactory() {
    return [this](uint32_t ordinal) -> std::unique_ptr<Scheme> {
      EconScheme::Config config = EconScheme::EconCheapConfig();
      config.seed = 7 + ordinal;
      config.economy.initial_credit = Money::FromDollars(50);
      config.economy.model_build_latency = false;
      return std::make_unique<EconScheme>(&catalog_, &prices_,
                                          std::vector<StructureKey>{},
                                          std::move(config));
    };
  }

  /// Elastic options tight enough to act within a few hundred queries.
  ClusterOptions TwoNodeElastic() {
    ClusterOptions options;
    options.nodes = 2;
    options.elastic = true;
    options.migration_recency_seconds = 1e9;  // Everything survives.
    options.elasticity.check_interval_queries = 50;
    options.elasticity.sustain_windows = 2;
    options.elasticity.cooldown_windows = 1;
    options.elasticity.cold_share = 0.5;
    options.elasticity.max_nodes = 2;
    return options;
  }

  /// Pins every accessed column of the tiny query onto `node`, so the
  /// router's cost estimate sends all tiny-query traffic there.
  void WarmNodeForTinyQuery(Scheme& node) {
    for (const char* name : {"fact.f_key", "fact.f_value", "fact.f_date"}) {
      ASSERT_TRUE(
          node.AdoptStructure(ColumnKey(catalog_, *catalog_.FindColumn(name)),
                              /*now=*/0.0)
              .ok());
    }
  }

  Catalog catalog_;
  PriceList prices_;
};

TEST_F(ClusterSchemeTest, ReleasesTheColdNodeAndMigratesSurvivors) {
  ClusterScheme cluster(&catalog_, &prices_, TwoNodeElastic(),
                        EconFactory());
  ASSERT_EQ(cluster.num_nodes(), 2u);
  EXPECT_EQ(cluster.RentedNodes(), 1u);

  // Node 0 holds everything the query needs; node 1 holds an unrelated
  // dimension column it recently used. All traffic then routes to node 0,
  // node 1 goes sustained-cold, and its column must survive the release
  // by moving to node 0.
  WarmNodeForTinyQuery(cluster.mutable_node(0));
  const ColumnId dim_column = *catalog_.FindColumn("dim.d_key");
  ASSERT_TRUE(cluster.mutable_node(1)
                  .AdoptStructure(ColumnKey(catalog_, dim_column), 0.0)
                  .ok());
  EXPECT_FALSE(cluster.node(0).cache().ColumnResident(dim_column));

  for (int i = 0; i < 200; ++i) {
    const Query query = MakeTinyQuery(catalog_, 0.01, i);
    Query timed = query;
    timed.arrival_time = static_cast<double>(i);
    cluster.OnQuery(timed, timed.arrival_time);
    if (cluster.num_nodes() == 1) break;
  }

  ASSERT_EQ(cluster.num_nodes(), 1u);
  EXPECT_EQ(cluster.RentedNodes(), 0u);
  // The survivor column lives on in node 0's cache.
  EXPECT_TRUE(cluster.node(0).cache().ColumnResident(dim_column));

  ClusterMetrics shape;
  cluster.DescribeCluster(&shape);
  EXPECT_TRUE(shape.active);
  EXPECT_EQ(shape.final_nodes, 1u);
  EXPECT_EQ(shape.peak_nodes, 2u);
  EXPECT_EQ(shape.scale_in_events, 1u);
  EXPECT_EQ(shape.scale_out_events, 0u);
  EXPECT_EQ(shape.migrations, 1u);
  ASSERT_EQ(shape.nodes.size(), 1u);
  EXPECT_EQ(shape.nodes[0].ordinal, 0u);
}

TEST_F(ClusterSchemeTest, ColdStructuresDieWithTheirNode) {
  ClusterOptions options = TwoNodeElastic();
  options.migration_recency_seconds = 10.0;  // Tight survivor window.
  ClusterScheme cluster(&catalog_, &prices_, options, EconFactory());

  WarmNodeForTinyQuery(cluster.mutable_node(0));
  const ColumnId dim_column = *catalog_.FindColumn("dim.d_key");
  // Last used at t=0; by the time the release fires (t > 100) the column
  // is far outside the 10 s recency window.
  ASSERT_TRUE(cluster.mutable_node(1)
                  .AdoptStructure(ColumnKey(catalog_, dim_column), 0.0)
                  .ok());

  for (int i = 0; i < 200 && cluster.num_nodes() > 1; ++i) {
    Query query = MakeTinyQuery(catalog_, 0.01, i);
    query.arrival_time = static_cast<double>(i);
    cluster.OnQuery(query, query.arrival_time);
  }

  ASSERT_EQ(cluster.num_nodes(), 1u);
  EXPECT_FALSE(cluster.node(0).cache().ColumnResident(dim_column));
  ClusterMetrics shape;
  cluster.DescribeCluster(&shape);
  EXPECT_EQ(shape.migrations, 0u);
}

TEST_F(ClusterSchemeTest, ReleaseAbsorbsTheVictimsCredit) {
  ClusterScheme cluster(&catalog_, &prices_, TwoNodeElastic(),
                        EconFactory());
  WarmNodeForTinyQuery(cluster.mutable_node(0));

  const Money before = cluster.credit();
  Money victim_credit;
  for (int i = 0; i < 200 && cluster.num_nodes() > 1; ++i) {
    victim_credit = cluster.node(1).credit();
    Query query = MakeTinyQuery(catalog_, 0.01, i);
    query.arrival_time = static_cast<double>(i);
    cluster.OnQuery(query, query.arrival_time);
  }
  ASSERT_EQ(cluster.num_nodes(), 1u);
  EXPECT_FALSE(victim_credit.IsZero());
  // The fleet's total credit never drops at the release boundary: the
  // victim's till moved into the survivor (revenue earned during the
  // loop only adds on top).
  EXPECT_GE(cluster.credit().micros(), before.micros());
}

TEST_F(ClusterSchemeTest, FixedFleetNeverScales) {
  ClusterOptions options = TwoNodeElastic();
  options.elastic = false;  // Same knobs, controller disengaged.
  ClusterScheme cluster(&catalog_, &prices_, options, EconFactory());
  WarmNodeForTinyQuery(cluster.mutable_node(0));

  for (int i = 0; i < 200; ++i) {
    Query query = MakeTinyQuery(catalog_, 0.01, i);
    query.arrival_time = static_cast<double>(i);
    cluster.OnQuery(query, query.arrival_time);
  }
  EXPECT_EQ(cluster.num_nodes(), 2u);
  ClusterMetrics shape;
  cluster.DescribeCluster(&shape);
  EXPECT_EQ(shape.scale_in_events, 0u);
  EXPECT_EQ(shape.scale_out_events, 0u);
}

}  // namespace
}  // namespace cloudcache
