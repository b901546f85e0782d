// MaybeInvest's O(1) Eq. 3 exit reads the engine's investable regret max:
// the largest global regret among structures Eq. 3 could pick (not
// resident, not under construction, not a CPU node past the next one to
// boot). The engine raises it as Eq. 1/2 distribute regret and rescans it
// after a residency move, a pending flag, or a global Clear or Subtract.
// This pin drives whole runs query by query and, after every query,
// demands that each node's investable max equal a brute-force max over
// the ledger: paper-steady, an elastic 1-4 node fleet, four tenants under
// admission control and fair eviction (the forfeit path subtracts from
// the global ledger), a candidate pool small enough to age candidates out
// (their regret is Cleared), and an economy with build latency (the
// pending path). Every run is checkpointed at its midpoint and finished by a
// fresh graph restored from the snapshot.

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
#include "src/util/units.h"
#include "tests/testing/economy_peer.h"

namespace cloudcache {
namespace {

class InvestExitTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    paper_catalog_ = new Catalog(MakeTpchCatalog(TpchScaleForBytes(
        static_cast<uint64_t>(2.5 * static_cast<double>(kTB)))));
    catalog_ = new Catalog(MakeTpchCatalog(100.0));
    templates_ = new std::vector<QueryTemplate>(MakeTpchTemplates());
  }
  static void TearDownTestSuite() {
    delete paper_catalog_;
    paper_catalog_ = nullptr;
    delete catalog_;
    catalog_ = nullptr;
    delete templates_;
    templates_ = nullptr;
  }

  /// Fig. 4's setting, as perfbench's paper-steady runs it: econ-cheap,
  /// 10 s arrivals, a = 0.02, $200 credit.
  static ExperimentConfig PaperConfig(uint64_t queries) {
    ExperimentConfig config;
    config.scheme = SchemeKind::kEconCheap;
    config.workload.interarrival_seconds = 10.0;
    config.workload.seed = 1;
    config.seed = 2;
    config.sim.num_queries = queries;
    config.customize_econ = [](EconScheme::Config& econ) {
      econ.economy.regret_fraction_a = 0.02;
      econ.economy.initial_credit = Money::FromDollars(200);
    };
    return config;
  }

  /// An active economy (investments and evictions within the short run),
  /// with build latency modeled.
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
      econ.economy.model_build_latency = true;
    };
    return config;
  }

  /// The largest global regret over the entries Eq. 3 could pick, the
  /// slow way: a walk over the whole ledger.
  static Money BruteForceInvestableMax(const EconomyEngine& engine) {
    const CacheState& cache = engine.cache();
    const StructureRegistry& registry = cache.registry();
    Money max;
    engine.regret().ForEachNonZero([&](StructureId id, Money amount) {
      if (cache.IsResident(id) || EconomyEnginePeer::IsPending(engine, id)) {
        return;
      }
      const StructureKey& key = registry.key(id);
      if (key.type == StructureType::kCpuNode &&
          key.ordinal > cache.extra_cpu_nodes()) {
        return;
      }
      max = Money::Max(max, amount);
    });
    return max;
  }

  /// Checks every economy in `scheme` (one per node).
  void Check(const Scheme& scheme) {
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
      const Money expected = BruteForceInvestableMax(engine);
      ASSERT_EQ(EconomyEnginePeer::InvestableMax(engine), expected)
          << "after query " << served_;
      ++checks_;
      Money ledger_max;
      engine.regret().ForEachNonZero([&](StructureId, Money amount) {
        ledger_max = Money::Max(ledger_max, amount);
      });
      // A resident, pending or unbootable entry holds the ledger's max:
      // the case where the whole-ledger max could not exit.
      shadowed_ += expected < ledger_max;
      pending_checks_ += engine.pending_builds() > 0;
      for (size_t t = 0; t < engine.tenant_count(); ++t) {
        const auto tenant = static_cast<uint32_t>(t);
        const bool throttled = engine.admission().throttled(tenant);
        auto [was, fresh] = throttled_.emplace(
            std::make_pair(&engine, tenant), throttled);
        // A throttling onset forfeits the tenant's standing regret,
        // which Subtracts its shares from the global ledger.
        if (!fresh && !was->second && throttled &&
            tenant_regret_[{&engine, tenant}].IsPositive()) {
          ++forfeits_;
        }
        was->second = throttled;
        tenant_regret_[{&engine, tenant}] = engine.TenantRegretTotal(t);
      }
    }
  }

  /// Serves the next `count` queries of `graph` in merge order, checking
  /// after each.
  void Drive(ExperimentGraph* graph, uint32_t streams, uint64_t count) {
    std::vector<WorkloadGenerator*> heads;
    for (uint32_t t = 0; t < streams; ++t) heads.push_back(graph->stream(t));
    for (uint64_t i = 0; i < count; ++i, ++served_) {
      graph->simulator()->ExternalServe(heads[MergeHead(heads)]->Next());
      Check(graph->scheme());
      if (HasFatalFailure()) return;
    }
  }

  /// Runs `config` for its query count, checking after every query:
  /// checkpoint at the midpoint, then finish on a fresh graph restored
  /// from the snapshot (whose engines start with a stale max).
  void RunThroughRestore(const Catalog& catalog, ExperimentConfig config,
                         const std::string& name) {
    const uint32_t streams = std::max<uint32_t>(1, config.tenancy.tenants);
    const uint64_t half = config.sim.num_queries / 2;
    config.sim.checkpoint.path = ::testing::TempDir() + "/" + name + ".snap";
    {
      Result<std::unique_ptr<ExperimentGraph>> graph =
          ExperimentGraph::Build(catalog, *templates_, config);
      ASSERT_TRUE(graph.ok()) << graph.status().ToString();
      (*graph)->simulator()->ExternalBegin();
      Drive(graph->get(), streams, half);
      ASSERT_FALSE(HasFatalFailure());
      ASSERT_TRUE((*graph)->simulator()->ExternalCheckpoint().ok());
      investments_ += (*graph)->simulator()->external_metrics().investments;
      throttled_.clear();
      tenant_regret_.clear();
    }
    config.sim.checkpoint.restore = CheckpointOptions::Restore::kHard;
    Result<std::unique_ptr<ExperimentGraph>> resumed =
        ExperimentGraph::Build(catalog, *templates_, config);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    (*resumed)->simulator()->ExternalBegin();
    EXPECT_EQ((*resumed)->simulator()->external_processed(), half);
    Drive(resumed->get(), streams, config.sim.num_queries - half);
    ASSERT_FALSE(HasFatalFailure());
    std::remove(config.sim.checkpoint.path.c_str());
  }

  static Catalog* paper_catalog_;
  static Catalog* catalog_;
  static std::vector<QueryTemplate>* templates_;
  std::map<std::pair<const EconomyEngine*, uint32_t>, bool> throttled_;
  std::map<std::pair<const EconomyEngine*, uint32_t>, Money> tenant_regret_;
  uint64_t served_ = 0;
  uint64_t checks_ = 0;
  uint64_t shadowed_ = 0;
  uint64_t pending_checks_ = 0;
  uint64_t forfeits_ = 0;
  uint64_t investments_ = 0;
  size_t max_nodes_ = 1;
};

Catalog* InvestExitTest::paper_catalog_ = nullptr;
Catalog* InvestExitTest::catalog_ = nullptr;
std::vector<QueryTemplate>* InvestExitTest::templates_ = nullptr;

TEST_F(InvestExitTest, PaperSteadyMaxMatchesBruteForce) {
  RunThroughRestore(*paper_catalog_, PaperConfig(4'000), "invest_paper");
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_EQ(checks_, 4'000u);
  EXPECT_GT(shadowed_, 1'000u);
}

TEST_F(InvestExitTest, ElasticFleetMaxMatchesBruteForce) {
  // Shaped like perfbench's elastic-churn: a 1-4 node elastic fleet of
  // cut-rate nodes under 1 s arrivals and the active economy.
  ExperimentConfig config = ActiveConfig(1.0, 3'000);
  config.cluster.nodes = 1;
  config.cluster.elastic = true;
  config.cluster.node_rent_multiplier = 0.25;
  config.cluster.elasticity.max_nodes = 4;
  config.cluster.elasticity.check_interval_queries = 250;
  RunThroughRestore(*catalog_, config, "invest_elastic");
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_GT(max_nodes_, 1u);
  EXPECT_GT(shadowed_, 0u);
  EXPECT_GT(pending_checks_, 0u);
}

TEST_F(InvestExitTest, FourTenantsForfeitsMatchBruteForce) {
  ExperimentConfig config = ActiveConfig(5.0, 3'000);
  config.tenancy.tenants = 4;
  config.tenancy.traffic_skew = 1.0;
  config.tenancy.admission = true;
  config.tenancy.fair_eviction = true;
  config.customize_econ = [](EconScheme::Config& econ) {
    econ.economy.regret_fraction_a = 0.001;
    econ.economy.initial_credit = Money::FromDollars(20);
    econ.economy.admission.throttle_ratio = 0.5;
    econ.economy.admission.readmit_ratio = 0.25;
    econ.economy.admission.min_regret = Money::FromDollars(0.05);
  };
  RunThroughRestore(*catalog_, config, "invest_tenants");
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_GT(forfeits_, 0u);
  EXPECT_GT(shadowed_, 0u);
}

TEST_F(InvestExitTest, PoolAgingMatchesBruteForce) {
  // A pool smaller than the candidate set: candidates age out and forfeit
  // their regret (a global Clear), yet some still stay long enough to
  // earn an investment.
  ExperimentConfig config = ActiveConfig(5.0, 3'000);
  config.customize_econ = [](EconScheme::Config& econ) {
    econ.economy.regret_fraction_a = 0.001;
    econ.economy.initial_credit = Money::FromDollars(20);
    econ.economy.candidate_pool_capacity = 16;
  };
  RunThroughRestore(*catalog_, config, "invest_pool");
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_GT(investments_, 0u);
  EXPECT_GT(shadowed_, 0u);
}

TEST_F(InvestExitTest, BuildLatencyPendingMatchesBruteForce) {
  RunThroughRestore(*catalog_, ActiveConfig(1.0, 3'000), "invest_latency");
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_GT(investments_, 0u);
  EXPECT_GT(pending_checks_, 100u);
}

}  // namespace
}  // namespace cloudcache
