#pragma once

#include <memory>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/query/templates.h"
#include "src/sim/experiment.h"
#include "src/sim/simulator.h"
#include "src/structure/index_advisor.h"
#include "src/util/logging.h"
#include "src/workload/generator.h"

namespace cloudcache::testing {

/// The layer production reserves for a larger shape, which a run of one
/// stream on one node can still be pushed through by hand.
enum class WrappedLayer {
  /// Tenancy, as for tenants > 1: the economy provisions one tenant
  /// identity, the fairness switches config.tenancy.fair_eviction and
  /// config.tenancy.admission apply, and the stream-vector Simulator
  /// gives the one stream its tenant slice.
  kTenancy,
  /// The cluster, as for nodes > 1: a one-node ClusterScheme wraps
  /// MakeExperimentScheme's scheme as node 0.
  kCluster,
};

/// Runs `config` (tenants == 1, nodes == 1, elastic off: the classic path
/// in production) through `layer`, building the graph by hand the way
/// perfbench/economy.cpp does. The classic run and this one must agree
/// bit for bit; the equivalence tests pin that.
inline SimMetrics RunThroughWrappedLayer(
    const Catalog& catalog, const std::vector<QueryTemplate>& templates,
    ExperimentConfig config, WrappedLayer layer) {
  CLOUDCACHE_CHECK_EQ(config.tenancy.tenants, 1u);
  CLOUDCACHE_CHECK_EQ(config.cluster.nodes, 1u);
  CLOUDCACHE_CHECK(!config.cluster.elastic);
  if (layer == WrappedLayer::kTenancy) {
    // customize_econ runs before MakeExperimentScheme's tenancy
    // provisioning, which a single stream skips: provision here exactly
    // what tenants > 1 would.
    const TenancyOptions tenancy = config.tenancy;
    const auto base = config.customize_econ;
    config.customize_econ = [tenancy, base](EconScheme::Config& econ) {
      if (base) base(econ);
      econ.tenants = 1;
      if (tenancy.fair_eviction) {
        econ.economy.tenant_weighted_eviction = true;
      }
      if (tenancy.admission) econ.economy.admission.enabled = true;
      econ.tenant_budgets = tenancy.tenant_budgets;
    };
  }

  Result<std::vector<ResolvedTemplate>> resolved =
      ResolveTemplates(catalog, templates);
  CLOUDCACHE_CHECK(resolved.ok());
  const std::vector<StructureKey> indexes =
      RecommendIndexes(catalog, resolved.value(), config.index_candidates);
  std::unique_ptr<Scheme> scheme;
  if (layer == WrappedLayer::kCluster) {
    const ClusterScheme::NodeFactory node0 = [&](uint32_t ordinal) {
      CLOUDCACHE_CHECK_EQ(ordinal, 0u);
      return MakeExperimentScheme(catalog, indexes, config);
    };
    scheme = std::make_unique<ClusterScheme>(&catalog, &config.decision_prices,
                                             config.cluster, node0);
  } else {
    scheme = MakeExperimentScheme(catalog, indexes, config);
  }
  const WorkloadOptions workload =
      TenantWorkloadOptions(config.workload, config.tenancy, 0);
  WorkloadGenerator stream(&catalog, resolved.value(), workload);

  SimulatorOptions options = config.sim;
  options.node_rent_multiplier = config.cluster.node_rent_multiplier;
  if (layer == WrappedLayer::kTenancy) {
    const std::vector<WorkloadGenerator*> streams = {&stream};
    return Simulator(&catalog, scheme.get(), streams, options).Run();
  }
  return Simulator(&catalog, scheme.get(), &stream, options).Run();
}

}  // namespace cloudcache::testing
