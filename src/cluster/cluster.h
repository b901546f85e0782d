#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/baseline/scheme.h"
#include "src/cluster/elasticity.h"
#include "src/cluster/metrics.h"
#include "src/cluster/placement.h"
#include "src/cost/price_list.h"

namespace cloudcache {

/// Cluster shape of an experiment: how many cache nodes share the
/// workload, and whether the economy may resize the fleet.
struct ClusterOptions {
  /// Initial (and, when !elastic, fixed) cache nodes. 1 = the paper's
  /// single node, on exactly the pre-cluster code path.
  uint32_t nodes = 1;
  /// Let the ElasticityController rent/release nodes at run time.
  bool elastic = false;
  /// Rent of one cluster node beyond the always-on coordinator, as a
  /// multiple of the node-reservation rate (cpu_second_dollars x
  /// cpu_reserve_fraction). Applies to both the metered bill and the
  /// controller's decision arithmetic.
  double node_rent_multiplier = 1.0;
  /// Structures last used within this many simulated seconds of a
  /// scale-in survive it: they migrate to the warmest surviving node
  /// (built there, paid from that node's account). 0 migrates nothing.
  double migration_recency_seconds = 600.0;
  /// Scale-out/in policy knobs.
  ElasticityOptions elasticity;
};

/// N cache nodes behind one Scheme interface: a deterministic cost-aware
/// PlacementRouter picks the serving node per query, each node runs its
/// own economy (built by the factory; per-node economies share the tenant
/// ledgers in the sense that TenantRegret sums every node's attribution),
/// and an ElasticityController rents a new node when sustained
/// unmonetized regret projected over the amortization horizon exceeds a
/// node's rent — and releases the coldest node when its resident
/// structures no longer pay their keep, migrating still-warm survivors.
///
/// Determinism: routing is a pure function of (query, residencies), the
/// controller acts on query-count windows, node ordinals and seeds derive
/// from MixSeed — a cluster run is a pure function of its configuration,
/// bit-identical across repeats and sweep thread counts. Each node keeps
/// its own CacheState and therefore its own residency epoch; every
/// residency mutation — including scale-in migration, which goes through
/// AdoptStructure/ForceBuild — bumps the owning node's epoch, so each
/// node's plan-skeleton cache stays a pure memoization under churn.
class ClusterScheme : public Scheme {
 public:
  /// Builds the scheme for node `ordinal`. Ordinal 0 must be configured
  /// exactly like the single-node run (that is what makes the one-node
  /// cluster bit-identical to the classic path); rented nodes get fresh
  /// ordinals — never reused — and should derive their seeds from the
  /// ordinal so a rented node's streams are a pure function of the
  /// configuration.
  using NodeFactory = std::function<std::unique_ptr<Scheme>(uint32_t)>;

  ClusterScheme(const Catalog* catalog, const PriceList* decision_prices,
                ClusterOptions options, NodeFactory factory);

  const std::string& name() const override { return name_; }
  ServedQuery OnQuery(const Query& query, SimTime now) override;
  /// The coordinator's cache (interface anchor; metering reads the
  /// Total* sums below).
  const CacheState& cache() const override {
    return nodes_.front().scheme->cache();
  }
  Money credit() const override;
  Money TenantRegret(uint32_t tenant) const override;
  /// Bills the node that served the most recent query (the coordinator
  /// before any query): per-query charges land where the revenue landed,
  /// and shared rent spreads across nodes in proportion to traffic.
  void ChargeExpenditure(Money amount, SimTime now) override;

  uint64_t TotalResidentBytes() const override;
  uint32_t TotalExtraCpuNodes() const override;
  uint32_t RentedNodes() const override {
    return static_cast<uint32_t>(nodes_.size()) - 1;
  }
  Money StandingRegret() const override;
  void DescribeCluster(ClusterMetrics* out) const override;

  /// Forwards the tracer to every node, each stamped with its own
  /// ordinal (the `node_ordinal` argument is ignored — a cluster's nodes
  /// are not interchangeable); nodes rented later inherit it. The cluster
  /// itself emits node_rent / node_release / migrate elasticity events.
  void SetEventTracer(obs::EventTracer* tracer,
                      uint32_t node_ordinal) override;

  size_t num_nodes() const { return nodes_.size(); }
  const Scheme& node(size_t index) const { return *nodes_[index].scheme; }
  /// Mutable node access for tests and warm-start setups (pre-seeding a
  /// node's cache via AdoptStructure before driving queries).
  Scheme& mutable_node(size_t index) { return *nodes_[index].scheme; }
  const ClusterOptions& options() const { return options_; }

  /// Routes one query against the current node residencies without
  /// serving it (OnQuery's first step). Non-const only for the router's
  /// reused score buffer.
  size_t RouteQuery(const Query& query);

  /// Checkpoint support. The fleet itself is run state: restore tears
  /// down the constructor-built nodes and rebuilds each saved node through
  /// the factory from its saved ordinal (ordinals fully determine a
  /// node's configuration and seeds), then restores each node's scheme
  /// state, traffic counters, and the controller/window bookkeeping.
  bool SupportsCheckpoint() const override { return true; }
  void SaveState(persist::Encoder* enc) const override;
  Status RestoreState(persist::Decoder* dec) override;

 private:
  struct Node {
    uint32_t ordinal = 0;
    std::unique_ptr<Scheme> scheme;
    SimTime rented_at = 0;
    // Routed-traffic accounting (lifetime and current-window).
    uint64_t queries = 0;
    uint64_t served = 0;
    uint64_t served_in_cache = 0;
    uint64_t window_queries = 0;
    Money revenue;
    Money profit;
  };

  /// Runs the controller at a window boundary and applies its action.
  void MaybeScale(SimTime now);
  void RentNode(SimTime now);
  /// Releases node `index`; its credit and warm structures pass to the
  /// warmest survivor.
  void ReleaseNode(size_t index, SimTime now);
  /// Index of the surviving node (excluding `releasing`) with the most
  /// lifetime traffic — the migration destination.
  size_t WarmestSurvivor(size_t releasing) const;

  const Catalog* catalog_;
  const PriceList* decision_prices_;
  ClusterOptions options_;
  NodeFactory factory_;
  PlacementRouter router_;
  ElasticityController controller_;
  std::vector<Node> nodes_;
  uint32_t next_ordinal_ = 0;
  /// Reused per-query residency view handed to the router.
  std::vector<const CacheState*> cache_view_;
  size_t last_served_ = 0;
  uint64_t queries_ = 0;
  /// Arrival-time bounds for the controller's mean-interarrival estimate.
  SimTime first_arrival_ = 0;
  SimTime last_arrival_ = 0;
  bool saw_query_ = false;
  /// Scale-event counters reported through DescribeCluster.
  uint32_t peak_nodes_ = 0;
  uint64_t scale_out_events_ = 0;
  uint64_t scale_in_events_ = 0;
  uint64_t migrations_ = 0;
  uint64_t migration_failures_ = 0;
  /// Structured event trace (null when off) and the last query served —
  /// elasticity events fire at window boundaries, so they are stamped
  /// with the query whose arrival closed the window.
  obs::EventTracer* tracer_ = nullptr;
  uint64_t trace_query_ = 0;
  uint32_t trace_tenant_ = 0;
  std::string name_;
};

}  // namespace cloudcache
