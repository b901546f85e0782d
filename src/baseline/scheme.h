#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/cache/cache_state.h"
#include "src/cost/cost_model.h"
#include "src/econ/budget.h"
#include "src/econ/economy.h"
#include "src/query/query.h"
#include "src/query/templates.h"
#include "src/structure/structure.h"
#include "src/util/money.h"
#include "src/util/rng.h"

namespace cloudcache {

/// How a user's budget function is synthesized per query in simulation.
///
/// The paper's experiments have "the user define a step preference
/// function B_Q and accept query execution in the back-end": we anchor the
/// budget to the quoted back-end plan (the service every user can always
/// buy) and scale it.
struct BudgetModelOptions {
  BudgetShape shape = BudgetShape::kStep;
  /// Budget amount = multiplier x the back-end plan's price. Centered at
  /// 1.05 so the jitter makes budgets straddle the quoted back-end price:
  /// queries above it land in cases B/C (profit, Eq. 2 regret toward
  /// faster service), queries below land in case A (Eq. 1 regret toward
  /// cheaper service) — the user still "accepts query execution in the
  /// back-end" as in Section VII-A.
  double price_multiplier = 1.05;
  /// t_max = multiplier x the back-end plan's response time.
  double tmax_multiplier = 2.5;
  /// Uniform +/- jitter applied to price_multiplier per query (users are
  /// not identical).
  double jitter = 0.25;
};

/// Per-tenant override of the budget synthesizer's shape: scales the
/// price/tmax multipliers for one tenant, so a multi-tenant run can model
/// heterogeneous users directly — a tenant with price_scale well below 1
/// is genuinely unmonetizable (its budgets rarely cover even the back-end
/// quote), the population the admission controller exists to recognize.
struct TenantBudgetShape {
  uint32_t tenant = 0;
  /// Multiplies BudgetModelOptions::price_multiplier for this tenant.
  double price_scale = 1.0;
  /// Multiplies BudgetModelOptions::tmax_multiplier for this tenant.
  double tmax_scale = 1.0;
};

/// Synthesizes per-query budget functions from a reference quote.
class BudgetModel {
 public:
  explicit BudgetModel(BudgetModelOptions options) : options_(options) {}

  /// Builds the budget for a query whose back-end quote is
  /// (reference_price, reference_seconds), drawing its jitter from `rng`.
  BudgetFunction Make(Money reference_price, double reference_seconds,
                      Rng& rng) const;

 private:
  BudgetModelOptions options_;
};

/// What a scheme reports back to the simulator for one query. All resource
/// quantities are *raw* (seconds, bytes, ops); the simulator prices them
/// at the metered rates, so a scheme cannot hide spending by pricing it at
/// zero internally.
struct ServedQuery {
  bool served = false;
  /// Physical shape of the executed plan.
  PlanSpec spec;
  /// Execution estimate of the executed plan (times are price-independent).
  /// The economy schemes fill only `time_seconds`: the simulator meters
  /// the executed plan from `spec`.
  ExecutionEstimate execution;
  /// Raw resources consumed by structures built while handling this query.
  BuildUsage build_usage;
  /// Number of structures built / evicted.
  uint32_t investments = 0;
  uint32_t evictions = 0;
  /// Economy-only: what the user paid and the cloud's margin.
  Money payment;
  Money profit;
  /// Economy-only: which budget case the query fell into.
  BudgetCase budget_case = BudgetCase::kCaseB;
  bool has_budget_case = false;
  /// Economy-only: the serving tenant was under admission throttling
  /// (served and billed normally, regret unbooked).
  bool throttled = false;
};

/// Cluster shape report (src/cluster/metrics.h); forward-declared so the
/// scheme layer does not depend on the cluster layer's headers.
struct ClusterMetrics;

/// A caching scheme the simulator can drive: the four contenders of
/// Section VII-A all implement this.
class Scheme {
 public:
  virtual ~Scheme() = default;

  virtual const std::string& name() const = 0;

  /// Serves one query arriving at `now` (non-decreasing across calls).
  virtual ServedQuery OnQuery(const Query& query, SimTime now) = 0;

  /// Cache contents (for single-node reporting; the anchor node of a
  /// cluster). Rent metering goes through the Total* views below so a
  /// multi-node scheme is billed for every node it operates.
  virtual const CacheState& cache() const = 0;

  /// Cloud credit CR, if the scheme runs an economy (summed over nodes
  /// for a cluster).
  virtual Money credit() const { return Money(); }

  /// Regret the economy currently holds on behalf of `tenant` (zero for
  /// schemes without an economy or without tenant attribution).
  virtual Money TenantRegret(uint32_t tenant) const {
    (void)tenant;
    return Money();
  }

  /// Books a metered infrastructure bill against the scheme's account (a
  /// no-op for schemes without an account; a cluster bills the node that
  /// served the most recent query).
  virtual void ChargeExpenditure(Money amount, SimTime now) {
    (void)amount;
    (void)now;
  }

  // --- Cluster-aware metering surface. Single-node schemes inherit the
  // defaults, which read the one cache — the simulator always meters
  // through these, so the arithmetic (and the bits) of single-node runs
  // is exactly the pre-cluster metering.

  /// Disk bytes resident across every node the scheme operates.
  virtual uint64_t TotalResidentBytes() const {
    return cache().resident_bytes();
  }
  /// Extra CPU nodes booted across every node the scheme operates.
  virtual uint32_t TotalExtraCpuNodes() const {
    return cache().extra_cpu_nodes();
  }
  /// Cluster cache nodes rented beyond the always-on coordinator; each is
  /// billed at the node-reservation rate times the cluster's rent
  /// multiplier. 0 for single-node schemes, so their rent metering is
  /// untouched.
  virtual uint32_t RentedNodes() const { return 0; }

  /// Standing (unmonetized) regret the scheme's economy holds — the
  /// elasticity controller's scale-out signal. Zero without an economy.
  virtual Money StandingRegret() const { return Money(); }

  /// Builds `key` in this scheme's cache, paying from its own account
  /// (cluster scale-in migrates surviving structures through this).
  /// Unimplemented for schemes without an economy.
  virtual Status AdoptStructure(const StructureKey& key, SimTime now) {
    (void)key;
    (void)now;
    return Status::FailedPrecondition("scheme cannot adopt structures");
  }

  /// Deposits a released node's remaining credit into this scheme's
  /// account (no-op without an account), conserving the cluster's books
  /// across scale-in.
  virtual void AbsorbCredit(Money amount, SimTime now) {
    (void)amount;
    (void)now;
  }

  /// Fills the cluster shape of SimMetrics at run end. The default leaves
  /// `out` untouched (ClusterMetrics::active stays false), so single-node
  /// runs never acquire a cluster footprint. Implementations must not
  /// touch `out->node_rent_dollars` — the simulator owns that field.
  virtual void DescribeCluster(ClusterMetrics* out) const { (void)out; }

  // --- Checkpoint surface. Every scheme MakeExperimentScheme builds
  // overrides all three with a bit-exact save -> restore -> continue round
  // trip; the defaults opt out (test doubles carry no restorable state),
  // and the simulator refuses to checkpoint a scheme that does not
  // support it rather than writing an empty section.

  /// Attaches a structured economic event tracer (nullptr detaches);
  /// `node_ordinal` stamps the records. Observability-only — attaching a
  /// tracer must never change a decision. The default ignores it (schemes
  /// without an economy emit no economic events); a cluster forwards to
  /// every node it operates, present and future.
  virtual void SetEventTracer(obs::EventTracer* tracer,
                              uint32_t node_ordinal) {
    (void)tracer;
    (void)node_ordinal;
  }

  /// Whether SaveState/RestoreState round-trip this scheme's full state.
  virtual bool SupportsCheckpoint() const { return false; }
  /// Serializes the scheme's complete run state (registry interning
  /// included — interning order is query-history-dependent).
  virtual void SaveState(persist::Encoder* enc) const { (void)enc; }
  /// Restores into a scheme freshly constructed from the identical
  /// configuration. On error the scheme is unusable; discard it.
  virtual Status RestoreState(persist::Decoder* dec) {
    (void)dec;
    return Status::FailedPrecondition(
        "scheme does not support checkpoint/restore");
  }
};

/// The four schemes of the paper's evaluation (Section VII-A).
enum class SchemeKind {
  kBypassYield,  // "net-only": bypass-yield caching [14].
  kEconCol,      // Economy, columns only (no indexes, no parallelism).
  kEconCheap,    // Economy, full structure set, cheapest-plan selection.
  kEconFast,     // Economy, full structure set, fastest-plan selection.
};

const char* SchemeKindToString(SchemeKind kind);

/// Wraps an EconomyEngine as a Scheme: synthesizes the user budget per
/// query from the back-end quote, forwards to the engine, and reports raw
/// resource usage of investments.
class EconScheme : public Scheme {
 public:
  struct Config {
    std::string name = "econ-cheap";
    EnumeratorOptions enumerator;
    EconomyOptions economy;
    BudgetModelOptions budget;
    uint64_t seed = 7;
    /// Tenant identities to provision. 0 (the default) is the paper's
    /// single user on exactly the pre-tenancy code path. Any n >= 1
    /// provisions n identities: per-tenant budget synthesizers (same
    /// shape knobs, independent jitter streams seeded
    /// MixSeed(seed, tenant); tenant 0 keeps `seed` itself, so its
    /// stream IS the classic user's) and per-tenant regret attribution
    /// in the engine. Once provisioned, every query's tenant_id must be
    /// in range.
    uint32_t tenants = 0;
    /// Per-tenant budget-shape overrides (requires tenants >= 1; each
    /// entry's tenant must be in range). Tenants without an entry keep
    /// the base `budget` shape.
    std::vector<TenantBudgetShape> tenant_budgets;
  };

  /// Presets matching the paper's variants.
  static Config EconColConfig();
  static Config EconCheapConfig();
  static Config EconFastConfig();

  EconScheme(const Catalog* catalog, const PriceList* decision_prices,
             const std::vector<StructureKey>& index_candidates,
             Config config);

  const std::string& name() const override { return config_.name; }
  ServedQuery OnQuery(const Query& query, SimTime now) override;
  const CacheState& cache() const override { return engine_->cache(); }
  Money credit() const override { return engine_->account().credit(); }
  Money TenantRegret(uint32_t tenant) const override {
    return engine_->TenantRegretTotal(tenant);
  }
  void ChargeExpenditure(Money amount, SimTime now) override;
  Money StandingRegret() const override { return engine_->regret().Total(); }
  Status AdoptStructure(const StructureKey& key, SimTime now) override {
    return engine_->ForceBuild(key, now);
  }
  void AbsorbCredit(Money amount, SimTime /*now*/) override {
    engine_->mutable_account().DepositRevenue(amount);
  }
  void SetEventTracer(obs::EventTracer* tracer,
                      uint32_t node_ordinal) override {
    engine_->SetEventTracer(tracer, node_ordinal);
  }
  bool SupportsCheckpoint() const override { return true; }
  void SaveState(persist::Encoder* enc) const override;
  Status RestoreState(persist::Decoder* dec) override;

  EconomyEngine& engine() { return *engine_; }
  const EconomyEngine& engine() const { return *engine_; }

 private:
  /// The snapshot field list, run by SaveState and RestoreState alike.
  template <typename Codec, typename Self>
  static void Fields(Codec& c, Self& self);
  Config config_;
  StructureRegistry registry_;
  CostModel model_;
  std::unique_ptr<EconomyEngine> engine_;
  /// Budget synthesizers, one per tenant (one in all for the classic
  /// single user), indexed like the jitter streams below: `budget`
  /// scaled by the tenant's override, if it has one.
  std::vector<BudgetModel> budget_models_;
  Rng rng_;
  /// Per-tenant budget jitter streams (config_.tenants > 1 only): tenant
  /// t's budgets are a pure function of MixSeed(config seed, t), so a
  /// tenant's willingness to pay does not depend on how the other streams
  /// interleave. Tenant 0 reuses `rng_`'s seed — the classic user.
  std::vector<Rng> tenant_rngs_;
  /// Reused pre-query column-residency snapshot (build-usage metering).
  std::vector<bool> residency_scratch_;
};

}  // namespace cloudcache
