#pragma once

#include <cstdint>
#include <vector>

#include "src/cache/cache_state.h"
#include "src/cache/candidate_pool.h"
#include "src/cache/maintenance.h"
#include "src/cost/cost_model.h"
#include "src/econ/account.h"
#include "src/econ/admission.h"
#include "src/econ/amortizer.h"
#include "src/econ/budget.h"
#include "src/econ/regret.h"
#include "src/plan/enumerator.h"
#include "src/plan/plan.h"
#include "src/plan/skyline.h"
#include "src/query/query.h"
#include "src/util/money.h"

namespace cloudcache {

namespace obs {
class EventTracer;
}  // namespace obs

class EconomyEnginePeer;

/// How the cloud picks among the affordable executable plans.
enum class PlanSelection {
  /// Section IV-C, cases B/C: minimize the cloud's gain
  /// B_Q(t_i) - B_PQ(t_i) — the altruistic default.
  kMinProfit,
  /// Section VII-A econ-cheap: "the plan with the least cost is chosen".
  kCheapest,
  /// Section VII-A econ-fast: "selects the query plan with the fastest
  /// response time".
  kFastest,
};

/// Which of the paper's three budget relationships a query fell into
/// (Fig. 2).
enum class BudgetCase { kCaseA, kCaseB, kCaseC };

const char* BudgetCaseToString(BudgetCase c);

/// Policy knobs of the economy.
struct EconomyOptions {
  /// a of Eq. 3: regret must reach this fraction of CR (after rounding)
  /// before the cloud invests; 0 < a < 1.
  double regret_fraction_a = 0.10;
  /// n of Eq. 7: queries a build cost is amortized over. Calibrated to the
  /// paper's million-SDSS-query workload: a column transfer is worth
  /// roughly 5,000-20,000 result shipments, so the amortized share only
  /// undercuts the back-end price at horizons of this order (the paper
  /// defers choosing n to future work; ablation A2 sweeps it).
  int64_t amortization_horizon = 50'000;
  /// "The cache provider is conservative and builds structures only when
  /// her profit exceeds the cost of building them" (Section VII-A): an
  /// investment requires the accumulated credit CR to fully cover the
  /// build cost (the account refuses overdrafts regardless; this guard
  /// refuses to spend credit the cloud does not have *now*).
  bool conservative_provider = true;
  /// A structure fails (is evicted) when its unpaid maintenance exceeds
  /// this fraction of its build cost (footnote 3's "structure failure").
  double maintenance_failure_fraction = 0.25;
  /// At most this many seconds of rent backlog is surcharged onto (and
  /// collected from) a single selected plan; see
  /// MaintenanceLedger::OwedCapped for why unbounded recovery would
  /// poison idle structures forever. Calibrated near the workload's
  /// inter-use gaps: large enough to recover steady-state rent, small
  /// enough that one surcharge never exceeds a query's cache savings.
  double maintenance_recovery_cap_seconds = 60.0;
  /// Capacity of the LRU candidate pool (Section IV-B).
  size_t candidate_pool_capacity = 512;
  /// Selection criterion among affordable executable plans.
  PlanSelection selection = PlanSelection::kCheapest;
  /// Seed credit so the very first investments are possible.
  Money initial_credit = Money::FromDollars(10.0);
  /// If true, a structure becomes usable only after its build latency
  /// (WAN transfer / sort / boot) has elapsed; if false, builds are
  /// instantaneous (the paper's economy does not model build latency).
  bool model_build_latency = true;
  /// Upper bound on extra CPU nodes the cloud will ever keep.
  uint32_t max_extra_nodes = 8;
  /// A structure that fails maintenance just proved it cannot repay its
  /// rent under the current workload; forfeiting its accumulated regret
  /// prevents an immediate, equally doomed rebuild. Disable to study the
  /// churn the paper's letter would produce.
  bool clear_regret_on_failure = true;
  /// If false, a query whose budget covers no plan (case A, user declines)
  /// is rejected instead of falling back to the cheapest executable plan.
  /// The paper's experiments have the user "accept query execution in the
  /// back-end", i.e. true.
  bool user_accepts_above_budget = true;

  // --- Tenant-economics policies (all inert by default, and inert
  // whenever tenant attribution is off, so the paper's single-stream
  // behavior is untouched).

  /// Weighs eviction by per-tenant regret attribution: structures whose
  /// backing regret spread broadly over tenants get failure-threshold
  /// slack (they outlive idle spells a single noisy tenant's structure
  /// would not), and candidate-pool aging prefers to forfeit the
  /// candidate whose regret is most concentrated in one tenant.
  bool tenant_weighted_eviction = false;
  /// Maximum widening of the maintenance-failure threshold: the
  /// threshold is scaled by 1 + slack * breadth, where breadth in [0, 1]
  /// is how evenly the regret that triggered the build spread over
  /// tenants (NormalizedBreadth). 0 disables the widening while keeping
  /// the pool-aging half of the policy.
  double eviction_breadth_slack = 1.0;
  /// How many of the candidate pool's coldest entries the tenant-aware
  /// aging policy considers when choosing a forfeiture victim.
  size_t eviction_aging_window = 8;
  /// Per-tenant admission control (throttles tenants whose accrued
  /// regret the economy cannot monetize); see AdmissionController.
  AdmissionOptions admission;
};

/// The executed plan as the outcome reports it, read from the plan set's
/// columns.
struct ChosenPlan {
  PlanSpec spec;
  /// Response time the plan guarantees.
  double time_seconds = 0;
  /// C = Ce + Ca (Eq. 4): the plan's advertised price.
  Money price;
};

/// Everything that happened while serving (or declining) one query.
struct QueryOutcome {
  bool served = false;
  BudgetCase budget_case = BudgetCase::kCaseB;
  /// The executed plan (meaningful only if served).
  ChosenPlan chosen;
  /// What the user paid: B_Q(t_i) in cases B/C, the plan price in case A.
  Money payment;
  /// payment - price of the chosen plan (non-negative).
  Money profit;
  /// Portions of the payment that repaid maintenance and amortized build
  /// cost of the structures the chosen plan employed.
  Money maintenance_collected;
  Money amortization_collected;
  /// Structures built, and structures evicted for maintenance failure,
  /// while handling this query.
  std::vector<StructureId> investments;
  std::vector<StructureId> evictions;
  /// Plan-space statistics (after skyline filtering).
  uint32_t num_plans = 0;
  uint32_t num_existing = 0;
  /// True when the serving tenant was under admission throttling while
  /// this query ran (the query was still served and billed normally; only
  /// its regret went unbooked).
  bool throttled = false;
};

/// The self-tuned economy of Section IV: prices plans, resolves the
/// budget-vs-cost cases, accumulates regret, and invests the cloud's
/// credit into new cache structures.
///
/// One engine instance owns the cache state, the accounts, and the ledgers
/// of a single cloud; drive it by calling OnQuery for every arriving query
/// in non-decreasing time order.
///
/// Invariant notes. (1) Epoch discipline: every residency mutation the
/// engine performs (investment activation, failure eviction, ForceBuild)
/// goes through CacheState::Add/Remove and therefore bumps the residency
/// epoch the plan-skeleton cache keys on — any new mutation path must do
/// the same. (2) Tenant-stream purity: with attribution on, every Eq. 1/2
/// contribution is booked to exactly one tenant ledger (the serving
/// tenant's), every global forget is mirrored into all tenant ledgers, and
/// admission forfeits subtract a tenant's exact entries from the global
/// ledger — so the tenant ledgers partition the global one at all times.
/// (3) Policy gating: tenant-weighted eviction and admission read tenant
/// attribution; with the options off (the defaults) or attribution off,
/// every decision is bit-identical to the pre-tenancy engine.
class EconomyEngine {
 public:
  EconomyEngine(const Catalog* catalog, StructureRegistry* registry,
                const CostModel* decision_model,
                EnumeratorOptions enumerator_options,
                EconomyOptions options);

  /// Registers the index advisor's candidate pool.
  void SetIndexCandidates(const std::vector<StructureKey>& candidates);

  /// Enables per-tenant regret attribution for `n` tenants (0 disables).
  ///
  /// The global ledger keeps driving every pricing and investment decision
  /// exactly as before — tenants share one cache, so Eq. 3 arbitrates
  /// their combined regret — but each Eq. 1/2 contribution is additionally
  /// booked to the ledger of the tenant whose query produced it, and every
  /// structure whose global regret is forgotten (invested in, failed, or
  /// aged out of the candidate pool) is forgotten in all tenant ledgers
  /// too. By construction the tenant ledgers partition the global one.
  void SetTenantCount(size_t n);
  size_t tenant_count() const { return tenant_regret_.size(); }
  /// Tenant `t`'s regret ledger; requires t < tenant_count().
  const RegretLedger& tenant_regret(size_t t) const;
  /// Sum of tenant `t`'s ledger (zero when attribution is off or `t` is
  /// out of range — callers can ask unconditionally).
  Money TenantRegretTotal(size_t t) const;

  /// The admission controller (inert unless options.admission.enabled and
  /// tenants are provisioned).
  const AdmissionController& admission() const { return admission_; }

  /// Attaches a structured economic event tracer (nullptr detaches).
  /// `node` stamps every record this engine emits — the node ordinal in a
  /// cluster, 0 otherwise. Tracing is observability-only: it reads
  /// decisions after they are made and never feeds back, so traced runs
  /// stay bit-identical to untraced ones.
  void SetEventTracer(obs::EventTracer* tracer, uint32_t node) {
    tracer_ = tracer;
    trace_node_ = node;
  }

  /// Serves one query with the user's budget function attached.
  QueryOutcome OnQuery(const Query& query, const BudgetFunction& budget,
                       SimTime now);

  /// The priced plan menu of `query` at `now`: the enumerator's plan set,
  /// whose Price(i) is C = Ce + Ca (Eq. 4). It reads the state as is —
  /// call OnTick(now) first to activate finished builds — and changes
  /// nothing but memos (pricing, the plan cache and its hit/miss
  /// counters). The set is valid until the next Quote or OnQuery.
  const PlanSet& Quote(const Query& query, SimTime now) const;

  /// Ca of one structure at `now`, as PriceCarriedCharges adds it to
  /// every plan employing it: a resident structure's pending Eq. 5-7
  /// share plus its capped owed rent (footnote 3), or a hypothetical
  /// structure's share of its build cost.
  Money CarriedCharge(StructureId id, SimTime now) const;

  /// Advances time-dependent state (build completions, maintenance
  /// failures) without serving a query.
  void OnTick(SimTime now);

  const CacheState& cache() const { return cache_; }
  CacheState& cache() { return cache_; }
  const CloudAccount& account() const { return account_; }
  CloudAccount& mutable_account() { return account_; }
  const RegretLedger& regret() const { return regret_; }
  const Amortizer& amortizer() const { return amortizer_; }
  const EconomyOptions& options() const { return options_; }
  const PlanEnumerator& enumerator() const { return enumerator_; }
  const CostModel& decision_model() const { return *model_; }

  /// Structures currently under construction (build latency modeling).
  size_t pending_builds() const { return pending_.size(); }

  /// Directly builds a structure, bypassing the investment policy (used
  /// by tests and by warm-start experiment setups). Charges the account.
  /// AlreadyExists if the structure is resident or under construction;
  /// companion columns already resident or under construction are left
  /// as they are.
  Status ForceBuild(const StructureKey& key, SimTime now);

  /// Checkpoint support. Serializes every piece of run state the engine
  /// owns: cache residency, candidate pool, maintenance clocks, account,
  /// the global and per-tenant regret ledgers, admission state, the
  /// amortizer, in-flight pending builds (in exact vector order — the
  /// activation loop's swap-remove makes order part of the state), and the
  /// tick-eviction backlog. Pricing memos and the plan-skeleton cache are
  /// pure functions of this state and rebuild lazily. RestoreState must
  /// run on an engine freshly constructed from the identical configuration
  /// (same catalog, candidates, tenant count, and policy options).
  void SaveState(persist::Encoder* enc) const;
  Status RestoreState(persist::Decoder* dec);

 private:
  /// Test-only reader of the build-cost memo (tests/testing/).
  friend class EconomyEnginePeer;

  struct PendingBuild {
    SimTime ready_at;
    StructureId id;
  };

  /// One skyline survivor as the settle stage reads it, gathered once
  /// from the plan set's columns.
  struct Survivor {
    size_t index;  // Plan index into the set.
    double time;
    Money price;
    /// B_Q(time), evaluated once per survivor.
    Money budget;
    bool existing;
    /// time <= t_max and budget >= price.
    bool affordable;
  };

  /// Moves finished pending builds into the cache.
  void ActivatePending(SimTime now);
  /// Writes the set's carried charges (Ca + owed maintenance): one base
  /// charge per family and the CPU-node prefix.
  void PriceCarriedCharges(PlanSet* set, SimTime now) const;
  /// Position in survivors_ of the affordable executable survivor the
  /// policy selects; requires at least one.
  size_t SelectPlan() const;
  /// Regret accounting for the rejected hypothetical survivors (Eq. 1/2).
  /// `chosen_index` is the executed plan's index into `set`, or SIZE_MAX
  /// when nothing was served.
  void AccumulateRegret(const PlanSet& set, size_t chosen_index,
                        BudgetCase budget_case);
  /// Checks Eq. 3 over all candidates and builds what qualifies.
  void MaybeInvest(SimTime now, QueryOutcome* outcome);
  /// Evicts structures whose unpaid maintenance exceeds the failure
  /// threshold.
  void EvictFailedStructures(SimTime now, QueryOutcome* outcome);
  /// One structure's memoized build cost at the current column residency.
  struct BuildCostMemo {
    /// Residency epoch + 1 the entry was last checked at; 0: never.
    uint64_t stamp = 0;
    /// CostModel::FixedBuildCost: computed once, never stale.
    Money fixed;
    /// fixed + CostModel::AbsentKeyColumnsCost at the stamp's epoch.
    Money cost;
    /// EvenShare(cost, horizon, 0): a hypothetical structure's Ca.
    Money share;
  };
  /// The memo entry of `id`, brought up to the residency epoch. Within an
  /// epoch it is one stamp compare; across epochs only an index's own
  /// absent key columns are re-added, and the share is recomputed only
  /// when the cost moved. Money is exact int64, so the regrouped sum is
  /// the same bits as CostModel::BuildCost. The invest path, the failure
  /// scan and every hypothetical carried charge read it.
  const BuildCostMemo& MemoBuildCost(StructureId id) const;
  /// Clears `id` from the global ledger and every tenant ledger.
  void ClearRegretEverywhere(StructureId id);
  /// How evenly `id`'s accrued regret spreads over the tenant ledgers,
  /// in [0, 1] (NormalizedBreadth over the per-tenant shares). 0 when
  /// attribution is off.
  double BackingBreadth(StructureId id) const;
  /// Removes tenant `t`'s standing regret from the global ledger and
  /// clears the tenant's ledger (admission throttling: the economy stops
  /// investing on the tenant's behalf).
  void ForfeitTenantRegret(uint32_t tenant);
  /// Executes plan `index` of `set`: payments, touches, maintenance
  /// shares, and the outcome's chosen plan.
  void SettleExecution(const PlanSet& set, size_t index, Money payment,
                       SimTime now, QueryOutcome* outcome);

  const Catalog* catalog_;
  StructureRegistry* registry_;
  const CostModel* model_;
  EconomyOptions options_;
  PlanEnumerator enumerator_;
  CacheState cache_;
  CandidatePool pool_;
  MaintenanceLedger maintenance_;
  CloudAccount account_;
  RegretLedger regret_;
  /// Per-tenant attribution ledgers (empty unless SetTenantCount enabled
  /// them); decisions read only the global ledger above.
  std::vector<RegretLedger> tenant_regret_;
  /// Ledger of the tenant whose query is currently being served (null
  /// when attribution is off) — set at the top of OnQuery so
  /// AccumulateRegret books contributions without re-deriving the tenant.
  RegretLedger* active_tenant_regret_ = nullptr;
  /// Admission control (decisions); the engine enforces them.
  AdmissionController admission_;
  /// Structured event trace (null when off) plus the node ordinal and the
  /// per-query context stamped onto every record. OnQuery refreshes the
  /// context at entry; OnTick-path events reuse the last query's id (the
  /// trace schema documents tick events as "between queries").
  obs::EventTracer* tracer_ = nullptr;
  uint32_t trace_node_ = 0;
  uint64_t trace_query_ = 0;
  uint32_t trace_tenant_ = 0;
  /// Tenant id of the query currently being served (meaningful only when
  /// attribution is on) and whether its regret is being suppressed.
  uint32_t active_tenant_ = 0;
  bool suppress_regret_ = false;
  /// Reused per-tenant share buffer for BackingBreadth.
  mutable std::vector<double> breadth_scratch_;
  Amortizer amortizer_;
  std::vector<PendingBuild> pending_;
  std::vector<bool> pending_flag_;  // Indexed by StructureId.
  /// Failure evictions that happened in OnTick (no outcome to report
  /// through); drained into the next OnQuery's outcome so metrics see
  /// every eviction.
  std::vector<StructureId> tick_evictions_;
  /// EvictFailedStructures' due list and its re-collected tail after an
  /// eviction, reused across scans.
  std::vector<StructureId> due_;
  std::vector<StructureId> due_tail_;
  /// Per-query scratch, reused across OnQuery calls: the skyline survivor
  /// indices, the skyline's frontier buffer, and the survivors' gathered
  /// columns. The decision path reads the enumerator's shared plan set in
  /// place; nothing of it outlives the query but the chosen plan's spec,
  /// time and price.
  std::vector<size_t> skyline_indices_;
  SkylineScratch skyline_scratch_;
  std::vector<Survivor> survivors_;
  /// PriceCarriedCharges memo: CarriedCharge per StructureId under a
  /// per-call tick.
  mutable uint64_t charge_tick_ = 0;
  mutable std::vector<uint64_t> charge_stamp_;
  mutable std::vector<Money> charge_value_;
  /// MemoBuildCost's entries, indexed by StructureId.
  mutable std::vector<BuildCostMemo> build_costs_;
};

}  // namespace cloudcache
