#include "src/econ/economy.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/econ/fairness.h"
#include "src/obs/stage_profile.h"
#include "src/obs/trace.h"
#include "src/plan/skyline.h"
#include "src/util/logging.h"

namespace cloudcache {

namespace {

/// How many of the candidate pool's coldest entries tenant-aware aging
/// considers when choosing a forfeiture victim.
constexpr size_t kEvictionAgingWindow = 8;

}  // namespace

const char* BudgetCaseToString(BudgetCase c) {
  switch (c) {
    case BudgetCase::kCaseA:
      return "A";
    case BudgetCase::kCaseB:
      return "B";
    case BudgetCase::kCaseC:
      return "C";
  }
  return "?";
}

EconomyEngine::EconomyEngine(const Catalog* catalog,
                             StructureRegistry* registry,
                             const CostModel* decision_model,
                             EnumeratorOptions enumerator_options,
                             EconomyOptions options)
    : catalog_(catalog),
      registry_(registry),
      model_(decision_model),
      options_(options),
      enumerator_(decision_model, registry, std::move(enumerator_options)),
      cache_(registry),
      pool_(options.candidate_pool_capacity),
      maintenance_(decision_model, options.maintenance_failure_fraction,
                   options.tenant_weighted_eviction),
      account_(options.initial_credit),
      admission_(options.admission),
      amortizer_(options.amortization_horizon) {
  CLOUDCACHE_CHECK_GT(options_.regret_fraction_a, 0.0);
  CLOUDCACHE_CHECK_LT(options_.regret_fraction_a, 1.0);
}

void EconomyEngine::SetIndexCandidates(
    const std::vector<StructureKey>& candidates) {
  enumerator_.SetIndexCandidates(candidates);
}

void EconomyEngine::SetTenantCount(size_t n) {
  tenant_regret_.assign(n, RegretLedger());
  active_tenant_regret_ = nullptr;
  suppress_regret_ = false;
  // Both policies need a population to arbitrate between: with fewer
  // than two tenants they stay fully inert, so a single provisioned
  // tenant (admission flag or not) remains bit-identical to the classic
  // path — a lone tenant must never throttle itself.
  admission_.SetTenantCount(n > 1 ? n : 0);
  // Tenant-aware pool aging only means something once at least two
  // ledgers exist; otherwise (or with the policy off) the pool stays
  // strict LRU — the pre-tenancy letter of Section IV-B.
  if (options_.tenant_weighted_eviction && n > 1) {
    pool_.SetVictimScorer(
        [this](StructureId id) { return BackingBreadth(id); },
        kEvictionAgingWindow);
  } else {
    pool_.SetVictimScorer(nullptr, 1);
  }
}

const RegretLedger& EconomyEngine::tenant_regret(size_t t) const {
  CLOUDCACHE_CHECK_LT(t, tenant_regret_.size());
  return tenant_regret_[t];
}

Money EconomyEngine::TenantRegretTotal(size_t t) const {
  if (t >= tenant_regret_.size()) return Money();
  return tenant_regret_[t].Total();
}

void EconomyEngine::ClearRegretEverywhere(StructureId id) {
  regret_.Clear(id);
  investable_stamp_ = 0;
  for (RegretLedger& ledger : tenant_regret_) ledger.Clear(id);
}

double EconomyEngine::BackingBreadth(StructureId id) const {
  if (tenant_regret_.size() < 2) return 0.0;
  breadth_scratch_.clear();
  for (const RegretLedger& ledger : tenant_regret_) {
    breadth_scratch_.push_back(ledger.Get(id).ToDollars());
  }
  return NormalizedBreadth(breadth_scratch_);
}

void EconomyEngine::ForfeitTenantRegret(uint32_t tenant) {
  // Subtracting the tenant's exact entries keeps the remaining tenant
  // ledgers a partition of the global one; per-entry subtraction
  // commutes, so the map's iteration order never reaches the metrics.
  RegretLedger& ledger = tenant_regret_[tenant];
  ledger.ForEachNonZero([this](StructureId id, Money amount) {
    regret_.Subtract(id, amount);
  });
  ledger = RegretLedger();
  investable_stamp_ = 0;
}

void EconomyEngine::ActivatePending(SimTime now) {
  for (size_t i = 0; i < pending_.size();) {
    if (pending_[i].ready_at <= now) {
      const StructureId id = pending_[i].id;
      CLOUDCACHE_CHECK(cache_.Add(id, now).ok());
      pending_flag_[id] = false;
      pending_[i] = pending_.back();
      pending_.pop_back();
    } else {
      ++i;
    }
  }
}

const EconomyEngine::BuildCostMemo& EconomyEngine::MemoBuildCost(
    StructureId id) const {
  if (id >= build_costs_.size()) build_costs_.resize(registry_->size());
  BuildCostMemo& memo = build_costs_[id];
  const uint64_t stamp = cache_.epoch() + 1;
  if (memo.stamp == stamp) return memo;
  const StructureKey& key = registry_->key(id);
  if (memo.stamp == 0) memo.fixed = model_->FixedBuildCost(key);
  const Money cost =
      memo.fixed +
      model_->AbsentKeyColumnsCost(key, cache_.column_residency());
  if (memo.stamp == 0 || cost != memo.cost) {
    memo.cost = cost;
    memo.share = EvenShare(cost, options_.amortization_horizon, 0);
  }
  memo.stamp = stamp;
  return memo;
}

Money EconomyEngine::InvestableMax() const {
  const uint64_t stamp = cache_.epoch() + 1;
  if (investable_stamp_ != stamp) {
    investable_max_ = Money();
    regret_.ForEachNonZero([this](StructureId id, Money amount) {
      if (amount > investable_max_ && Investable(id)) investable_max_ = amount;
    });
    investable_stamp_ = stamp;
  }
  return investable_max_;
}

Money EconomyEngine::CarriedCharge(StructureId id, SimTime now) const {
  if (cache_.IsResident(id)) {
    // Eq. 5-7 share plus the rent owed since the last payer (footnote 3),
    // capped per use.
    return amortizer_.PendingShare(id) +
           maintenance_.OwedCapped(id, now,
                                   options_.maintenance_recovery_cap_seconds);
  }
  // Hypothetical structure: advertise the share its build cost would
  // contribute to this plan's price if it existed.
  return MemoBuildCost(id).share;
}

void EconomyEngine::PriceCarriedCharges(PlanSet* set, SimTime now) const {
  // Per-structure charges repeat heavily across the plan set: a column
  // appears in the scan plan, every non-covering index plan, and all of
  // their node variants. Each is computed at most once per call, under a
  // per-call tick (a hypothetical structure's share of its build cost is
  // further memoized across queries, see MemoBuildCost). Charges are
  // summed per family, not per plan: every variant carries the family's
  // base structures plus a prefix of the set's CPU-node structures, and
  // PlanSet::Price adds the two where a price is read. Money is exact
  // int64, so the regrouped sums are bit-identical to summing each plan's
  // structure list.
  const uint64_t tick = ++charge_tick_;
  const size_t universe = registry_->size();
  if (charge_stamp_.size() < universe) {
    charge_stamp_.resize(universe, 0);
    charge_value_.resize(universe, Money());
  }
  const auto charge = [&](StructureId id) {
    if (charge_stamp_[id] != tick) {
      charge_stamp_[id] = tick;
      charge_value_[id] = CarriedCharge(id, now);
    }
    return charge_value_[id].micros();
  };
  for (size_t k = 0; k < set->cpu_node_ids.size(); ++k) {
    set->cpu_prefix_micros[k + 1] =
        set->cpu_prefix_micros[k] + charge(set->cpu_node_ids[k]);
  }
  for (size_t f = 0; f < set->families.size(); ++f) {
    const PlanFamily& family = set->families[f];
    const StructureId* structures =
        set->records[family.first].structures.data();
    int64_t base = 0;
    for (uint32_t k = 0; k < family.base_structures; ++k) {
      base += charge(structures[k]);
    }
    set->base_micros[f] = base;
  }
}

size_t EconomyEngine::SelectPlan() const {
  auto better = [&](const Survivor& a, const Survivor& b) {
    switch (options_.selection) {
      case PlanSelection::kMinProfit: {
        const Money gain_a = a.budget - a.price;
        const Money gain_b = b.budget - b.price;
        if (gain_a != gain_b) return gain_a < gain_b;
        break;
      }
      case PlanSelection::kCheapest:
        if (a.price != b.price) return a.price < b.price;
        break;
      case PlanSelection::kFastest:
        if (a.time != b.time) return a.time < b.time;
        break;
    }
    if (a.time != b.time) return a.time < b.time;
    if (a.price != b.price) return a.price < b.price;
    return a.index < b.index;
  };
  size_t best = std::numeric_limits<size_t>::max();
  for (size_t k = 0; k < survivors_.size(); ++k) {
    const Survivor& s = survivors_[k];
    if (!s.existing || !s.affordable) continue;
    if (best == std::numeric_limits<size_t>::max() ||
        better(s, survivors_[best])) {
      best = k;
    }
  }
  CLOUDCACHE_CHECK(best != std::numeric_limits<size_t>::max());
  return best;
}

void EconomyEngine::AccumulateRegret(const PlanSet& set, size_t chosen_index,
                                     BudgetCase budget_case) {
  // A throttled tenant's regret goes unbooked: neither ledger nor the
  // admission counters see it.
  if (suppress_regret_) return;
  // Reference price: the executed plan's, or — when nothing was served —
  // the cheapest executable plan the user was quoted.
  Money reference;
  bool have_reference = false;
  if (chosen_index != std::numeric_limits<size_t>::max()) {
    reference = set.Price(chosen_index);
    have_reference = true;
  } else {
    for (const Survivor& s : survivors_) {
      if (!s.existing) continue;
      if (!have_reference || s.price < reference) {
        reference = s.price;
        have_reference = true;
      }
    }
  }
  if (!have_reference) return;

  for (const Survivor& s : survivors_) {
    if (s.index == chosen_index) continue;
    if (s.existing) continue;  // Regret targets PQpos only.
    Money amount;
    switch (budget_case) {
      case BudgetCase::kCaseA:
        // Eq. 1: missed chance to serve more cheaply.
        if (s.price <= reference) amount = reference - s.price;
        break;
      case BudgetCase::kCaseB:
      case BudgetCase::kCaseC:
        // Eq. 2: missed profit, for the plans at least as expensive as the
        // chosen one (case C restricts to the affordable subset).
        if (budget_case == BudgetCase::kCaseC && !s.affordable) break;
        if (s.price >= reference) {
          amount = Money::Max(Money(), s.budget - s.price);
        }
        break;
    }
    if (!amount.IsZero()) {
      const std::vector<StructureId>& structures =
          set.records[s.index].structures;
      regret_.Distribute(structures, amount);
      // Only these entries grew, so a valid investable max stays exact.
      if (investable_stamp_ == cache_.epoch() + 1) {
        for (StructureId id : structures) {
          if (Investable(id)) {
            investable_max_ = Money::Max(investable_max_, regret_.Get(id));
          }
        }
      }
      // The same EvenShare split lands in the serving tenant's ledger, so
      // tenant ledgers always partition the global one exactly.
      if (active_tenant_regret_ != nullptr) {
        active_tenant_regret_->Distribute(structures, amount);
        admission_.RecordRegret(active_tenant_, amount);
      }
    }
  }
}

void EconomyEngine::SettleExecution(const PlanSet& set, size_t index,
                                    Money payment, SimTime now,
                                    QueryOutcome* outcome) {
  for (StructureId id : set.records[index].structures) {
    CLOUDCACHE_CHECK(cache_.IsResident(id));
    cache_.Touch(id, now);
    outcome->maintenance_collected += maintenance_.Pay(
        id, now, options_.maintenance_recovery_cap_seconds);
    outcome->amortization_collected += amortizer_.ChargeShare(id);
  }
  account_.DepositRevenue(payment);
  outcome->chosen.spec = set.records[index].spec;
  outcome->chosen.time_seconds = set.Time(index);
  outcome->chosen.price = set.Price(index);
  outcome->payment = payment;
  outcome->profit = payment - outcome->chosen.price;
  CLOUDCACHE_CHECK_GE(outcome->profit.micros(), 0);
  outcome->served = true;
}

void EconomyEngine::MaybeInvest(SimTime now, QueryOutcome* outcome) {
  // The credit CR, and with it a * CR, changes only when an investment
  // below withdraws from the account.
  Money credit = account_.credit();
  if (!credit.IsPositive()) return;
  Money scaled_credit = credit * options_.regret_fraction_a;

  // Eligibility for Eq. 3 at the current credit: Investable, InvestIn(S) =
  // round(regret_S / (a * CR)) >= 1, and a build cost CR covers ("the
  // cache provider is conservative", Section VII-A). The account refuses
  // the same overdrafts, so the cost test decides nothing, but it keeps an
  // unaffordable candidate from forcing the sorted pass below.
  const auto eligible = [&](StructureId id, Money regret_value) {
    return Investable(id) &&
           std::llround(regret_value.Ratio(scaled_credit)) >= 1 &&
           credit >= MemoBuildCost(id).cost;
  };

  // O(1) exit: Ratio and llround are monotone in the numerator and a
  // non-Investable entry fails `eligible` at any amount, so if the largest
  // Investable entry misses Eq. 3, none is eligible. Then one flat scan
  // decides whether any entry is, before the sorted view below. Skipping
  // the full pass is bit-identical: with no investment the credit never
  // changes, so every iteration would just `continue` (the memo is read at
  // the same epoch, so the cost test sees the same bits in both passes).
  if (scaled_credit.IsPositive() &&
      std::llround(InvestableMax().Ratio(scaled_credit)) < 1) {
    return;
  }
  if (!regret_.AnyNonZero(eligible)) return;

  for (const auto& [id, regret_value] : regret_.NonZeroDescending()) {
    // Once the credit is gone, no later entry can be invested in.
    if (!credit.IsPositive()) break;
    if (!eligible(id, regret_value)) continue;
    const Money build_cost = MemoBuildCost(id).cost;
    if (!account_.WithdrawInvestment(build_cost).ok()) continue;
    credit = account_.credit();
    scaled_credit = credit * options_.regret_fraction_a;

    const std::vector<StructureId> built = BuildSet(id);
    const StructureKey& key = registry_->key(id);

    const double ready_at =
        options_.model_build_latency
            ? now + model_->BuildSeconds(key, cache_.column_residency())
            : now;
    // Tenant-aware eviction: a structure whose triggering regret spread
    // broadly over tenants earns failure-threshold slack; companion
    // columns ride the index's backing. Computed before the ledgers
    // forget the regret below.
    const double failure_scale =
        options_.tenant_weighted_eviction ? 1.0 + BackingBreadth(id) : 1.0;
    for (StructureId built_id : built) {
      const Money recorded_cost =
          built_id == id ? build_cost : Money();  // Columns ride the index.
      if (options_.model_build_latency) {
        if (built_id >= pending_flag_.size()) {
          pending_flag_.resize(built_id + 1, false);
        }
        pending_flag_[built_id] = true;
        investable_stamp_ = 0;
        pending_.push_back(PendingBuild{ready_at, built_id});
      } else {
        CLOUDCACHE_CHECK(cache_.Add(built_id, now).ok());
      }
      maintenance_.Register(built_id, registry_->key(built_id),
                            ready_at, recorded_cost, failure_scale);
      // This regret is the kind admission can monetize: it turned into a
      // structure. Book each tenant's share before it is forgotten (a
      // later maintenance failure hands the shares back).
      if (admission_.enabled()) {
        for (size_t t = 0; t < tenant_regret_.size(); ++t) {
          admission_.RecordMonetized(static_cast<uint32_t>(t), built_id,
                                     tenant_regret_[t].Get(built_id));
        }
      }
      ClearRegretEverywhere(built_id);
      pool_.Erase(built_id);
    }
    amortizer_.RegisterBuild(id, build_cost);
    outcome->investments.push_back(id);
    if (tracer_ != nullptr) {
      tracer_->Event("invest", trace_query_, now, trace_tenant_, trace_node_)
          .U64("structure", id)
          .Str("key", registry_->key(id).ToString(*catalog_))
          .F64("build_cost_dollars", build_cost.ToDollars())
          .F64("ready_at", ready_at)
          .U64("companions", built.size() - 1);
    }
  }
}

void EconomyEngine::EvictFailedStructures(SimTime now,
                                          QueryOutcome* outcome) {
  // This runs up to three times per query. The ledger's deadline heap
  // names the clocks whose failure is possible at `now` (a superset of the
  // ones that fail); they are judged by the exact test in ascending id
  // order, as a walk over every resident would judge them. Most calls find
  // nothing due and stop at a peek.
  const auto build_cost_now = [this](StructureId id) {
    return MemoBuildCost(id).cost;
  };
  maintenance_.CollectDue(now, cache_.epoch(), build_cost_now, &due_);
  for (size_t i = 0; i < due_.size(); ++i) {
    const StructureId id = due_[i];
    if (!cache_.IsResident(id)) continue;
    Money build_cost = maintenance_.BuildCostOf(id);
    if (build_cost.IsZero()) {
      // Column shipped as part of an index build: judge it by what it
      // would cost to rebuild on its own.
      build_cost = MemoBuildCost(id).cost;
    }
    Money owed;
    Money threshold;
    if (!maintenance_.Fails(id, now, build_cost, &owed, &threshold)) continue;
    CLOUDCACHE_CHECK(cache_.Remove(id).ok());
    maintenance_.Unregister(id, now);
    amortizer_.Cancel(id);
    // A failed build wasted the regret that backed it: admission hands
    // the backers' monetized shares back to unmonetized. The structure
    // just proved it cannot repay its rent under the current workload, so
    // its regret is forfeited too, which prevents an immediate, equally
    // doomed rebuild.
    admission_.OnStructureFailed(id);
    ClearRegretEverywhere(id);
    if (outcome != nullptr) {
      outcome->evictions.push_back(id);
    } else {
      tick_evictions_.push_back(id);
    }
    if (tracer_ != nullptr) {
      tracer_->Event("evict", trace_query_, now, trace_tenant_, trace_node_)
          .U64("structure", id)
          .Str("key", registry_->key(id).ToString(*catalog_))
          .Str("reason", "maintenance")
          .F64("owed_dollars", owed.ToDollars())
          .F64("threshold_dollars", threshold.ToDollars());
    }
    // The Remove moved the residency epoch, and with it the thresholds of
    // zero-cost clocks: the ids still to come are re-collected at the new
    // epoch.
    maintenance_.CollectDue(now, cache_.epoch(), build_cost_now, &due_tail_,
                            id);
    due_.resize(i + 1);
    due_.insert(due_.end(), due_tail_.begin(), due_tail_.end());
  }
}

void EconomyEngine::OnTick(SimTime now) {
  ActivatePending(now);
  EvictFailedStructures(now, nullptr);
}

std::vector<StructureId> EconomyEngine::BuildSet(StructureId id) {
  std::vector<StructureId> built = {id};
  if (registry_->key(id).type != StructureType::kIndex) return built;
  // Building an index also ships its absent key columns into the cache
  // (their BuildT is inside Eq. 14), so they materialize alongside it.
  // Intern may grow the registry, so the key is re-read per column.
  for (size_t k = 0; k < registry_->key(id).columns.size(); ++k) {
    const ColumnId col = registry_->key(id).columns[k];
    if (cache_.ColumnResident(col)) continue;
    const StructureId col_id = registry_->Intern(ColumnKey(*catalog_, col));
    if (!cache_.IsResident(col_id) && !IsPending(col_id)) {
      built.push_back(col_id);
    }
  }
  return built;
}

Status EconomyEngine::ForceBuild(const StructureKey& key, SimTime now) {
  const StructureId id = registry_->Intern(key);
  // A structure under construction already has its clock and will join
  // the cache when its build completes.
  if (cache_.IsResident(id) || IsPending(id)) {
    return Status::AlreadyExists(key.ToString(*catalog_));
  }
  const Money build_cost = model_->BuildCost(key, cache_.column_residency());
  CLOUDCACHE_RETURN_IF_ERROR(account_.WithdrawInvestment(build_cost));
  for (StructureId built_id : BuildSet(id)) {
    CLOUDCACHE_RETURN_IF_ERROR(cache_.Add(built_id, now));
    maintenance_.Register(built_id, registry_->key(built_id), now,
                          built_id == id ? build_cost : Money());
  }
  amortizer_.RegisterBuild(id, build_cost);
  ClearRegretEverywhere(id);
  pool_.Erase(id);
  return Status::OK();
}

QueryOutcome EconomyEngine::OnQuery(const Query& query,
                                    const BudgetFunction& budget,
                                    SimTime now) {
  QueryOutcome outcome;
  trace_query_ = query.id;
  trace_tenant_ = query.tenant_id;
  if (tenant_regret_.empty()) {
    active_tenant_regret_ = nullptr;
    suppress_regret_ = false;
  } else {
    // With attribution on, silently dropping an out-of-range tenant's
    // regret would break the ledgers-partition-the-global invariant.
    CLOUDCACHE_CHECK_LT(query.tenant_id, tenant_regret_.size());
    active_tenant_ = query.tenant_id;
    active_tenant_regret_ = &tenant_regret_[query.tenant_id];
    // Admission: re-evaluate the serving tenant's throttle state. The
    // moment a tenant trips the throttle its standing regret is forfeited
    // from the shared ledger, so Eq. 3 stops investing on its behalf;
    // while throttled, this query's regret goes unbooked (the query
    // itself is served and billed exactly as before).
    bool newly_throttled = false;
    const bool was_throttled = query.tenant_id < admission_.tenant_count() &&
                               admission_.throttled(query.tenant_id);
    suppress_regret_ =
        admission_.Throttled(query.tenant_id, &newly_throttled);
    if (newly_throttled) {
      ForfeitTenantRegret(query.tenant_id);
    }
    outcome.throttled = suppress_regret_;
    if (tracer_ != nullptr) {
      if (newly_throttled) {
        tracer_->Event("throttle", trace_query_, now, trace_tenant_,
                       trace_node_);
      } else if (was_throttled && !suppress_regret_) {
        tracer_->Event("readmit", trace_query_, now, trace_tenant_,
                       trace_node_);
      }
    }
  }
  outcome.evictions = std::move(tick_evictions_);
  tick_evictions_.clear();
  ActivatePending(now);
  EvictFailedStructures(now, &outcome);

  // The whole decision pipeline below runs on reused buffers: the
  // enumerator's shared per-template plan set, whose hot columns Quote
  // rewrites for this query, plus the economy's survivor scratch. The
  // skyline yields survivor INDICES into that set, and every downstream
  // step reads its columns; the outcome gets the chosen plan's spec, time
  // and price.
  const PlanSet& set = Quote(query, now);
  {
    obs::ScopedStageTimer timer(obs::Stage::kSkyline);
    SkylineIndicesInto(set, &skyline_indices_, &skyline_scratch_);
  }
  // Everything below — affordability, selection, settlement, regret, and
  // investment — is the settle stage; the timer runs to return.
  obs::ScopedStageTimer settle_timer(obs::Stage::kSettle);
  outcome.num_plans = static_cast<uint32_t>(skyline_indices_.size());

  // One pass over the survivors (in skyline order, so every downstream
  // tie-break is unchanged) keeps the candidate pool's LRU clock fresh for
  // every hypothetical structure that appeared in a plan — candidates that
  // fall off the cold end forfeit their regret (Section IV-B) — and
  // gathers each survivor's columns, evaluating B_Q once per survivor and
  // classifying its affordability once.
  survivors_.clear();
  size_t existing_count = 0;
  size_t affordable_count = 0;
  size_t affordable_existing = 0;
  for (size_t idx : skyline_indices_) {
    Survivor s;
    s.index = idx;
    s.existing = set.existing[idx] != 0;
    if (!s.existing) {
      for (StructureId id : set.records[idx].missing) {
        for (StructureId evicted : pool_.Touch(id, now)) {
          ClearRegretEverywhere(evicted);
        }
      }
    }
    s.time = set.Time(idx);
    s.price = set.Price(idx);
    s.budget = budget.At(s.time);
    s.affordable = !(s.time > budget.t_max) && s.budget >= s.price;
    existing_count += s.existing;
    affordable_count += s.affordable;
    affordable_existing += s.existing && s.affordable;
    survivors_.push_back(s);
  }
  outcome.num_existing = static_cast<uint32_t>(existing_count);
  CLOUDCACHE_CHECK_GT(existing_count, 0u);  // The backend plan always exists.

  // Classify the relationship between B_Q and B_PQ (Fig. 2). Case A is
  // the paper's "Q cannot be served according to the user's defined
  // budget": no *executable* plan is affordable (a hypothetical plan that
  // would be affordable if built cannot serve the query today, and its
  // missed cheapness is exactly what Eq. 1's regret records).
  if (affordable_existing == 0) {
    outcome.budget_case = BudgetCase::kCaseA;
  } else if (affordable_count == survivors_.size()) {
    outcome.budget_case = BudgetCase::kCaseB;
  } else {
    outcome.budget_case = BudgetCase::kCaseC;
  }

  size_t chosen = std::numeric_limits<size_t>::max();
  if (affordable_existing > 0) {
    // Cases B and C: pick per the policy and collect B_Q(t_i).
    const Survivor& pick = survivors_[SelectPlan()];
    chosen = pick.index;
    SettleExecution(set, chosen, pick.budget, now, &outcome);
  } else if (options_.user_accepts_above_budget) {
    // Case A (or C with no affordable executable plan): the user is shown
    // the menu and — per the paper's experimental setup — accepts the
    // cheapest executable offer at its quoted price. No profit.
    const Survivor* cheapest = nullptr;
    for (const Survivor& s : survivors_) {
      if (s.existing && (cheapest == nullptr || s.price < cheapest->price)) {
        cheapest = &s;
      }
    }
    chosen = cheapest->index;
    SettleExecution(set, chosen, cheapest->price, now, &outcome);
  }

  if (outcome.served && active_tenant_regret_ != nullptr) {
    admission_.RecordRevenue(active_tenant_, outcome.payment);
  }
  AccumulateRegret(set, chosen, outcome.budget_case);
  MaybeInvest(now, &outcome);
  return outcome;
}

const PlanSet& EconomyEngine::Quote(const Query& query, SimTime now) const {
  PlanSet* set;
  {
    obs::ScopedStageTimer timer(obs::Stage::kEnumerate);
    set = enumerator_.EnumerateShared(query, cache_);
  }
  {
    obs::ScopedStageTimer timer(obs::Stage::kPrice);
    PriceCarriedCharges(set, now);
  }
  return *set;
}

template <typename Codec, typename Self>
void EconomyEngine::Fields(Codec& c, Self& self) {
  const StructureRegistry& registry = *self.registry_;
  c.Nested(self.cache_);
  c.Nested(self.pool_, registry);
  c.Nested(self.maintenance_, registry);
  c.Nested(self.account_);
  c.Nested(self.regret_);
  c.Seq(self.tenant_regret_, [&c](auto& ledger) { c.Nested(ledger); });
  c.Nested(self.admission_);
  c.Nested(self.amortizer_, registry);
  c.Seq(self.pending_, [&c](auto& build) {
    c.F64(build.ready_at);
    c.U32(build.id);
  });
  c.Seq(self.tick_evictions_, [&c](auto& id) { c.U32(id); });
}

void EconomyEngine::SaveState(persist::Encoder* enc) const {
  Fields(*enc, *this);
}

Status EconomyEngine::RestoreState(persist::Decoder* dec) {
  const size_t tenants = tenant_regret_.size();
  Fields(*dec, *this);
  CLOUDCACHE_RETURN_IF_ERROR(dec->status());
  if (tenant_regret_.size() != tenants) {
    return Status::FailedPrecondition(
        "snapshot has " + std::to_string(tenant_regret_.size()) +
        " tenant regret ledgers but this run provisioned " +
        std::to_string(tenants));
  }
  Money tenant_total;
  for (const RegretLedger& ledger : tenant_regret_) {
    tenant_total += ledger.Total();
  }
  // The tenant ledgers partition the global ledger whenever attribution is
  // on (engine invariant 2); a snapshot that violates it was not written
  // by this engine.
  if (!tenant_regret_.empty() && tenant_total != regret_.Total()) {
    return Status::InvalidArgument(
        "snapshot tenant regret ledgers do not partition the global ledger");
  }
  pending_flag_.assign(registry_->size(), false);
  for (const PendingBuild& build : pending_) {
    if (build.id >= registry_->size()) {
      return Status::InvalidArgument(
          "snapshot pending build names unknown structure id " +
          std::to_string(build.id));
    }
    if (pending_flag_[build.id]) {
      return Status::InvalidArgument(
          "snapshot pending build repeats structure id " +
          std::to_string(build.id));
    }
    pending_flag_[build.id] = true;
  }
  for (StructureId id : tick_evictions_) {
    if (id >= registry_->size()) {
      return Status::InvalidArgument(
          "snapshot tick eviction names unknown structure id " +
          std::to_string(id));
    }
  }

  // Drop every pricing memo. Their stamp discipline (epoch + 1 / a per-call
  // tick, 0 meaning "never computed") makes an empty memo bit-identical to
  // a warm one — the next lookup recomputes from the restored state.
  charge_tick_ = 0;
  charge_stamp_.clear();
  charge_value_.clear();
  build_costs_.clear();
  investable_stamp_ = 0;
  active_tenant_regret_ = nullptr;
  active_tenant_ = 0;
  suppress_regret_ = false;
  return Status::OK();
}

}  // namespace cloudcache
