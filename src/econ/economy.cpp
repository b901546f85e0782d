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
  CLOUDCACHE_CHECK_GE(options_.eviction_breadth_slack, 0.0);
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
        options_.eviction_aging_window);
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
    // A throttled tenant's contribution is scaled down (to zero by
    // default) before any booking, so both ledgers and the admission
    // counters see the same reduced amount.
    if (suppress_regret_) {
      amount = amount * options_.admission.throttled_regret_scale;
    }
    if (!amount.IsZero()) {
      const std::vector<StructureId>& structures =
          set.records[s.index].structures;
      regret_.Distribute(structures, amount);
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
  const Money credit = account_.credit();
  if (!credit.IsPositive()) return;

  // Fast path: Eq. 3 fires only when some eligible structure's standing
  // regret clears round(regret / (a * CR)) >= 1 — and, for a conservative
  // provider, only when the credit also covers that structure's build
  // cost. One flat ledger scan decides that before paying for the sorted
  // descending view below. Skipping the full pass when nothing qualifies
  // is bit-identical: with no investment the credit — and with it every
  // per-entry check — never changes across the loop, so every iteration
  // would just `continue` with no side effects. The affordability check
  // mirrors the loop's conservative guard exactly (same epoch, so the
  // memoized build cost is the same bits); without it, one standing
  // high-regret-but-unaffordable candidate would force the full sorted
  // pass on every query.
  const Money scaled_credit = credit * options_.regret_fraction_a;
  // Before that scan, an O(1) exit: Ratio and llround are monotone in the
  // numerator, so if the largest entry misses Eq. 3, every entry does.
  if (scaled_credit.IsPositive() &&
      std::llround(regret_.MaxAmount().Ratio(scaled_credit)) < 1) {
    return;
  }
  const bool any_candidate =
      regret_.AnyNonZero([&](StructureId id, Money regret_value) {
        if (cache_.IsResident(id)) return false;
        if (id < pending_flag_.size() && pending_flag_[id]) return false;
        const StructureKey& key = registry_->key(id);
        if (key.type == StructureType::kCpuNode) {
          if (key.ordinal >= options_.max_extra_nodes) return false;
          if (key.ordinal > cache_.extra_cpu_nodes()) return false;
        }
        if (std::llround(regret_value.Ratio(scaled_credit)) < 1) {
          return false;
        }
        if (options_.conservative_provider &&
            credit < MemoBuildCost(id).cost) {
          return false;
        }
        return true;
      });
  if (!any_candidate) return;

  for (const auto& [id, regret_value] : regret_.NonZeroDescending()) {
    if (cache_.IsResident(id)) continue;
    if (id < pending_flag_.size() && pending_flag_[id]) continue;

    const StructureKey& key = registry_->key(id);
    if (key.type == StructureType::kCpuNode) {
      if (key.ordinal >= options_.max_extra_nodes) continue;
      // Boot nodes in ordinal order so multi-node plans become executable.
      if (key.ordinal > cache_.extra_cpu_nodes()) continue;
    }

    // Eq. 3: InvestIn(S) = round(regret_S / (a * CR)) >= 1.
    const Money current_credit = account_.credit();
    if (!current_credit.IsPositive()) break;
    const double invest_in =
        regret_value.Ratio(current_credit * options_.regret_fraction_a);
    if (std::llround(invest_in) < 1) continue;

    const Money build_cost = MemoBuildCost(id).cost;
    if (options_.conservative_provider && current_credit < build_cost) {
      continue;  // Never gamble credit the cloud does not have.
    }
    if (!account_.WithdrawInvestment(build_cost).ok()) continue;

    // Building an index also ships its absent key columns into the cache
    // (their BuildT is inside Eq. 14), so they materialize alongside it.
    std::vector<StructureId> built = {id};
    if (key.type == StructureType::kIndex) {
      for (ColumnId col : key.columns) {
        if (!cache_.ColumnResident(col)) {
          const StructureId col_id =
              registry_->Intern(ColumnKey(*catalog_, col));
          if (!cache_.IsResident(col_id) &&
              !(col_id < pending_flag_.size() && pending_flag_[col_id])) {
            built.push_back(col_id);
          }
        }
      }
    }

    const double ready_at =
        options_.model_build_latency
            ? now + model_->BuildSeconds(key, cache_.column_residency())
            : now;
    // Tenant-aware eviction: a structure whose triggering regret spread
    // broadly over tenants earns failure-threshold slack; companion
    // columns ride the index's backing. Computed before the ledgers
    // forget the regret below.
    const double failure_scale =
        options_.tenant_weighted_eviction
            ? 1.0 + options_.eviction_breadth_slack * BackingBreadth(id)
            : 1.0;
    for (StructureId built_id : built) {
      const Money recorded_cost =
          built_id == id ? build_cost : Money();  // Columns ride the index.
      if (options_.model_build_latency) {
        if (built_id >= pending_flag_.size()) {
          pending_flag_.resize(built_id + 1, false);
        }
        pending_flag_[built_id] = true;
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
    // the backers' monetized shares back to unmonetized.
    admission_.OnStructureFailed(id);
    if (options_.clear_regret_on_failure) ClearRegretEverywhere(id);
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

Status EconomyEngine::ForceBuild(const StructureKey& key, SimTime now) {
  const StructureId id = registry_->Intern(key);
  const auto pending = [this](StructureId sid) {
    return sid < pending_flag_.size() && pending_flag_[sid];
  };
  // A structure under construction already has its clock and will join
  // the cache when its build completes.
  if (cache_.IsResident(id) || pending(id)) {
    return Status::AlreadyExists(key.ToString(*catalog_));
  }
  const Money build_cost = model_->BuildCost(key, cache_.column_residency());
  CLOUDCACHE_RETURN_IF_ERROR(account_.WithdrawInvestment(build_cost));
  std::vector<StructureId> built = {id};
  if (key.type == StructureType::kIndex) {
    for (ColumnId col : key.columns) {
      if (!cache_.ColumnResident(col)) {
        built.push_back(registry_->Intern(ColumnKey(*catalog_, col)));
      }
    }
  }
  for (StructureId built_id : built) {
    if (cache_.IsResident(built_id) || pending(built_id)) continue;
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
    if (newly_throttled && options_.admission.forfeit_standing_regret) {
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
  // gathers each survivor's columns, evaluating B_Q once per survivor
  // (a virtual call) and classifying its affordability once.
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
    s.affordable = !(s.time > budget.t_max()) && s.budget >= s.price;
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

void EconomyEngine::SaveState(persist::Encoder* enc) const {
  cache_.SaveState(enc);
  pool_.SaveState(enc);
  maintenance_.SaveState(enc);
  account_.SaveState(enc);
  regret_.SaveState(enc);
  enc->PutU64(tenant_regret_.size());
  for (const RegretLedger& ledger : tenant_regret_) ledger.SaveState(enc);
  admission_.SaveState(enc);
  amortizer_.SaveState(enc);
  enc->PutU64(pending_.size());
  for (const PendingBuild& build : pending_) {
    enc->PutDouble(build.ready_at);
    enc->PutU32(build.id);
  }
  enc->PutU64(tick_evictions_.size());
  for (StructureId id : tick_evictions_) enc->PutU32(id);
}

Status EconomyEngine::RestoreState(persist::Decoder* dec) {
  CLOUDCACHE_RETURN_IF_ERROR(cache_.RestoreState(dec));
  CLOUDCACHE_RETURN_IF_ERROR(pool_.RestoreState(dec));
  CLOUDCACHE_RETURN_IF_ERROR(maintenance_.RestoreState(dec, *registry_));
  CLOUDCACHE_RETURN_IF_ERROR(account_.RestoreState(dec));
  CLOUDCACHE_RETURN_IF_ERROR(regret_.RestoreState(dec));
  uint64_t tenant_count = 0;
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadLength(&tenant_count));
  if (tenant_count != tenant_regret_.size()) {
    return Status::FailedPrecondition(
        "snapshot has " + std::to_string(tenant_count) +
        " tenant regret ledgers but this run provisioned " +
        std::to_string(tenant_regret_.size()));
  }
  Money tenant_total;
  for (RegretLedger& ledger : tenant_regret_) {
    CLOUDCACHE_RETURN_IF_ERROR(ledger.RestoreState(dec));
    tenant_total += ledger.Total();
  }
  // The tenant ledgers partition the global ledger whenever attribution is
  // on (engine invariant 2); a snapshot that violates it was not written
  // by this engine.
  if (!tenant_regret_.empty() && tenant_total != regret_.Total()) {
    return Status::InvalidArgument(
        "snapshot tenant regret ledgers do not partition the global ledger");
  }
  CLOUDCACHE_RETURN_IF_ERROR(admission_.RestoreState(dec));
  CLOUDCACHE_RETURN_IF_ERROR(amortizer_.RestoreState(dec));

  pending_.clear();
  pending_flag_.assign(registry_->size(), false);
  uint64_t pending_count = 0;
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadLength(&pending_count));
  for (uint64_t i = 0; i < pending_count; ++i) {
    PendingBuild build;
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadDouble(&build.ready_at));
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU32(&build.id));
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
    pending_.push_back(build);
  }
  tick_evictions_.clear();
  uint64_t eviction_count = 0;
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadLength(&eviction_count));
  for (uint64_t i = 0; i < eviction_count; ++i) {
    StructureId id = 0;
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU32(&id));
    if (id >= registry_->size()) {
      return Status::InvalidArgument(
          "snapshot tick eviction names unknown structure id " +
          std::to_string(id));
    }
    tick_evictions_.push_back(id);
  }

  // Drop every pricing memo. Their stamp discipline (epoch + 1 / a per-call
  // tick, 0 meaning "never computed") makes an empty memo bit-identical to
  // a warm one — the next lookup recomputes from the restored state.
  charge_tick_ = 0;
  charge_stamp_.clear();
  charge_value_.clear();
  build_costs_.clear();
  active_tenant_regret_ = nullptr;
  active_tenant_ = 0;
  suppress_regret_ = false;
  return Status::OK();
}

}  // namespace cloudcache
