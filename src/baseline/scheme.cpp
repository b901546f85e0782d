#include "src/baseline/scheme.h"

#include <algorithm>
#include <utility>

#include "src/util/logging.h"

namespace cloudcache {

BudgetFunction BudgetModel::Make(Money reference_price,
                                 double reference_seconds, Rng& rng) const {
  const double jitter =
      rng.NextUniform(-options_.jitter, options_.jitter);
  const double multiplier =
      std::max(0.0, options_.price_multiplier + jitter);
  const double t_max =
      std::max(1e-6, reference_seconds * options_.tmax_multiplier);
  return {options_.shape, reference_price * multiplier, t_max};
}

const char* SchemeKindToString(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kBypassYield:
      return "bypass";
    case SchemeKind::kEconCol:
      return "econ-col";
    case SchemeKind::kEconCheap:
      return "econ-cheap";
    case SchemeKind::kEconFast:
      return "econ-fast";
  }
  return "?";
}

EconScheme::Config EconScheme::EconColConfig() {
  Config config;
  config.name = "econ-col";
  config.enumerator.allow_indexes = false;
  config.enumerator.allow_parallel = false;
  config.enumerator.node_options = {1};
  config.economy.selection = PlanSelection::kCheapest;
  return config;
}

EconScheme::Config EconScheme::EconCheapConfig() {
  Config config;
  config.name = "econ-cheap";
  config.economy.selection = PlanSelection::kCheapest;
  return config;
}

EconScheme::Config EconScheme::EconFastConfig() {
  Config config;
  config.name = "econ-fast";
  config.economy.selection = PlanSelection::kFastest;
  return config;
}

EconScheme::EconScheme(const Catalog* catalog,
                       const PriceList* decision_prices,
                       const std::vector<StructureKey>& index_candidates,
                       Config config)
    : config_(std::move(config)),
      registry_(catalog),
      model_(catalog, decision_prices),
      rng_(config_.seed) {
  engine_ = std::make_unique<EconomyEngine>(
      catalog, &registry_, &model_, config_.enumerator, config_.economy);
  if (config_.enumerator.allow_indexes) {
    engine_->SetIndexCandidates(index_candidates);
  }
  if (config_.tenants >= 1) {
    tenant_rngs_.reserve(config_.tenants);
    for (uint32_t t = 0; t < config_.tenants; ++t) {
      tenant_rngs_.emplace_back(t == 0 ? config_.seed
                                       : MixSeed(config_.seed, t));
    }
    engine_->SetTenantCount(config_.tenants);
  }
  std::vector<BudgetModelOptions> shapes(
      std::max<uint32_t>(1, config_.tenants), config_.budget);
  for (const TenantBudgetShape& shape : config_.tenant_budgets) {
    // Overrides need tenant identities to attach to.
    CLOUDCACHE_CHECK_LT(shape.tenant, config_.tenants);
    shapes[shape.tenant].price_multiplier *= shape.price_scale;
    shapes[shape.tenant].tmax_multiplier *= shape.tmax_scale;
  }
  budget_models_.reserve(shapes.size());
  for (const BudgetModelOptions& options : shapes) {
    budget_models_.emplace_back(options);
  }
}

ServedQuery EconScheme::OnQuery(const Query& query, SimTime now) {
  // Quote the back-end plan; the synthetic user anchors her budget to it.
  PlanSpec backend;
  backend.access = PlanSpec::Access::kBackend;
  const ExecutionEstimate backend_est =
      model_.EstimateExecution(query, backend);
  // Once tenants are provisioned, a query from an unprovisioned tenant is
  // a wiring bug; serving it from another tenant's jitter stream would
  // silently break the per-tenant purity the config documents.
  if (!tenant_rngs_.empty()) {
    CLOUDCACHE_CHECK_LT(query.tenant_id, tenant_rngs_.size());
  }
  const size_t stream = tenant_rngs_.empty() ? 0 : query.tenant_id;
  Rng& budget_rng = tenant_rngs_.empty() ? rng_ : tenant_rngs_[stream];
  const BudgetFunction budget = budget_models_[stream].Make(
      backend_est.cost, backend_est.time_seconds, budget_rng);

  // Snapshot residency before the engine invests, so the reported build
  // usage reflects what actually had to be transferred. The snapshot
  // buffer is reused across queries (assignment recycles its storage).
  residency_scratch_ = engine_->cache().column_residency();

  QueryOutcome outcome = engine_->OnQuery(query, budget, now);

  ServedQuery out;
  out.served = outcome.served;
  if (outcome.served) {
    out.spec = std::move(outcome.chosen.spec);
    out.execution.time_seconds = outcome.chosen.time_seconds;
    out.payment = outcome.payment;
    out.profit = outcome.profit;
  }
  out.budget_case = outcome.budget_case;
  out.has_budget_case = true;
  out.throttled = outcome.throttled;
  out.investments = static_cast<uint32_t>(outcome.investments.size());
  out.evictions = static_cast<uint32_t>(outcome.evictions.size());
  std::vector<bool>& residency = residency_scratch_;
  for (StructureId id : outcome.investments) {
    const StructureKey& key = registry_.key(id);
    out.build_usage += model_.EstimateBuildUsage(key, residency);
    // Columns shipped by this build are present for subsequent builds.
    if (key.type == StructureType::kColumn) {
      residency[key.columns.front()] = true;
    } else if (key.type == StructureType::kIndex) {
      for (ColumnId col : key.columns) residency[col] = true;
    }
  }
  return out;
}

void EconScheme::ChargeExpenditure(Money amount, SimTime now) {
  engine_->OnTick(now);
  // The metered bill lands on the cloud account: the economy's revenue
  // must actually cover it for CR to grow.
  engine_->mutable_account().ChargeExpenditure(amount);
}

template <typename Codec, typename Self>
void EconScheme::Fields(Codec& c, Self& self) {
  // Registry first: the engine's ledgers validate structure ids against
  // it, and interning order is part of the run's state.
  c.Nested(self.registry_);
  c.Nested(*self.engine_);
  Rng::Fields(c, self.rng_);
  c.Seq(self.tenant_rngs_, [&c](auto& rng) { Rng::Fields(c, rng); });
}

void EconScheme::SaveState(persist::Encoder* enc) const {
  Fields(*enc, *this);
}

Status EconScheme::RestoreState(persist::Decoder* dec) {
  const size_t streams = tenant_rngs_.size();
  Fields(*dec, *this);
  CLOUDCACHE_RETURN_IF_ERROR(dec->status());
  if (tenant_rngs_.size() != streams) {
    return Status::FailedPrecondition(
        "snapshot has " + std::to_string(tenant_rngs_.size()) +
        " tenant budget streams but this run provisioned " +
        std::to_string(streams));
  }
  return Status::OK();
}

}  // namespace cloudcache
