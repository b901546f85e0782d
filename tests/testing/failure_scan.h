#pragma once

#include <vector>

#include "src/cache/cache_state.h"
#include "src/cache/candidate_pool.h"
#include "src/cache/maintenance.h"
#include "src/cost/cost_model.h"
#include "src/econ/account.h"
#include "src/econ/admission.h"
#include "src/econ/amortizer.h"
#include "src/econ/economy.h"
#include "src/econ/regret.h"
#include "src/persist/codec.h"
#include "src/util/logging.h"

namespace cloudcache::testing {

/// What a brute-force maintenance-failure scan predicts for one call.
struct FailurePrediction {
  /// Structures the scan evicts, in eviction order.
  std::vector<StructureId> evictions;
  /// How many of them were registered at zero build cost (columns shipped
  /// with an index, judged by their current rebuild cost).
  size_t zero_cost_evictions = 0;
  /// How many of them had a failure scale other than 1.0 applied.
  size_t scaled_evictions = 0;
};

/// The evictions `engine`'s next failure scan at `now` must make, found
/// the slow way: decode a snapshot of the engine's state, activate the
/// pending builds that are ready by `now`, then walk every resident in
/// ascending id order and apply footnote 3's exact test — owed rent
/// nonzero and above build cost x failure fraction (x failure scale under
/// tenant-weighted eviction), a zero recorded build cost replaced by the
/// rebuild cost at the residency left by the evictions before it. Only
/// the engine's public surface is read; the snapshot carries no deadline
/// index, so nothing of the engine's own scan takes part.
inline FailurePrediction PredictFailureEvictions(const EconomyEngine& engine,
                                                 StructureRegistry* registry,
                                                 const CostModel& model,
                                                 SimTime now) {
  const EconomyOptions& options = engine.options();
  persist::Encoder enc;
  engine.SaveState(&enc);
  persist::Decoder dec(enc.buffer().data(), enc.size());

  // Sections in EconomyEngine::SaveState order, up to the pending builds.
  CacheState cache(registry);
  CLOUDCACHE_CHECK(cache.RestoreState(&dec).ok());
  CandidatePool pool(options.candidate_pool_capacity);
  CLOUDCACHE_CHECK(pool.RestoreState(&dec, *registry).ok());
  MaintenanceLedger ledger(&model, options.maintenance_failure_fraction,
                           options.tenant_weighted_eviction);
  CLOUDCACHE_CHECK(ledger.RestoreState(&dec, *registry).ok());
  CloudAccount account(Money{});
  CLOUDCACHE_CHECK(account.RestoreState(&dec).ok());
  RegretLedger regret;
  CLOUDCACHE_CHECK(regret.RestoreState(&dec).ok());
  uint64_t tenants = 0;
  dec.Length(tenants);
  CLOUDCACHE_CHECK(dec.ok());
  for (uint64_t t = 0; t < tenants; ++t) {
    RegretLedger tenant;
    CLOUDCACHE_CHECK(tenant.RestoreState(&dec).ok());
  }
  AdmissionController admission(options.admission);
  admission.SetTenantCount(engine.admission().tenant_count());
  CLOUDCACHE_CHECK(admission.RestoreState(&dec).ok());
  Amortizer amortizer(options.amortization_horizon);
  CLOUDCACHE_CHECK(amortizer.RestoreState(&dec, *registry).ok());
  uint64_t pending = 0;
  dec.Length(pending);
  for (uint64_t i = 0; i < pending; ++i) {
    double ready_at = 0;
    StructureId id = 0;
    dec.F64(ready_at);
    dec.U32(id);
    CLOUDCACHE_CHECK(dec.ok());
    if (ready_at <= now) {
      CLOUDCACHE_CHECK(cache.Add(id, now).ok());
    }
  }

  FailurePrediction prediction;
  for (StructureId id : cache.Residents()) {
    if (!ledger.IsTracked(id)) continue;
    const Money owed = ledger.Owed(id, now);
    if (owed.IsZero()) continue;
    Money build_cost = ledger.BuildCostOf(id);
    const bool zero_cost = build_cost.IsZero();
    if (zero_cost) {
      build_cost = model.BuildCost(registry->key(id), cache.column_residency());
    }
    Money threshold = build_cost * options.maintenance_failure_fraction;
    const double scale = ledger.FailureScale(id);
    const bool scaled = options.tenant_weighted_eviction && scale != 1.0;
    if (scaled) threshold = threshold * scale;
    if (owed > threshold) {
      CLOUDCACHE_CHECK(cache.Remove(id).ok());
      prediction.evictions.push_back(id);
      prediction.zero_cost_evictions += zero_cost;
      prediction.scaled_evictions += scaled;
    }
  }
  return prediction;
}

}  // namespace cloudcache::testing
