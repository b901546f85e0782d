#pragma once

#include "src/econ/economy.h"

namespace cloudcache {

/// Test-only access to EconomyEngine's build-cost memo and its investable
/// regret max. Each read brings the value up to date exactly as a
/// production read does, so a pin can compare it with a fresh
/// CostModel::BuildCost or a brute-force ledger scan.
class EconomyEnginePeer {
 public:
  static Money MemoBuildCost(const EconomyEngine& engine, StructureId id) {
    return engine.MemoBuildCost(id).cost;
  }
  /// The memoized hypothetical charge: EvenShare(cost, horizon, 0).
  static Money MemoShare(const EconomyEngine& engine, StructureId id) {
    return engine.MemoBuildCost(id).share;
  }
  /// The largest global regret over investable entries, as MaybeInvest's
  /// O(1) Eq. 3 exit reads it.
  static Money InvestableMax(const EconomyEngine& engine) {
    return engine.InvestableMax();
  }
  /// True while `id` is under construction (build latency modeling).
  static bool IsPending(const EconomyEngine& engine, StructureId id) {
    return engine.IsPending(id);
  }
};

}  // namespace cloudcache
