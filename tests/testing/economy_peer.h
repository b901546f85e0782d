#pragma once

#include "src/econ/economy.h"

namespace cloudcache {

/// Test-only access to EconomyEngine's build-cost memo. Each read brings
/// the entry up to the residency epoch exactly as a production read does,
/// so a pin can compare it with a fresh CostModel::BuildCost.
class EconomyEnginePeer {
 public:
  static Money MemoBuildCost(const EconomyEngine& engine, StructureId id) {
    return engine.MemoBuildCost(id).cost;
  }
  /// The memoized hypothetical charge: EvenShare(cost, horizon, 0).
  static Money MemoShare(const EconomyEngine& engine, StructureId id) {
    return engine.MemoBuildCost(id).share;
  }
};

}  // namespace cloudcache
