#pragma once

#include <vector>

#include "src/persist/codec.h"
#include "src/structure/structure.h"
#include "src/util/money.h"

namespace cloudcache {

/// Amortization of structure build cost over prospective queries
/// (Eq. 5-7): "the initial building cost of S is amortized equally to the
/// n queries that use S, thus f_S(n, Build_S(S)) = Build_S(S)/n."
///
/// When a structure is built, its cost is split into `horizon` equal
/// shares (exactly, via EvenShare). Every selected plan that employs the
/// structure is charged the next outstanding share — PendingShare() is
/// what plan pricing adds as Ca(S), ChargeShare() consumes it — until all
/// shares are repaid, after which the structure rides free. The horizon n
/// is a policy knob: "Selecting n is a challenging problem in itself …
/// we intend to study this problem in future research" (the A2 ablation
/// sweeps it).
class Amortizer {
 public:
  /// `horizon` = n of Eq. 7; must be >= 1.
  explicit Amortizer(int64_t horizon);

  /// Starts amortizing a freshly built structure. Re-registering an id
  /// restarts its schedule (rebuild after eviction).
  void RegisterBuild(StructureId id, Money build_cost);

  /// The share the next plan employing `id` will be charged; zero once
  /// fully amortized or for unknown structures.
  Money PendingShare(StructureId id) const;

  /// Charges and consumes the next share. Returns the charged amount.
  Money ChargeShare(StructureId id);

  /// Stops amortizing (structure evicted). Returns the unrecovered
  /// remainder — the sunk cost the cloud failed to repay itself — as
  /// EvenShareTail's closed form, O(1) at any horizon; zero for unknown
  /// structures.
  Money Cancel(StructureId id);

  /// Checkpoint support: schedules saved in ascending id order; restore
  /// refuses ids `registry` has not interned. The horizon is
  /// configuration.
  void SaveState(persist::Encoder* enc) const;
  Status RestoreState(persist::Decoder* dec,
                      const StructureRegistry& registry);

 private:
  struct Schedule {
    Money build_cost;
    int64_t shares_charged = 0;
    bool active = false;  // False once repaid or cancelled.
  };

  bool Active(StructureId id) const {
    return id < schedules_.size() && schedules_[id].active;
  }

  int64_t horizon_;
  std::vector<Schedule> schedules_;  // Indexed by StructureId.
};

}  // namespace cloudcache
