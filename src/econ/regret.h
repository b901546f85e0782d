#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "src/persist/codec.h"
#include "src/structure/structure.h"
#include "src/util/money.h"

namespace cloudcache {

/// The array `regretS` of Section IV-C: accumulated regret value per
/// physical structure.
///
/// "The regret for a non-chosen query plan PQ is added to the positions in
/// regretS that correspond to the S that are employed by PQ. The
/// accumulated regret value for each S shows the overall regret of the
/// cloud for not employing it in executed query plans."
///
/// Amounts are exact Money; a plan's regret is split over its structures
/// with EvenShare so no micro-dollar is lost or invented.
///
/// Layout: StructureIds are small dense integers (registry interning
/// hands them out consecutively), so the ledger is a flat structure-of-
/// arrays — one Money per id — rather than a hash map. The decision loop
/// touches the ledger hundreds of times per query (Eq. 1/2 distribution
/// over every non-chosen plan), and the flat scan layout turns each of
/// those touches into one array write.
class RegretLedger {
 public:
  /// Adds regret to one structure. Negative additions are a bug.
  void Add(StructureId id, Money amount);

  /// Splits `total` evenly over `structures` (EvenShare distribution).
  void Distribute(const std::vector<StructureId>& structures, Money total);

  /// Accumulated regret of `id` (zero if never touched).
  Money Get(StructureId id) const;

  /// Forgets `id` (invested in, or garbage-collected from the candidate
  /// pool). Returns the forfeited amount.
  Money Clear(StructureId id);

  /// Removes exactly `amount` from `id`'s entry, which must hold at least
  /// that much (the tenant ledgers partition the global one, so a tenant
  /// share can always be subtracted from the global entry). Used when a
  /// throttled tenant's standing regret is forfeited out of the global
  /// ledger.
  void Subtract(StructureId id, Money amount);

  /// Visits every non-zero entry as fn(id, amount), in ascending id
  /// order. Forfeiture only subtracts per entry, which commutes, so
  /// visit order never reaches the metrics — but the order is
  /// deterministic anyway (the flat array has one).
  template <typename Fn>
  void ForEachNonZero(Fn&& fn) const {
    for (StructureId id = 0; id < amounts_.size(); ++id) {
      if (!amounts_[id].IsZero()) fn(id, amounts_[id]);
    }
  }

  /// True iff pred(id, amount) holds for some non-zero entry; stops at
  /// the first hit (ascending-id scan). The investment loop's fast path:
  /// one flat scan decides whether Eq. 3 could fire at all before paying
  /// for the sorted descending view.
  template <typename Pred>
  bool AnyNonZero(Pred&& pred) const {
    for (StructureId id = 0; id < amounts_.size(); ++id) {
      if (!amounts_[id].IsZero() && pred(id, amounts_[id])) return true;
    }
    return false;
  }

  /// Sum over all structures (maintained incrementally; O(1)).
  Money Total() const { return total_; }

  /// All entries with non-zero regret, descending by amount (ties by id),
  /// sorted into a reused scratch vector on each call. The reference is a
  /// snapshot: mutating the ledger leaves the returned storage untouched
  /// until the next call, so the investment loop may Clear entries while
  /// iterating it.
  const std::vector<std::pair<StructureId, Money>>& NonZeroDescending() const;

  /// Number of structures with non-zero regret.
  size_t size() const { return nonzero_; }

  /// Checkpoint support: saves the sparse non-zero entries in ascending id
  /// order; restore replays them through Add into an empty ledger.
  void SaveState(persist::Encoder* enc) const;
  Status RestoreState(persist::Decoder* dec);

 private:
  /// Flat per-id amounts (index = StructureId); zero means "no entry".
  std::vector<Money> amounts_;
  Money total_;
  size_t nonzero_ = 0;
  /// NonZeroDescending's scratch.
  mutable std::vector<std::pair<StructureId, Money>> sorted_;
};

}  // namespace cloudcache
