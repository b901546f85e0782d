#pragma once

#include <cstdint>
#include <vector>

#include "src/cost/cost_model.h"
#include "src/persist/codec.h"
#include "src/structure/structure.h"
#include "src/util/logging.h"
#include "src/util/money.h"
#include "src/util/units.h"

namespace cloudcache {

/// Per-structure maintenance accrual and repayment clock (footnote 3 of
/// the paper):
///
///   "As soon as a structure is built in the cache, the query plans that
///    are selected for execution and employ this structure, pay also for
///    its maintenance cost. Each newly selected query plan pays for the
///    accumulated maintenance cost from the time point of the previous
///    query plan that payed off the previously accumulated maintenance
///    cost. Excessive maintenance cost of a structure due to non-usage …
///    can be the reason of structure failure."
///
/// The ledger tracks, for every built structure, the time up to which its
/// maintenance has been repaid by user charges. `Owed()` prices the gap at
/// the decision cost model's rates; `Pay()` advances the clock. A
/// structure fails once its owed rent exceeds `failure_fraction` of its
/// build cost (times its failure scale when `scale_thresholds` is on);
/// `Fails()` is that exact test.
///
/// Failure deadlines. Owed rent is a non-decreasing function of the gap
/// since `paid_until` (MaintenanceCostSized multiplies the gap by
/// non-negative rates and rounds half-away-from-zero, and IEEE products
/// and that rounding are monotone). So every clock has a *safe gap*: the
/// longest gap at which the exact test has been checked to pass — the
/// estimate threshold ÷ rate, verified by pricing it (and bisected down in
/// the rare case rounding pushed it over). By monotonicity no shorter gap
/// can fail either. A clock's deadline is `paid_until + safe_gap`, and
/// `now < deadline` implies `max(0, now - paid_until) <= safe_gap` in
/// floating point (the sum rounds to the deadline, so the largest double
/// below the deadline is below the exact sum). `CollectDue()` therefore
/// returns a superset of the structures the exact test would fail, from a
/// min-heap of deadlines, touching only the due ones. A clock that passes
/// `Fails()` at `now` moves its deadline just past `now` (again by
/// monotonicity), so a repeat scan at the same `now` is a peek at the heap
/// top — until a Pay, Register or threshold change refreshes it.
///
/// Invariant notes: clocks exist exactly for structures between Register
/// and Unregister (the economy keeps this aligned with pending + resident
/// structures); `failure_scale` is policy metadata the economy stamps at
/// build time (tenant-aware eviction widens the failure threshold of
/// broadly-backed structures) and defaults to 1.0, in which case the
/// failure test is byte-for-byte the pre-tenancy one. Anything that moves
/// a clock's `paid_until`, its threshold's build cost or failure scale, or
/// the failure fraction must refresh that clock's deadline. A structure
/// registered at zero build cost (a column shipped with an index) is judged
/// by its current rebuild cost, which moves with the residency epoch:
/// those deadlines are recomputed whenever `CollectDue()` sees a new
/// epoch. The heap is a pure cache of the clocks — never saved, rebuilt on
/// RestoreState.
class MaintenanceLedger {
 public:
  MaintenanceLedger(const CostModel* model, double failure_fraction,
                    bool scale_thresholds)
      : model_(model),
        failure_fraction_(failure_fraction),
        scale_thresholds_(scale_thresholds) {}
  MaintenanceLedger(const MaintenanceLedger&) = delete;
  MaintenanceLedger& operator=(const MaintenanceLedger&) = delete;

  /// Starts the clock for a freshly built structure. `build_cost` is
  /// retained as the reference for the failure threshold (a structure
  /// fails when unpaid rent reaches a fraction of what it cost to build);
  /// `failure_scale` multiplies that threshold (>= 1 grants slack, 1.0 is
  /// the classic letter of footnote 3).
  void Register(StructureId id, const StructureKey& key, SimTime now,
                Money build_cost, double failure_scale = 1.0);

  /// The failure-threshold scale recorded at Register time (1.0 if the
  /// structure is untracked).
  double FailureScale(StructureId id) const;

  /// The build cost recorded at Register time.
  Money BuildCostOf(StructureId id) const;

  /// Stops tracking an evicted structure. Returns the rent that was never
  /// repaid (the cloud's write-off).
  Money Unregister(StructureId id, SimTime now);

  /// Rent accrued since the last payment, priced by the decision model.
  Money Owed(StructureId id, SimTime now) const {
    return OwedCapped(id, now, kNoCapSeconds);
  }

  /// Rent owed, capped at `cap_seconds` worth of rent. This is what one
  /// selected plan is surcharged: recovering an arbitrarily long idle
  /// backlog from a single query would price the structure out of the
  /// market forever (and the cloud would still owe the rent) — the
  /// backlog is instead recovered a capped slice per use, and a structure
  /// whose backlog keeps growing anyway fails per footnote 3.
  Money OwedCapped(StructureId id, SimTime now, double cap_seconds) const;

  /// Collects up to `cap_seconds` worth of owed rent and advances the
  /// paid-until clock by the covered duration. Returns the collection.
  Money Pay(StructureId id, SimTime now,
            double cap_seconds = kNoCapSeconds);

  static constexpr double kNoCapSeconds = 1e300;

  bool IsTracked(StructureId id) const {
    return id < clocks_.size() && clocks_[id].tracked;
  }

  /// Footnote 3's exact failure test for tracked `id` at `now`: fills the
  /// owed rent and the threshold (`build_cost` times the failure fraction,
  /// times the failure scale when scaled) and returns owed != 0 && owed >
  /// threshold. `build_cost` is the recorded one, or — for a structure
  /// registered at zero cost — its rebuild cost at the current epoch, the
  /// cost the last CollectDue refreshed against.
  bool Fails(StructureId id, SimTime now, Money build_cost, Money* owed,
             Money* threshold);

  /// Replaces `due` with the ids, ascending and greater than `after` (-1:
  /// all), of the clocks whose deadline has reached `now` — a superset of
  /// those Fails would fail at `now`. `epoch` is the cache's residency
  /// epoch and `build_cost_now(id)` the rebuild cost there; both are read
  /// only to refresh zero-cost clocks when the epoch moved. With nothing
  /// due this is a peek at the heap top.
  template <typename BuildCostFn>
  void CollectDue(SimTime now, uint64_t epoch, BuildCostFn&& build_cost_now,
                  std::vector<StructureId>* due, int64_t after = -1) {
    if (!floating_.empty() && floating_stamp_ != epoch + 1) {
      for (StructureId id : floating_) {
        Clock& clock = clocks_[id];
        SetThreshold(&clock, Threshold(clock, build_cost_now(id)));
      }
      floating_stamp_ = epoch + 1;
    }
    due->clear();
    if (heap_.empty() || clocks_[heap_.front()].deadline > now) return;
    GatherDue(now, after, due);
  }

  /// Checkpoint support: clocks are saved in ascending id order; restore
  /// rederives each clock's type and byte footprint from the registry, so
  /// a snapshot can never resurrect a clock for a structure this run does
  /// not know. Deadlines are not saved: restore recomputes them.
  void SaveState(persist::Encoder* enc) const;
  Status RestoreState(persist::Decoder* dec,
                      const StructureRegistry& registry);

 private:
  struct Clock {
    bool tracked = false;  // Between Track and Unregister.
    /// All of the key the rent pricers read: its type and StructureBytes,
    /// computed once at Register (a registered structure's footprint never
    /// changes), so pricing skips the catalog walk and no key is copied.
    StructureType type = StructureType::kColumn;
    uint64_t bytes = 0;
    SimTime paid_until = 0;
    Money build_cost;
    double failure_scale = 1.0;
    /// The threshold the deadline stands for: fixed at Register for a
    /// recorded build cost, refreshed per epoch for a zero one.
    Money threshold;
    /// Longest gap verified to pass the exact test against `threshold`.
    double safe_gap = 0;
    /// paid_until + safe_gap, or just past a `now` Fails passed at.
    SimTime deadline = 0;
    /// Position in heap_.
    size_t heap_pos = 0;
  };

  /// Rent accrued over `gap` seconds, priced through the cached footprint.
  Money PriceGap(const Clock& clock, double gap) const {
    return model_->MaintenanceCostSized(clock.type, clock.bytes, gap);
  }

  /// The failure threshold of `clock` for reference cost `build_cost`.
  Money Threshold(const Clock& clock, Money build_cost) const;
  /// Longest gap at which `clock` is verified not to fail at `threshold`.
  double SafeGap(const Clock& clock, Money threshold) const;
  /// Sets the clock's threshold and recomputes its safe gap and deadline.
  void SetThreshold(Clock* clock, Money threshold);
  /// Re-derives the deadline from paid_until and the safe gap.
  void ResetDeadline(Clock* clock);
  /// The tracked clock of `id` (checked).
  const Clock& At(StructureId id) const {
    CLOUDCACHE_CHECK(IsTracked(id));
    return clocks_[id];
  }
  Clock& At(StructureId id) {
    const MaintenanceLedger& self = *this;
    return const_cast<Clock&>(self.At(id));
  }
  /// Stores a freshly filled clock at `id`, adds it to the heap and, for a
  /// zero build cost, to the floating set.
  void Track(StructureId id, const Clock& clock);
  void GatherDue(SimTime now, int64_t after, std::vector<StructureId>* due);

  // Min-heap of clock ids by deadline.
  void HeapFix(size_t pos);
  void HeapSwap(size_t a, size_t b);
  void HeapErase(size_t pos);

  const CostModel* model_;
  double failure_fraction_;
  bool scale_thresholds_;
  std::vector<Clock> clocks_;  // Indexed by StructureId; tracked ones heaped.
  std::vector<StructureId> heap_;
  /// Clocks registered at zero build cost, whose threshold follows the
  /// residency epoch; refreshed by CollectDue when the epoch moves. The
  /// stamp is the epoch of the last refresh + 1; 0 means "refresh".
  std::vector<StructureId> floating_;
  uint64_t floating_stamp_ = 0;
  /// GatherDue's depth-first stack, reused across scans.
  std::vector<size_t> gather_stack_;
};

}  // namespace cloudcache
