#pragma once

#include <cstdint>
#include <vector>

#include "src/persist/codec.h"
#include "src/structure/structure.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace cloudcache {

/// The materialized contents of the cloud cache: which structures (columns,
/// indexes, extra CPU nodes) are currently built, how big they are, and
/// when each was last used by a selected plan.
///
/// Pure bookkeeping — all *decisions* (what to build, what to evict) live
/// in the economy and the baseline schemes; keeping the state dumb lets the
/// very different policies share it.
class CacheState {
 public:
  explicit CacheState(StructureRegistry* registry);

  /// True if `id` is built and usable.
  bool IsResident(StructureId id) const {
    return id < resident_.size() && resident_[id];
  }

  /// Marks `id` resident. Fails with AlreadyExists if it already is.
  Status Add(StructureId id, SimTime now);

  /// Removes `id`. Fails with NotFound if not resident.
  Status Remove(StructureId id);

  /// Records that a selected plan used `id` at time `now` (LRU clock).
  void Touch(StructureId id, SimTime now);

  /// Time `id` was last touched (or added); meaningful only if resident.
  SimTime LastUsed(StructureId id) const;

  /// Fast path for the plan enumerator: is this catalog column cached?
  bool ColumnResident(ColumnId column) const;
  /// Residency bitmap over all catalog columns (input to Eq. 14).
  const std::vector<bool>& column_residency() const {
    return column_resident_;
  }

  /// Number of extra CPU nodes currently booted (beyond the always-on
  /// coordinator node).
  uint32_t extra_cpu_nodes() const { return extra_cpu_nodes_; }

  /// Total disk bytes occupied by resident columns and indexes.
  uint64_t resident_bytes() const { return resident_bytes_; }

  /// Monotonic residency epoch: bumped by every successful Add/Remove
  /// (never by Touch). Anything derived from *which* structures are
  /// resident — notably the plan enumerator's per-template skeleton
  /// cache — is valid exactly as long as the epoch it was computed at.
  uint64_t epoch() const { return epoch_; }

  /// All resident structure ids, ascending.
  std::vector<StructureId> Residents() const;

  /// Visits every resident id in ascending order without materializing
  /// the list Residents() allocates.
  template <typename Fn>
  void ForEachResident(Fn&& fn) const {
    for (StructureId id = 0; id < resident_.size(); ++id) {
      if (resident_[id]) fn(id);
    }
  }

  /// Resident ids of one type, ascending.
  std::vector<StructureId> ResidentsOfType(StructureType type) const;

  /// The structure registry this state indexes into.
  const StructureRegistry& registry() const { return *registry_; }

  /// Checkpoint support: serializes the exact field state — including the
  /// residency epoch, which downstream plan caches key on, and the raw
  /// last-used clocks — so a restored cache is indistinguishable from the
  /// saved one to every policy that reads it.
  void SaveState(persist::Encoder* enc) const;
  Status RestoreState(persist::Decoder* dec);

 private:
  StructureRegistry* registry_;
  std::vector<bool> resident_;
  std::vector<SimTime> last_used_;
  std::vector<bool> column_resident_;
  uint64_t resident_bytes_ = 0;
  uint32_t extra_cpu_nodes_ = 0;
  uint64_t epoch_ = 0;
};

}  // namespace cloudcache
