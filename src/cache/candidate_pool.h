#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "src/persist/codec.h"
#include "src/structure/structure.h"
#include "src/util/units.h"

namespace cloudcache {

/// LRU pool of *candidate* structures.
///
/// "The cloud maintains a pool of structures relevant to the queries in the
/// recent past. … These structures are garbage collected using LRU policy,
/// so that the structure cache can be searched and processed efficiently
/// for each incoming query plan." (Section IV-B)
///
/// The pool bounds how many hypothetical structures the economy tracks
/// regret for; when a candidate falls off the cold end, its accumulated
/// regret is forfeited (the eviction callback in the economy clears the
/// ledger entry). Resident structures are tracked by CacheState, not here.
///
/// Invariant notes: aging is strict LRU unless a victim scorer is
/// installed (SetVictimScorer) — with one, an overflowing pool evicts the
/// lowest-scoring candidate among the `window` coldest, so eviction stays
/// a deterministic function of pool contents and the scorer (ties fall
/// back to coldest-first, i.e. classic LRU). Touch's returned reference is
/// a reused buffer, overwritten by the next Touch.
class CandidatePool {
 public:
  /// `capacity` = maximum number of candidates tracked; must be >= 1.
  explicit CandidatePool(size_t capacity);

  /// Installs a tenant-aware aging policy: when the pool overflows, the
  /// victim is the candidate with the *lowest* scorer value among the
  /// `window` least-recently-used entries (ties prefer the colder entry,
  /// so a constant scorer degenerates to classic LRU). The economy scores
  /// candidates by how broadly their accrued regret spreads over tenants,
  /// making a structure propped up by a single noisy tenant age out before
  /// one backed by many. Passing a null scorer restores strict LRU.
  void SetVictimScorer(std::function<double(StructureId)> scorer,
                       size_t window);

  /// Marks `id` as recently relevant, inserting it if new. Returns the
  /// candidates evicted to make room (possibly empty). The returned
  /// reference points at an internal buffer that the next Touch overwrites
  /// — consume it before touching again. Touching an id already in the
  /// pool (the per-query common case) allocates nothing.
  const std::vector<StructureId>& Touch(StructureId id, SimTime now);

  /// Removes `id` from the pool (e.g. because it was just built).
  void Erase(StructureId id);

  bool Contains(StructureId id) const {
    return id < nodes_.size() && nodes_[id].present;
  }
  size_t size() const { return size_; }

  /// Checkpoint support: saves the (id, last_touch) entries in exact MRU
  /// order; restore relinks them, refusing ids `registry` has not
  /// interned. Capacity and the victim scorer are configuration,
  /// re-established by reconstruction.
  void SaveState(persist::Encoder* enc) const;
  Status RestoreState(persist::Decoder* dec,
                      const StructureRegistry& registry);

 private:
  static constexpr StructureId kNone = ~StructureId{0};

  /// One id's place in the recency list (kNone: an end), while present.
  struct Node {
    StructureId prev = kNone;
    StructureId next = kNone;
    SimTime last_touch = 0;
    bool present = false;
  };

  /// Removes and returns the overflow victim per the active policy.
  StructureId PopVictim();
  /// Links `id` between `prev` and `next` (kNone: the list's end).
  void Link(StructureId id, StructureId prev, StructureId next);
  void Unlink(StructureId id);
  /// Marks `id` present, unlinked; Remove unlinks it and marks it absent.
  void Insert(StructureId id, SimTime last_touch);
  void Remove(StructureId id);

  size_t capacity_;
  /// Recency list linked through id-indexed nodes (StructureIds are small
  /// dense integers): the per-query Touch of a tracked candidate is a few
  /// array writes. Head = most recently used.
  std::vector<Node> nodes_;
  StructureId head_ = kNone;
  StructureId tail_ = kNone;
  size_t size_ = 0;
  std::vector<StructureId> evicted_;  // Touch's reused out-buffer.
  /// Tenant-aware aging (null = classic strict LRU).
  std::function<double(StructureId)> victim_scorer_;
  size_t victim_window_ = 1;
};

}  // namespace cloudcache
