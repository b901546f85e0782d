#pragma once

#include <cstddef>
#include <functional>
#include <list>
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
    return id < present_.size() && present_[id];
  }
  size_t size() const { return entries_.size(); }
  size_t capacity() const { return capacity_; }

  /// Checkpoint support: saves the (id, last_touch) entries in exact MRU
  /// order; restore rebuilds the handle map. Capacity and the victim
  /// scorer are configuration, re-established by reconstruction.
  void SaveState(persist::Encoder* enc) const;
  Status RestoreState(persist::Decoder* dec);

 private:
  struct Entry {
    StructureId id;
    SimTime last_touch;
  };

  /// Removes and returns the overflow victim per the active policy.
  StructureId PopVictim();

  size_t capacity_;
  std::list<Entry> entries_;  // Front = most recently used.
  /// Flat id-indexed handle map (StructureIds are small dense integers):
  /// index_[id] is valid iff present_[id]. The per-query Touch of an
  /// already-tracked candidate — the hot path — is then one array load
  /// plus a splice, with no hashing.
  std::vector<std::list<Entry>::iterator> index_;
  std::vector<char> present_;
  std::vector<StructureId> evicted_;  // Touch's reused out-buffer.
  /// Tenant-aware aging (null = classic strict LRU).
  std::function<double(StructureId)> victim_scorer_;
  size_t victim_window_ = 1;
};

}  // namespace cloudcache
