#include "src/cache/candidate_pool.h"

#include <algorithm>
#include <iterator>

#include "src/util/logging.h"

namespace cloudcache {

CandidatePool::CandidatePool(size_t capacity) : capacity_(capacity) {
  CLOUDCACHE_CHECK_GE(capacity, 1u);
}

void CandidatePool::SetVictimScorer(
    std::function<double(StructureId)> scorer, size_t window) {
  victim_scorer_ = std::move(scorer);
  victim_window_ = window == 0 ? 1 : window;
}

StructureId CandidatePool::PopVictim() {
  // Classic LRU: the coldest entry. With a scorer, search the cold tail
  // for the lowest score; a tie keeps the colder entry so that equal
  // scores reproduce LRU exactly. The front entry — the candidate whose
  // Touch caused this overflow — is never a victim.
  auto victim = std::prev(entries_.end());
  if (victim_scorer_ && victim != entries_.begin()) {
    double best = victim_scorer_(victim->id);
    auto it = victim;
    for (size_t seen = 1; seen < victim_window_; ++seen) {
      --it;
      if (it == entries_.begin()) break;
      const double score = victim_scorer_(it->id);
      if (score < best) {
        best = score;
        victim = it;
      }
    }
  }
  const StructureId id = victim->id;
  present_[id] = 0;
  entries_.erase(victim);
  return id;
}

const std::vector<StructureId>& CandidatePool::Touch(StructureId id,
                                                    SimTime now) {
  evicted_.clear();
  if (Contains(id)) {
    const auto it = index_[id];
    it->last_touch = now;
    entries_.splice(entries_.begin(), entries_, it);
    return evicted_;
  }
  entries_.push_front(Entry{id, now});
  if (id >= present_.size()) {
    present_.resize(id + 1, 0);
    index_.resize(id + 1);
  }
  present_[id] = 1;
  index_[id] = entries_.begin();
  while (entries_.size() > capacity_) {
    if (!victim_scorer_) {
      // Classic strict LRU stays on the original tight path.
      const StructureId victim = entries_.back().id;
      evicted_.push_back(victim);
      present_[victim] = 0;
      entries_.pop_back();
    } else {
      evicted_.push_back(PopVictim());
    }
  }
  return evicted_;
}

void CandidatePool::Erase(StructureId id) {
  if (!Contains(id)) return;
  entries_.erase(index_[id]);
  present_[id] = 0;
}

void CandidatePool::SaveState(persist::Encoder* enc) const {
  enc->PutU64(entries_.size());
  for (const Entry& entry : entries_) {
    enc->PutU32(entry.id);
    enc->PutDouble(entry.last_touch);
  }
}

Status CandidatePool::RestoreState(persist::Decoder* dec) {
  entries_.clear();
  std::fill(present_.begin(), present_.end(), 0);
  uint64_t count = 0;
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadLength(&count));
  if (count > capacity_) {
    return Status::InvalidArgument(
        "snapshot candidate pool exceeds this run's pool capacity");
  }
  for (uint64_t i = 0; i < count; ++i) {
    StructureId id = 0;
    double last_touch = 0;
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU32(&id));
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadDouble(&last_touch));
    if (id >= present_.size()) {
      present_.resize(id + 1, 0);
      index_.resize(id + 1);
    }
    if (present_[id]) {
      return Status::InvalidArgument(
          "snapshot candidate pool repeats structure id " +
          std::to_string(id));
    }
    // Entries arrive in MRU-first order; appending keeps that order.
    entries_.push_back(Entry{id, last_touch});
    present_[id] = 1;
    index_[id] = std::prev(entries_.end());
  }
  return Status::OK();
}

}  // namespace cloudcache
