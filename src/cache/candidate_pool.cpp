#include "src/cache/candidate_pool.h"

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

void CandidatePool::Link(StructureId id, StructureId prev, StructureId next) {
  nodes_[id].prev = prev;
  nodes_[id].next = next;
  (prev != kNone ? nodes_[prev].next : head_) = id;
  (next != kNone ? nodes_[next].prev : tail_) = id;
}

void CandidatePool::Unlink(StructureId id) {
  const Node& node = nodes_[id];
  (node.prev != kNone ? nodes_[node.prev].next : head_) = node.next;
  (node.next != kNone ? nodes_[node.next].prev : tail_) = node.prev;
}

void CandidatePool::Insert(StructureId id, SimTime last_touch) {
  if (id >= nodes_.size()) nodes_.resize(id + 1);
  nodes_[id].present = true;
  nodes_[id].last_touch = last_touch;
  ++size_;
}

void CandidatePool::Remove(StructureId id) {
  Unlink(id);
  nodes_[id].present = false;
  --size_;
}

StructureId CandidatePool::PopVictim() {
  // Classic LRU: the coldest entry. With a scorer, search the cold tail
  // for the lowest score; a tie keeps the colder entry so that equal
  // scores reproduce LRU exactly. The head entry — the candidate whose
  // Touch caused this overflow — is never a victim.
  StructureId victim = tail_;
  if (victim_scorer_ && victim != head_) {
    double best = victim_scorer_(victim);
    StructureId it = victim;
    for (size_t seen = 1; seen < victim_window_; ++seen) {
      it = nodes_[it].prev;
      if (it == head_) break;
      const double score = victim_scorer_(it);
      if (score < best) {
        best = score;
        victim = it;
      }
    }
  }
  Remove(victim);
  return victim;
}

const std::vector<StructureId>& CandidatePool::Touch(StructureId id,
                                                    SimTime now) {
  evicted_.clear();
  if (Contains(id)) {
    nodes_[id].last_touch = now;
    if (head_ != id) {
      Unlink(id);
      Link(id, kNone, head_);
    }
    return evicted_;
  }
  Insert(id, now);
  Link(id, kNone, head_);
  while (size_ > capacity_) evicted_.push_back(PopVictim());
  return evicted_;
}

void CandidatePool::Erase(StructureId id) {
  if (Contains(id)) Remove(id);
}

void CandidatePool::SaveState(persist::Encoder* enc) const {
  enc->Length(size_);
  for (StructureId id = head_; id != kNone; id = nodes_[id].next) {
    enc->U32(id);
    enc->F64(nodes_[id].last_touch);
  }
}

Status CandidatePool::RestoreState(persist::Decoder* dec,
                                   const StructureRegistry& registry) {
  nodes_.clear();
  head_ = tail_ = kNone;
  size_ = 0;
  uint64_t count = 0;
  dec->Length(count);
  CLOUDCACHE_RETURN_IF_ERROR(dec->status());
  if (count > capacity_) {
    return Status::InvalidArgument(
        "snapshot candidate pool exceeds this run's pool capacity");
  }
  for (uint64_t i = 0; i < count; ++i) {
    StructureId id = 0;
    double last_touch = 0;
    dec->U32(id);
    dec->F64(last_touch);
    CLOUDCACHE_RETURN_IF_ERROR(dec->status());
    if (id >= registry.size()) {
      return Status::InvalidArgument(
          "snapshot candidate pool references an unknown structure");
    }
    if (Contains(id)) {
      return Status::InvalidArgument(
          "snapshot candidate pool repeats structure id " +
          std::to_string(id));
    }
    // Entries arrive in MRU-first order; appending at the tail keeps it.
    Insert(id, last_touch);
    Link(id, tail_, kNone);
  }
  return Status::OK();
}

}  // namespace cloudcache
