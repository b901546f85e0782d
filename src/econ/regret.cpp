#include "src/econ/regret.h"

#include <algorithm>

#include "src/util/logging.h"

namespace cloudcache {

void RegretLedger::Add(StructureId id, Money amount) {
  CLOUDCACHE_CHECK_GE(amount.micros(), 0);
  if (amount.IsZero()) return;
  if (id >= amounts_.size()) amounts_.resize(id + 1, Money());
  if (amounts_[id].IsZero()) ++nonzero_;
  amounts_[id] += amount;
  total_ += amount;
}

void RegretLedger::Distribute(const std::vector<StructureId>& structures,
                              Money total) {
  if (structures.empty() || total.IsZero()) return;
  const auto count = static_cast<int64_t>(structures.size());
  for (int64_t i = 0; i < count; ++i) {
    Add(structures[static_cast<size_t>(i)], EvenShare(total, count, i));
  }
}

Money RegretLedger::Get(StructureId id) const {
  return id < amounts_.size() ? amounts_[id] : Money();
}

Money RegretLedger::Clear(StructureId id) {
  if (id >= amounts_.size() || amounts_[id].IsZero()) return Money();
  const Money forfeited = amounts_[id];
  amounts_[id] = Money();
  --nonzero_;
  total_ -= forfeited;
  return forfeited;
}

void RegretLedger::Subtract(StructureId id, Money amount) {
  CLOUDCACHE_CHECK_GE(amount.micros(), 0);
  if (amount.IsZero()) return;
  CLOUDCACHE_CHECK_LT(id, amounts_.size());
  CLOUDCACHE_CHECK_GE(amounts_[id].micros(), amount.micros());
  amounts_[id] -= amount;
  if (amounts_[id].IsZero()) --nonzero_;
  total_ -= amount;
}

void RegretLedger::SaveState(persist::Encoder* enc) const {
  enc->Length(nonzero_);
  ForEachNonZero([enc](StructureId id, Money amount) {
    enc->U32(id);
    enc->Money(amount);
  });
}

Status RegretLedger::RestoreState(persist::Decoder* dec) {
  *this = RegretLedger();
  uint64_t count = 0;
  dec->Length(count);
  StructureId previous = 0;
  for (uint64_t i = 0; i < count; ++i) {
    StructureId id = 0;
    Money amount;
    dec->U32(id);
    dec->Money(amount);
    CLOUDCACHE_RETURN_IF_ERROR(dec->status());
    if (i > 0 && id <= previous) {
      return Status::InvalidArgument(
          "snapshot regret ledger ids are not strictly ascending");
    }
    if (amount.micros() <= 0) {
      return Status::InvalidArgument(
          "snapshot regret ledger holds a non-positive entry");
    }
    previous = id;
    Add(id, amount);
  }
  return dec->status();
}

const std::vector<std::pair<StructureId, Money>>&
RegretLedger::NonZeroDescending() const {
  sorted_.clear();
  ForEachNonZero([this](StructureId id, Money amount) {
    sorted_.emplace_back(id, amount);
  });
  std::sort(sorted_.begin(), sorted_.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return sorted_;
}

}  // namespace cloudcache
