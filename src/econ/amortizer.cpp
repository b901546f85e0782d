#include "src/econ/amortizer.h"

#include <algorithm>
#include <vector>

#include "src/util/logging.h"

namespace cloudcache {

Amortizer::Amortizer(int64_t horizon) : horizon_(horizon) {
  CLOUDCACHE_CHECK_GE(horizon, 1);
}

void Amortizer::RegisterBuild(StructureId id, Money build_cost) {
  CLOUDCACHE_CHECK_GE(build_cost.micros(), 0);
  schedules_[id] = Schedule{build_cost, 0};
}

Money Amortizer::PendingShare(StructureId id) const {
  auto it = schedules_.find(id);
  if (it == schedules_.end()) return Money();
  const Schedule& s = it->second;
  if (s.shares_charged >= horizon_) return Money();
  return EvenShare(s.build_cost, horizon_, s.shares_charged);
}

Money Amortizer::ChargeShare(StructureId id) {
  auto it = schedules_.find(id);
  if (it == schedules_.end()) return Money();
  Schedule& s = it->second;
  if (s.shares_charged >= horizon_) return Money();
  const Money share = EvenShare(s.build_cost, horizon_, s.shares_charged);
  ++s.shares_charged;
  if (s.shares_charged >= horizon_) schedules_.erase(it);
  return share;
}

Money Amortizer::Cancel(StructureId id) {
  auto it = schedules_.find(id);
  if (it == schedules_.end()) return Money();
  const Schedule& s = it->second;
  const Money remaining =
      EvenShareTail(s.build_cost, horizon_, s.shares_charged);
  schedules_.erase(it);
  return remaining;
}

void Amortizer::SaveState(persist::Encoder* enc) const {
  std::vector<StructureId> ids;
  ids.reserve(schedules_.size());
  for (const auto& [id, schedule] : schedules_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  enc->PutU64(ids.size());
  for (StructureId id : ids) {
    const Schedule& schedule = schedules_.at(id);
    enc->PutU32(id);
    enc->PutMoney(schedule.build_cost);
    enc->PutI64(schedule.shares_charged);
  }
}

Status Amortizer::RestoreState(persist::Decoder* dec) {
  schedules_.clear();
  uint64_t count = 0;
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadLength(&count));
  for (uint64_t i = 0; i < count; ++i) {
    StructureId id = 0;
    Schedule schedule;
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU32(&id));
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadMoney(&schedule.build_cost));
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadI64(&schedule.shares_charged));
    if (schedule.build_cost.micros() < 0 || schedule.shares_charged < 0 ||
        schedule.shares_charged >= horizon_) {
      return Status::InvalidArgument(
          "snapshot amortization schedule is out of range");
    }
    if (!schedules_.emplace(id, schedule).second) {
      return Status::InvalidArgument(
          "snapshot amortizer repeats structure id " + std::to_string(id));
    }
  }
  return Status::OK();
}

}  // namespace cloudcache
