#include "src/econ/amortizer.h"

#include <algorithm>

#include "src/util/logging.h"

namespace cloudcache {

Amortizer::Amortizer(int64_t horizon) : horizon_(horizon) {
  CLOUDCACHE_CHECK_GE(horizon, 1);
}

void Amortizer::RegisterBuild(StructureId id, Money build_cost) {
  CLOUDCACHE_CHECK_GE(build_cost.micros(), 0);
  if (id >= schedules_.size()) schedules_.resize(id + 1);
  schedules_[id] = Schedule{build_cost, 0, true};
}

Money Amortizer::PendingShare(StructureId id) const {
  if (!Active(id)) return Money();
  const Schedule& s = schedules_[id];
  return EvenShare(s.build_cost, horizon_, s.shares_charged);
}

Money Amortizer::ChargeShare(StructureId id) {
  if (!Active(id)) return Money();
  Schedule& s = schedules_[id];
  const Money share = EvenShare(s.build_cost, horizon_, s.shares_charged);
  ++s.shares_charged;
  if (s.shares_charged >= horizon_) s.active = false;
  return share;
}

Money Amortizer::Cancel(StructureId id) {
  if (!Active(id)) return Money();
  Schedule& s = schedules_[id];
  s.active = false;
  return EvenShareTail(s.build_cost, horizon_, s.shares_charged);
}

void Amortizer::SaveState(persist::Encoder* enc) const {
  enc->Length(static_cast<uint64_t>(
      std::count_if(schedules_.begin(), schedules_.end(),
                    [](const Schedule& s) { return s.active; })));
  for (StructureId id = 0; id < schedules_.size(); ++id) {
    const Schedule& schedule = schedules_[id];
    if (!schedule.active) continue;
    enc->U32(id);
    enc->Money(schedule.build_cost);
    enc->I64(schedule.shares_charged);
  }
}

Status Amortizer::RestoreState(persist::Decoder* dec,
                               const StructureRegistry& registry) {
  schedules_.clear();
  uint64_t count = 0;
  dec->Length(count);
  for (uint64_t i = 0; i < count; ++i) {
    StructureId id = 0;
    Schedule schedule;
    dec->U32(id);
    dec->Money(schedule.build_cost);
    dec->I64(schedule.shares_charged);
    CLOUDCACHE_RETURN_IF_ERROR(dec->status());
    if (id >= registry.size()) {
      return Status::InvalidArgument(
          "snapshot amortization schedule references an unknown structure");
    }
    if (schedule.build_cost.micros() < 0 || schedule.shares_charged < 0 ||
        schedule.shares_charged >= horizon_) {
      return Status::InvalidArgument(
          "snapshot amortization schedule is out of range");
    }
    if (Active(id)) {
      return Status::InvalidArgument(
          "snapshot amortizer repeats structure id " + std::to_string(id));
    }
    RegisterBuild(id, schedule.build_cost);
    schedules_[id].shares_charged = schedule.shares_charged;
  }
  return dec->status();
}

}  // namespace cloudcache
