#include "src/econ/admission.h"

#include <algorithm>

#include "src/util/logging.h"

namespace cloudcache {

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options) {
  // Knobs behind the disabled switch must stay inert (the flags-off
  // bit-identity guarantee), so misconfiguration is only fatal when the
  // policy is actually on.
  if (options_.enabled) {
    CLOUDCACHE_CHECK_GT(options_.throttle_ratio, 0.0);
    CLOUDCACHE_CHECK_LE(options_.readmit_ratio, options_.throttle_ratio);
  }
}

void AdmissionController::SetTenantCount(size_t n) {
  tenants_.assign(n, TenantState());
  backing_.clear();
}

void AdmissionController::RecordRevenue(uint32_t tenant, Money amount) {
  if (!options_.enabled || tenant >= tenants_.size()) return;
  tenants_[tenant].revenue += amount;
}

void AdmissionController::RecordRegret(uint32_t tenant, Money amount) {
  if (!options_.enabled || tenant >= tenants_.size()) return;
  tenants_[tenant].accrued += amount;
}

void AdmissionController::RecordMonetized(uint32_t tenant,
                                          StructureId structure,
                                          Money amount) {
  if (!options_.enabled || tenant >= tenants_.size() || amount.IsZero()) {
    return;
  }
  tenants_[tenant].monetized += amount;
  CLOUDCACHE_CHECK_LE(tenants_[tenant].monetized.micros(),
                      tenants_[tenant].accrued.micros());
  std::vector<Money>& shares = backing_[structure];
  shares.resize(tenants_.size());
  shares[tenant] += amount;
}

void AdmissionController::OnStructureFailed(StructureId structure) {
  if (!options_.enabled) return;
  auto it = backing_.find(structure);
  if (it == backing_.end()) return;
  for (size_t t = 0; t < it->second.size(); ++t) {
    tenants_[t].monetized -= it->second[t];
    CLOUDCACHE_CHECK_GE(tenants_[t].monetized.micros(), 0);
  }
  backing_.erase(it);
}

Money AdmissionController::Unmonetized(uint32_t tenant) const {
  if (tenant >= tenants_.size()) return Money();
  const TenantState& state = tenants_[tenant];
  return state.accrued - state.monetized;
}

bool AdmissionController::Throttled(uint32_t tenant, bool* newly_throttled) {
  if (newly_throttled != nullptr) *newly_throttled = false;
  if (!options_.enabled || tenant >= tenants_.size()) return false;
  TenantState& state = tenants_[tenant];

  const Money unmonetized = state.accrued - state.monetized;
  // The ratio compares micro-dollar counts directly; a tenant with zero
  // revenue and above-floor unmonetized regret is unconditionally over
  // any finite ratio.
  const double revenue =
      static_cast<double>(state.revenue.micros());
  const double signal = static_cast<double>(unmonetized.micros());
  if (!state.throttled) {
    if (unmonetized >= options_.min_regret &&
        signal > options_.throttle_ratio * revenue) {
      state.throttled = true;
      if (newly_throttled != nullptr) *newly_throttled = true;
    }
  } else {
    if (signal <= options_.readmit_ratio * revenue) {
      state.throttled = false;
    }
  }
  return state.throttled;
}

template <typename Codec, typename Self>
void AdmissionController::TenantFields(Codec& c, Self& self) {
  c.Seq(self.tenants_, [&c](auto& state) {
    c.Money(state.revenue);
    c.Money(state.accrued);
    c.Money(state.monetized);
    c.Bool(state.throttled);
  });
}

void AdmissionController::SaveState(persist::Encoder* enc) const {
  TenantFields(*enc, *this);
  std::vector<StructureId> ids;
  ids.reserve(backing_.size());
  for (const auto& [id, shares] : backing_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  enc->Length(ids.size());
  for (StructureId id : ids) {
    enc->U32(id);
    enc->Seq(backing_.at(id), [enc](Money share) { enc->Money(share); });
  }
}

Status AdmissionController::RestoreState(persist::Decoder* dec) {
  const size_t provisioned = tenants_.size();
  TenantFields(*dec, *this);
  CLOUDCACHE_RETURN_IF_ERROR(dec->status());
  if (tenants_.size() != provisioned) {
    return Status::FailedPrecondition(
        "snapshot admission state has " + std::to_string(tenants_.size()) +
        " tenants but this run provisioned " + std::to_string(provisioned));
  }
  for (const TenantState& state : tenants_) {
    if (state.monetized.micros() < 0 ||
        state.monetized.micros() > state.accrued.micros()) {
      return Status::InvalidArgument(
          "snapshot admission state monetized regret exceeds accrued");
    }
  }
  backing_.clear();
  uint64_t backing_count = 0;
  dec->Length(backing_count);
  for (uint64_t i = 0; i < backing_count; ++i) {
    StructureId id = 0;
    std::vector<Money> shares;
    dec->U32(id);
    dec->Seq(shares, [dec](Money& share) { dec->Money(share); });
    CLOUDCACHE_RETURN_IF_ERROR(dec->status());
    if (shares.size() > tenants_.size()) {
      return Status::InvalidArgument(
          "snapshot admission backing has more shares than tenants");
    }
    if (!backing_.emplace(id, std::move(shares)).second) {
      return Status::InvalidArgument(
          "snapshot admission backing repeats structure id " +
          std::to_string(id));
    }
  }
  return dec->status();
}

}  // namespace cloudcache
