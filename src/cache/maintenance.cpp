#include "src/cache/maintenance.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/util/logging.h"

namespace cloudcache {

namespace {

// Upper bound on a safe gap (about 32 million years), so that pricing the
// estimate never meets an infinite or overflowing product.
constexpr double kMaxSafeGap = 1e15;

}  // namespace

void MaintenanceLedger::Register(StructureId id, const StructureKey& key,
                                 SimTime now, Money build_cost,
                                 double failure_scale) {
  CLOUDCACHE_CHECK(!IsTracked(id));
  CLOUDCACHE_CHECK_GE(failure_scale, 1.0);
  Clock clock;
  clock.type = key.type;
  clock.paid_until = now;
  clock.build_cost = build_cost;
  clock.failure_scale = failure_scale;
  clock.bytes = StructureBytes(model_->catalog(), key);
  Track(id, clock);
}

void MaintenanceLedger::Track(StructureId id, const Clock& clock) {
  if (id >= clocks_.size()) clocks_.resize(id + 1);
  Clock& tracked = clocks_[id];
  tracked = clock;
  tracked.tracked = true;
  tracked.heap_pos = heap_.size();
  heap_.push_back(id);
  if (tracked.build_cost.IsZero()) {
    // Judged by a rebuild cost this ledger cannot see yet: a zero safe gap
    // (rent over no time is zero, so it never fails) until CollectDue
    // refreshes it at the current epoch.
    floating_.push_back(id);
    floating_stamp_ = 0;
    tracked.safe_gap = 0;
    ResetDeadline(&tracked);
  } else {
    SetThreshold(&tracked, Threshold(tracked, tracked.build_cost));
  }
}

double MaintenanceLedger::FailureScale(StructureId id) const {
  return IsTracked(id) ? clocks_[id].failure_scale : 1.0;
}

Money MaintenanceLedger::BuildCostOf(StructureId id) const {
  return At(id).build_cost;
}

Money MaintenanceLedger::Unregister(StructureId id, SimTime now) {
  Clock& clock = At(id);
  const Money written_off =
      PriceGap(clock, std::max(0.0, now - clock.paid_until));
  HeapErase(clock.heap_pos);
  if (clock.build_cost.IsZero()) {
    auto pos = std::find(floating_.begin(), floating_.end(), id);
    *pos = floating_.back();
    floating_.pop_back();
  }
  clock.tracked = false;
  return written_off;
}

Money MaintenanceLedger::OwedCapped(StructureId id, SimTime now,
                                    double cap_seconds) const {
  const Clock& clock = At(id);
  const double gap = std::max(0.0, now - clock.paid_until);
  return PriceGap(clock, std::min(gap, cap_seconds));
}

Money MaintenanceLedger::Pay(StructureId id, SimTime now,
                             double cap_seconds) {
  Clock& clock = At(id);
  const double gap = std::max(0.0, now - clock.paid_until);
  const double covered = std::min(gap, cap_seconds);
  const Money collected = PriceGap(clock, covered);
  clock.paid_until += covered;
  ResetDeadline(&clock);
  return collected;
}

bool MaintenanceLedger::Fails(StructureId id, SimTime now, Money build_cost,
                              Money* owed, Money* threshold) {
  Clock& clock = At(id);
  *owed = PriceGap(clock, std::max(0.0, now - clock.paid_until));
  *threshold = Threshold(clock, build_cost);
  if (!owed->IsZero() && *owed > *threshold) return true;
  // Passed at `now`, so (monotone rent) every `now` up to this one passes
  // while paid_until and the threshold stay put: the deadline may move
  // just past `now`. Only when the verdict used the threshold the
  // deadline stands for — a zero-cost clock judged at another epoch than
  // its last refresh keeps its deadline.
  if (*threshold == clock.threshold && clock.deadline <= now) {
    clock.deadline =
        std::nextafter(now, std::numeric_limits<double>::infinity());
    HeapFix(clock.heap_pos);
  }
  return false;
}

Money MaintenanceLedger::Threshold(const Clock& clock,
                                   Money build_cost) const {
  Money threshold = build_cost * failure_fraction_;
  // Scales other than 1.0 exist only when tenant-aware eviction is on, so
  // the classic rule skips the multiply and keeps its threshold bits.
  if (scale_thresholds_ && clock.failure_scale != 1.0) {
    threshold = threshold * clock.failure_scale;
  }
  return threshold;
}

double MaintenanceLedger::SafeGap(const Clock& clock, Money threshold) const {
  // Owed rent is never negative, so a clock survives every gap whose rent
  // is at most max(threshold, 0). A zero gap always qualifies.
  const Money limit = Money::Max(threshold, Money());
  const double rate = model_->MaintenanceRate(clock.type, clock.bytes);
  if (!(rate > 0.0)) return 0.0;
  const double estimate = std::min(limit.ToDollars() / rate, kMaxSafeGap);
  if (PriceGap(clock, estimate) <= limit) return estimate;
  // Rounding pushed the estimate over: bisect down, keeping `lo` verified.
  double lo = 0.0;
  double hi = estimate;
  for (int i = 0; i < 64; ++i) {
    const double mid = lo + (hi - lo) / 2;
    if (mid <= lo || mid >= hi) break;
    if (PriceGap(clock, mid) <= limit) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void MaintenanceLedger::SetThreshold(Clock* clock, Money threshold) {
  clock->threshold = threshold;
  clock->safe_gap = SafeGap(*clock, threshold);
  ResetDeadline(clock);
}

void MaintenanceLedger::ResetDeadline(Clock* clock) {
  clock->deadline = clock->paid_until + clock->safe_gap;
  HeapFix(clock->heap_pos);
}

void MaintenanceLedger::GatherDue(SimTime now, int64_t after,
                                  std::vector<StructureId>* due) {
  // Depth-first over the heap: a node whose deadline lies past `now`
  // roots a subtree that does too, so only due nodes and their children
  // are touched.
  gather_stack_.clear();
  gather_stack_.push_back(0);
  while (!gather_stack_.empty()) {
    const size_t pos = gather_stack_.back();
    gather_stack_.pop_back();
    if (pos >= heap_.size() || clocks_[heap_[pos]].deadline > now) continue;
    if (static_cast<int64_t>(heap_[pos]) > after) due->push_back(heap_[pos]);
    gather_stack_.push_back(2 * pos + 1);
    gather_stack_.push_back(2 * pos + 2);
  }
  std::sort(due->begin(), due->end());
}

void MaintenanceLedger::HeapSwap(size_t a, size_t b) {
  std::swap(heap_[a], heap_[b]);
  clocks_[heap_[a]].heap_pos = a;
  clocks_[heap_[b]].heap_pos = b;
}

void MaintenanceLedger::HeapFix(size_t pos) {
  const auto deadline = [this](size_t p) {
    return clocks_[heap_[p]].deadline;
  };
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (!(deadline(pos) < deadline(parent))) break;
    HeapSwap(pos, parent);
    pos = parent;
  }
  for (;;) {
    const size_t left = 2 * pos + 1;
    if (left >= heap_.size()) break;
    size_t least = left;
    const size_t right = left + 1;
    if (right < heap_.size() && deadline(right) < deadline(left)) {
      least = right;
    }
    if (!(deadline(least) < deadline(pos))) break;
    HeapSwap(pos, least);
    pos = least;
  }
}

void MaintenanceLedger::HeapErase(size_t pos) {
  const size_t last = heap_.size() - 1;
  if (pos != last) HeapSwap(pos, last);
  heap_.pop_back();
  if (pos < heap_.size()) HeapFix(pos);
}

void MaintenanceLedger::SaveState(persist::Encoder* enc) const {
  enc->Length(heap_.size());
  for (StructureId id = 0; id < clocks_.size(); ++id) {
    const Clock& clock = clocks_[id];
    if (!clock.tracked) continue;
    enc->U32(id);
    enc->F64(clock.paid_until);
    enc->Money(clock.build_cost);
    enc->F64(clock.failure_scale);
  }
}

Status MaintenanceLedger::RestoreState(persist::Decoder* dec,
                                       const StructureRegistry& registry) {
  clocks_.clear();
  heap_.clear();
  floating_.clear();
  floating_stamp_ = 0;
  uint64_t count = 0;
  dec->Length(count);
  for (uint64_t i = 0; i < count; ++i) {
    StructureId id = 0;
    Clock clock;
    dec->U32(id);
    dec->F64(clock.paid_until);
    dec->Money(clock.build_cost);
    dec->F64(clock.failure_scale);
    CLOUDCACHE_RETURN_IF_ERROR(dec->status());
    if (id >= registry.size()) {
      return Status::InvalidArgument(
          "snapshot maintenance clock references an unknown structure");
    }
    if (IsTracked(id)) {
      return Status::InvalidArgument(
          "snapshot maintenance ledger repeats structure id " +
          std::to_string(id));
    }
    clock.type = registry.key(id).type;
    if (!(clock.failure_scale >= 1.0)) {
      return Status::InvalidArgument(
          "snapshot maintenance clock has a failure scale below 1.0");
    }
    clock.bytes = registry.bytes(id);
    // The deadline heap is rebuilt from the restored clocks, exactly as
    // Register would have built it.
    Track(id, clock);
  }
  return dec->status();
}

}  // namespace cloudcache
