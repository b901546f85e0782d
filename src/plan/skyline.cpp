#include "src/plan/skyline.h"

#include <algorithm>

namespace cloudcache {

namespace {

/// The one definition of skyline dominance, run once per partition:
/// streams the packed keys through a Pareto frontier kept sorted by
/// ascending time / strictly descending price, then invokes `keep(idx)`
/// for the final frontier in ascending-time order. A key survives iff its
/// price is strictly below every strictly-faster plan's minimum price and
/// it is the (price, index)-minimum of its equal-time group; keys arrive
/// in ascending plan index, so price ties within a time group keep the
/// earliest plan (stable). Money comparison is int64 comparison, so the
/// surviving set matches comparing TimeSeconds() and Price() on the
/// plans. This emits exactly the set a (time, price, index) sort-and-scan
/// would, in the same order, but the frontier stays a handful of entries
/// while the input is tens of plans — linear insertion over it beats
/// sorting the whole key array every query.
template <typename KeepFn>
void ScanSkyline(const std::vector<SkylineScratch::Key>& keys,
                 std::vector<SkylineScratch::Key>* frontier, KeepFn&& keep) {
  frontier->clear();
  for (const SkylineScratch::Key& key : keys) {
    // First frontier slot at or past this key's time. Everything before
    // `pos` is strictly faster; prices strictly fall with time, so the
    // entry at pos-1 carries the minimum price among faster survivors.
    size_t pos = 0;
    while (pos < frontier->size() && (*frontier)[pos].time < key.time) ++pos;
    if (pos > 0 && (*frontier)[pos - 1].price <= key.price) {
      continue;  // A faster plan is no more expensive: dominated.
    }
    if (pos < frontier->size() && (*frontier)[pos].time == key.time &&
        (*frontier)[pos].price <= key.price) {
      continue;  // Its time group already has a (price, index)-smaller key.
    }
    // The key survives; it evicts every no-faster entry that is now no
    // cheaper (for an equal-time entry that means strictly pricier — the
    // group-first changes hands).
    size_t end = pos;
    while (end < frontier->size() && (*frontier)[end].price >= key.price) {
      ++end;
    }
    if (end == pos) {
      frontier->insert(frontier->begin() + pos, key);
    } else {
      (*frontier)[pos] = key;
      frontier->erase(frontier->begin() + pos + 1, frontier->begin() + end);
    }
  }
  for (const SkylineScratch::Key& key : *frontier) keep(key.index);
}

/// Partitions `in` into packed sort keys in one pass: existing plans'
/// keys into `existing`, hypothetical plans' into `possible`, each in
/// ascending plan index (as stability requires).
void FillPartitions(const PlanSet& in, std::vector<SkylineScratch::Key>* existing,
                    std::vector<SkylineScratch::Key>* possible) {
  existing->clear();
  possible->clear();
  for (size_t i = 0; i < in.plans.size(); ++i) {
    const QueryPlan& plan = in.plans[i];
    (plan.IsExisting() ? existing : possible)
        ->push_back(SkylineScratch::Key{plan.TimeSeconds(),
                                        plan.Price().micros(), i});
  }
}

}  // namespace

void SkylineIndicesInto(const PlanSet& in, std::vector<size_t>* out,
                        SkylineScratch* scratch) {
  out->clear();
  const auto keep = [&](size_t idx) { out->push_back(idx); };
  // Existing plans first, then possible — each partition keeps its
  // original relative order going into the scan, so ties resolve to the
  // earliest plan of each partition.
  FillPartitions(in, &scratch->existing_keys, &scratch->possible_keys);
  ScanSkyline(scratch->existing_keys, &scratch->frontier, keep);
  ScanSkyline(scratch->possible_keys, &scratch->frontier, keep);
}

}  // namespace cloudcache
