#include "src/plan/skyline.h"

#include <algorithm>

namespace cloudcache {

namespace {

/// The one definition of skyline dominance, run once per partition:
/// streams the partition's plans (those whose is-existing bit equals
/// `existing`), in ascending plan index, through a Pareto frontier kept
/// sorted by ascending time / strictly descending price, then invokes
/// `keep(idx)` for the final frontier in ascending-time order. A plan
/// survives iff its price is strictly below every strictly-faster plan's
/// minimum price and it is the (price, index)-minimum of its equal-time
/// group; plans arrive in ascending index, so price ties within a time
/// group keep the earliest plan (stable). Prices are int64 micro-dollars,
/// so the surviving set matches comparing times and Money prices. This
/// emits exactly the set a (time, price, index) sort-and-scan would, in
/// the same order, but the frontier stays a handful of entries while the
/// input is tens of plans — linear insertion over it beats sorting the
/// plans every query, and reading the columns in place beats gathering
/// them into per-partition key arrays first.
template <typename KeepFn>
void ScanSkyline(const PlanSet& in, uint8_t existing,
                 std::vector<SkylineScratch::Key>* frontier, KeepFn&& keep) {
  frontier->clear();
  const size_t n = in.time.size();
  for (size_t i = 0; i < n; ++i) {
    if (in.existing[i] != existing) continue;
    const SkylineScratch::Key key{in.time[i], in.price_micros[i], i};
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

}  // namespace

void SkylineIndicesInto(const PlanSet& in, std::vector<size_t>* out,
                        SkylineScratch* scratch) {
  out->clear();
  const auto keep = [&](size_t idx) { out->push_back(idx); };
  // Existing plans first, then possible — each partition is scanned in
  // plan order, so ties resolve to the earliest plan of each partition.
  ScanSkyline(in, 1, &scratch->frontier, keep);
  ScanSkyline(in, 0, &scratch->frontier, keep);
}

}  // namespace cloudcache
