#include "src/plan/skyline.h"

#include <algorithm>

namespace cloudcache {

namespace {

/// The one definition of skyline dominance, run once per partition:
/// streams the partition's plans (those whose is-existing bit equals
/// `existing`) of `families` (ascending), in ascending plan index,
/// through a Pareto frontier kept sorted by ascending time / strictly
/// descending price, then appends the final frontier's indices to `out`
/// in ascending-time order. A plan survives iff its price is strictly
/// below every strictly-faster plan's minimum price and it is the
/// (price, index)-minimum of its equal-time group; plans arrive in
/// ascending index, so price ties within a time group keep the earliest
/// plan (stable). Prices are int64 micro-dollars, so the surviving set
/// matches comparing times and Money prices. This emits exactly the set
/// a (time, price, index) sort-and-scan would, in the same order, but the
/// frontier stays a handful of entries while the input is tens of plans
/// — linear insertion over it beats sorting the plans every query, and
/// reading the columns in place beats gathering them into per-partition
/// key arrays first.
void ScanSkyline(const PlanSet& in, const std::vector<uint32_t>& families,
                 uint8_t existing, std::vector<SkylineScratch::Key>* frontier,
                 std::vector<size_t>* out) {
  frontier->clear();
  for (uint32_t f : families) {
    const PlanFamily& family = in.families[f];
    for (size_t i = family.first; i < family.first + family.count; ++i) {
      if (in.existing[i] != existing) continue;
      const SkylineScratch::Key key{in.time[i], in.price_micros[i], i};
      // First frontier slot at or past this key's time. Everything before
      // `pos` is strictly faster; prices strictly fall with time, so the
      // entry at pos-1 carries the minimum price among faster survivors.
      size_t pos = 0;
      while (pos < frontier->size() && (*frontier)[pos].time < key.time) {
        ++pos;
      }
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
  }
  for (const SkylineScratch::Key& key : *frontier) out->push_back(key.index);
}

}  // namespace

void SkylineIndicesInto(const PlanSet& in, std::vector<size_t>* out,
                        SkylineScratch* scratch) {
  out->clear();
  // The cheapest family of each (shape class, base residency) group: only
  // a strictly lower price takes over, so ties stay with the lowest index.
  std::vector<uint32_t>& best = scratch->group_best;
  best.assign(2 * in.families.size(), UINT32_MAX);
  const auto group = [&](const PlanFamily& family) -> uint32_t& {
    return best[2 * family.shape_class + in.existing[family.first]];
  };
  for (uint32_t f = 0; f < in.families.size(); ++f) {
    uint32_t& cheapest = group(in.families[f]);
    if (cheapest == UINT32_MAX ||
        in.price_micros[in.families[f].first] <
            in.price_micros[in.families[cheapest].first]) {
      cheapest = f;
    }
  }
  scratch->scanned.clear();
  for (uint32_t f = 0; f < in.families.size(); ++f) {
    if (group(in.families[f]) == f) scratch->scanned.push_back(f);
  }
  // Existing plans first, then possible — each partition is scanned in
  // plan order, so ties resolve to the earliest plan of each partition.
  ScanSkyline(in, scratch->scanned, 1, &scratch->frontier, out);
  ScanSkyline(in, scratch->scanned, 0, &scratch->frontier, out);
}

}  // namespace cloudcache
