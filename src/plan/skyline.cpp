#include "src/plan/skyline.h"

#include <algorithm>

namespace cloudcache {

namespace {

/// The one definition of skyline dominance: streams one plan's key into
/// its partition's Pareto frontier, kept sorted by ascending time /
/// strictly descending price. Keys arrive in ascending plan index. A plan
/// survives iff its price is strictly below every strictly-faster plan's
/// minimum price and it is the (price, index)-minimum of its equal-time
/// group, so price ties within a time group keep the earliest plan
/// (stable). Prices are int64 micro-dollars, so the surviving set matches
/// comparing times and Money prices. The final frontier is exactly the
/// set a (time, price, index) sort-and-scan would emit, in the same order,
/// but it stays a handful of entries while the input is tens of plans —
/// linear insertion over it beats sorting the plans every query.
void Insert(const SkylineScratch::Key& key,
            std::vector<SkylineScratch::Key>* frontier) {
  // First frontier slot at or past this key's time. Everything before
  // `pos` is strictly faster; prices strictly fall with time, so the
  // entry at pos-1 carries the minimum price among faster survivors.
  size_t pos = 0;
  while (pos < frontier->size() && (*frontier)[pos].time < key.time) {
    ++pos;
  }
  if (pos > 0 && (*frontier)[pos - 1].price <= key.price) {
    return;  // A faster plan is no more expensive: dominated.
  }
  if (pos < frontier->size() && (*frontier)[pos].time == key.time &&
      (*frontier)[pos].price <= key.price) {
    return;  // Its time group already has a (price, index)-smaller key.
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

}  // namespace

void SkylineIndicesInto(const PlanSet& in, std::vector<size_t>* out,
                        SkylineScratch* scratch) {
  out->clear();
  // The cheapest family of each (shape class, base residency) group: only
  // a strictly lower price takes over, so ties stay with the lowest index.
  // A group's families share each variant's Ce and node count, so their
  // prices differ by their base charges alone.
  std::vector<uint32_t>& best = scratch->group_best;
  best.assign(2 * in.families.size(), UINT32_MAX);
  const auto group = [&](const PlanFamily& family) -> uint32_t& {
    return best[2 * family.shape_class + in.existing[family.first]];
  };
  for (uint32_t f = 0; f < in.families.size(); ++f) {
    uint32_t& cheapest = group(in.families[f]);
    if (cheapest == UINT32_MAX ||
        in.base_micros[f] < in.base_micros[cheapest]) {
      cheapest = f;
    }
  }
  scratch->scanned.clear();
  for (uint32_t f = 0; f < in.families.size(); ++f) {
    if (group(in.families[f]) == f) scratch->scanned.push_back(f);
  }
  // One pass in plan order feeds each plan to its partition's frontier,
  // so ties resolve to the earliest plan of each partition. A variant's
  // price is Price(i), summed here from the family's hoisted slot and
  // base.
  std::vector<SkylineScratch::Key>* frontier = scratch->frontier;
  frontier[0].clear();
  frontier[1].clear();
  const uint8_t* existing = in.existing.data();
  const uint32_t* nodes = in.nodes.data();
  const double* time = in.time.data();
  const int64_t* ce = in.ce_micros.data();
  const int64_t* prefix = in.cpu_prefix_micros.data();
  for (uint32_t f : scratch->scanned) {
    const PlanFamily& family = in.families[f];
    const uint32_t slot = in.families[family.shape_class].first;
    const int64_t base = in.base_micros[f];
    for (uint32_t k = 0; k < family.count; ++k) {
      const size_t i = family.first + k;
      Insert({time[slot + k], ce[slot + k] + base + prefix[nodes[i] - 1], i},
             &frontier[existing[i]]);
    }
  }
  // Existing plans first, then possible, each in ascending-time order.
  for (const int partition : {1, 0}) {
    for (const SkylineScratch::Key& key : frontier[partition]) {
      out->push_back(key.index);
    }
  }
}

}  // namespace cloudcache
