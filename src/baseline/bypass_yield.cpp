#include "src/baseline/bypass_yield.h"

#include <algorithm>

#include "src/util/logging.h"

namespace cloudcache {

BypassYieldScheme::BypassYieldScheme(const Catalog* catalog, Options options)
    : catalog_(catalog),
      options_(options),
      decision_prices_(PriceList::NetworkOnly()),
      registry_(catalog),
      model_(catalog, &decision_prices_),
      cache_(&registry_),
      accrued_(catalog->num_columns(), 0) {
  budget_bytes_ = static_cast<uint64_t>(
      static_cast<double>(catalog->TotalBytes()) * options_.cache_fraction);
}

double BypassYieldScheme::YieldOf(ColumnId column) const {
  const uint64_t size = catalog_->ColumnBytes(column);
  if (size == 0) return 0;
  return static_cast<double>(accrued_[column]) / static_cast<double>(size);
}

uint64_t BypassYieldScheme::AccruedBytes(ColumnId column) const {
  CLOUDCACHE_CHECK_LT(column, accrued_.size());
  return accrued_[column];
}

bool BypassYieldScheme::TryLoad(ColumnId column, SimTime now,
                                BuildUsage* usage, uint32_t* evictions) {
  const uint64_t size = catalog_->ColumnBytes(column);
  if (size > budget_bytes_) return false;
  const double my_yield = YieldOf(column);

  // Displace the lowest-yield residents while that frees enough space and
  // every displaced column yields less than the newcomer.
  std::vector<StructureId> residents =
      cache_.ResidentsOfType(StructureType::kColumn);
  std::sort(residents.begin(), residents.end(),
            [&](StructureId a, StructureId b) {
              return YieldOf(registry_.key(a).columns.front()) <
                     YieldOf(registry_.key(b).columns.front());
            });
  std::vector<StructureId> to_evict;
  uint64_t free_bytes = budget_bytes_ - cache_.resident_bytes();
  size_t next = 0;
  while (free_bytes < size && next < residents.size()) {
    const StructureId victim = residents[next++];
    if (YieldOf(registry_.key(victim).columns.front()) >= my_yield) {
      return false;  // Everything still resident is at least as valuable.
    }
    to_evict.push_back(victim);
    free_bytes += registry_.bytes(victim);
  }
  if (free_bytes < size) return false;

  for (StructureId victim : to_evict) {
    CLOUDCACHE_CHECK(cache_.Remove(victim).ok());
    ++*evictions;
  }
  const StructureId id = registry_.Intern(ColumnKey(*catalog_, column));
  CLOUDCACHE_CHECK(cache_.Add(id, now).ok());
  *usage += model_.EstimateBuildUsage(registry_.key(id),
                                      cache_.column_residency());
  accrued_[column] = 0;  // Paid off; start earning again.
  return true;
}

ServedQuery BypassYieldScheme::OnQuery(const Query& query, SimTime now) {
  ++queries_seen_;
  if (queries_seen_ % options_.aging_interval == 0) {
    for (uint64_t& accrued : accrued_) accrued /= 2;
  }

  const std::vector<ColumnId>& accessed = query.AccessedColumns();
  const bool hit = std::all_of(accessed.begin(), accessed.end(),
                               [&](ColumnId col) {
                                 return cache_.ColumnResident(col);
                               });

  ServedQuery out;
  out.served = true;
  out.spec.access =
      hit ? PlanSpec::Access::kCacheScan : PlanSpec::Access::kBackend;
  out.spec.cpu_nodes = 1;
  out.execution = model_.EstimateExecution(query, out.spec);

  if (hit) {
    for (ColumnId col : accessed) {
      cache_.Touch(registry_.Intern(ColumnKey(*catalog_, col)), now);
    }
    return out;
  }

  // Served over the network: each accessed column accrues the WAN bytes a
  // hit would have saved, then columns past break-even get loaded
  // (greedily, highest yield first).
  for (ColumnId col : accessed) accrued_[col] += query.result_bytes;

  std::vector<ColumnId> loadable;
  for (ColumnId col : accessed) {
    if (cache_.ColumnResident(col)) continue;
    const uint64_t size = catalog_->ColumnBytes(col);
    if (static_cast<double>(accrued_[col]) >=
        options_.yield_threshold * static_cast<double>(size)) {
      loadable.push_back(col);
    }
  }
  std::sort(loadable.begin(), loadable.end(), [&](ColumnId a, ColumnId b) {
    if (YieldOf(a) != YieldOf(b)) return YieldOf(a) > YieldOf(b);
    return a < b;
  });
  for (ColumnId col : loadable) {
    if (TryLoad(col, now, &out.build_usage, &out.evictions)) {
      ++out.investments;
    }
  }
  return out;
}

template <typename Codec, typename Self>
void BypassYieldScheme::Fields(Codec& c, Self& self) {
  c.Nested(self.registry_);
  c.Nested(self.cache_);
  c.Seq(self.accrued_, [&c](auto& accrued) { c.U64(accrued); });
  c.U64(self.queries_seen_);
}

void BypassYieldScheme::SaveState(persist::Encoder* enc) const {
  Fields(*enc, *this);
}

Status BypassYieldScheme::RestoreState(persist::Decoder* dec) {
  const size_t columns = accrued_.size();
  Fields(*dec, *this);
  CLOUDCACHE_RETURN_IF_ERROR(dec->status());
  if (accrued_.size() != columns) {
    return Status::FailedPrecondition(
        "snapshot tracks " + std::to_string(accrued_.size()) +
        " columns but this catalog has " + std::to_string(columns));
  }
  return Status::OK();
}

}  // namespace cloudcache
