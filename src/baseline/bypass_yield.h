#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "src/baseline/scheme.h"
#include "src/cache/cache_state.h"
#include "src/cost/cost_model.h"
#include "src/structure/structure.h"

namespace cloudcache {

/// The paper's comparison baseline: bypass-yield caching [14], "emulated
/// by associating cost only with network bandwidth … This cache, denoted
/// as net-only, tries to reduce the network bandwidth and caches only
/// table columns" with "the ideal cache size for net-only, which is 30% of
/// the total database size", and "avoids using indexes to speed up
/// queries" (Section VII-A).
///
/// Mechanism (after Malik et al., ICDE'05): every query served over the
/// network accrues, on each column it accessed, the WAN bytes that a cache
/// hit would have saved. A column's *yield* is accrued-savable-bytes per
/// byte of cache space. A column is loaded once its accrued savings reach
/// yield_threshold x its size; when the 30% budget is full, a candidate
/// displaces resident columns only if its yield beats theirs. Accruals age
/// (halve) periodically so the cache tracks workload drift.
class BypassYieldScheme : public Scheme {
 public:
  struct Options {
    /// Cache budget as a fraction of the database size (0.30 = ideal [14]).
    double cache_fraction = 0.30;
    /// A column becomes loadable when accrued savable bytes reach this
    /// multiple of its size (1.0 = network break-even).
    double yield_threshold = 1.0;
    /// Every this many queries, all accruals halve.
    uint64_t aging_interval = 5000;
    std::string name = "bypass";
  };

  BypassYieldScheme(const Catalog* catalog, Options options);

  const std::string& name() const override { return options_.name; }
  ServedQuery OnQuery(const Query& query, SimTime now) override;
  const CacheState& cache() const override { return cache_; }

  /// Accrued savable bytes of a column (for tests).
  uint64_t AccruedBytes(ColumnId column) const;
  uint64_t cache_budget_bytes() const { return budget_bytes_; }

  bool SupportsCheckpoint() const override { return true; }
  void SaveState(persist::Encoder* enc) const override;
  Status RestoreState(persist::Decoder* dec) override;

 private:
  /// The snapshot field list, run by SaveState and RestoreState alike.
  template <typename Codec, typename Self>
  static void Fields(Codec& c, Self& self);
  /// Yield of a column = accrued / size.
  double YieldOf(ColumnId column) const;
  /// Tries to load `column`, displacing lower-yield residents if needed.
  /// Returns true (and fills usage) if loaded.
  bool TryLoad(ColumnId column, SimTime now, BuildUsage* usage,
               uint32_t* evictions);

  const Catalog* catalog_;
  Options options_;
  /// Bypass-yield prices everything at network-only rates internally; the
  /// execution-time estimates it reports are price-independent.
  PriceList decision_prices_;
  StructureRegistry registry_;
  CostModel model_;
  CacheState cache_;
  uint64_t budget_bytes_;
  std::vector<uint64_t> accrued_;  // Per ColumnId, savable bytes.
  uint64_t queries_seen_ = 0;
};

}  // namespace cloudcache
