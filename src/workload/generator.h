#pragma once

#include <cstdint>
#include <vector>

#include "src/catalog/schema.h"
#include "src/persist/codec.h"
#include "src/query/query.h"
#include "src/query/templates.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace cloudcache {

/// Workload shape knobs. Defaults reproduce the evaluation workload of
/// Section VII-A: 7 TPC-H templates whose popularity is skewed and drifts
/// over time ("simulates the query evolution of a million SDSS-like
/// queries"), with the two properties Section VI demands — data access
/// locality (hot templates dominate) and temporal locality (bursts of the
/// same template).
struct WorkloadOptions {
  /// Zipf skew of template popularity (0 = uniform).
  double popularity_skew = 1.0;
  /// After this many queries, the popularity ranking rotates by one
  /// position — the workload's slow evolution. 0 disables drift.
  uint64_t drift_period = 20'000;
  /// Probability the next query repeats the previous template (burstiness
  /// / temporal locality).
  double repeat_probability = 0.3;
  /// Mean seconds between arrivals (the x-axis of Figs. 4 and 5).
  double interarrival_seconds = 10.0;
  /// Fixed (paper-style "inter-query time interval") or Poisson arrivals.
  enum class Arrival { kFixed, kPoisson } arrival = Arrival::kFixed;
  /// Global multiplier on drawn predicate selectivities (hot-region
  /// width; the A5 ablation sweeps it).
  double selectivity_scale = 1.0;
  /// PRNG seed; a run is a pure function of (options, templates, catalog).
  uint64_t seed = 42;
  /// Stamped onto every generated query's `tenant_id` (multi-tenant
  /// simulation; 0 = the classic single stream).
  uint32_t tenant_id = 0;
  /// Rotates the template-popularity ranking by this many positions, on
  /// top of the drift rotation — gives each tenant of a multi-tenant run a
  /// distinct template mix from the same template set. 0 = the base mix.
  size_t popularity_offset = 0;
};

/// Deterministic query stream generator.
class WorkloadGenerator {
 public:
  WorkloadGenerator(const Catalog* catalog,
                    std::vector<ResolvedTemplate> templates,
                    WorkloadOptions options);

  /// Produces the next query; arrival_time advances per the arrival
  /// process and id increments from 0.
  Query Next();

  /// Arrival time the next query will carry.
  SimTime PeekNextArrival() const { return next_arrival_; }

  uint64_t queries_generated() const { return next_id_; }
  const std::vector<ResolvedTemplate>& templates() const {
    return templates_;
  }
  const WorkloadOptions& options() const { return options_; }

  /// Checkpoint support: the RNG position plus the stream cursor (next id,
  /// next arrival, burst memory). The samplers are pure functions of the
  /// configuration and are not saved.
  void SaveState(persist::Encoder* enc) const;
  Status RestoreState(persist::Decoder* dec);

 private:
  /// The snapshot field list, run by SaveState and RestoreState alike.
  template <typename Codec, typename Self>
  static void Fields(Codec& c, Self& self);
  /// Popularity rank of template `index` in the current drift phase.
  size_t RankOf(size_t index, uint64_t phase) const;
  /// Draws the template for the next query.
  size_t DrawTemplate();

  const Catalog* catalog_;
  std::vector<ResolvedTemplate> templates_;
  WorkloadOptions options_;
  Rng rng_;
  ZipfSampler popularity_;
  uint64_t next_id_ = 0;
  SimTime next_arrival_ = 0;
  size_t previous_template_ = 0;
  bool have_previous_ = false;
};

}  // namespace cloudcache
