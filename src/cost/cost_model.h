#pragma once

#include <cstdint>
#include <vector>

#include "src/catalog/schema.h"
#include "src/cost/price_list.h"
#include "src/query/query.h"
#include "src/structure/structure.h"
#include "src/util/money.h"

namespace cloudcache {

/// Physical shape of a query plan, independent of the economy: where it
/// runs, how it accesses data, and how many CPU nodes it spreads over.
struct PlanSpec {
  enum class Access {
    /// Run completely in the back-end database; ship S(Q) over the WAN
    /// (Eq. 9). The back-end is assumed fully indexed — "the best possible
    /// scenario for the back-end database" (Section VII-A).
    kBackend,
    /// Column scan over cached columns (Eq. 8), skipping to the region
    /// selected by clustered predicates.
    kCacheScan,
    /// Probe a cache-resident index, then fetch qualifying rows from
    /// cached columns (or from the index itself if it covers the query).
    kCacheIndex,
  };

  Access access = Access::kBackend;
  /// For kCacheIndex: positions into Query::predicates that the index key
  /// covers (their selectivities multiply into the probe selectivity).
  std::vector<size_t> covered_predicates;
  /// For kCacheIndex: true if the index key contains every accessed
  /// column, so no row fetch into base columns is needed.
  bool covering = false;
  /// CPU nodes employed (>= 1); only cache plans parallelize.
  uint32_t cpu_nodes = 1;
};

/// Everything the economy needs to know about executing one plan: the
/// response time the user sees and the resources (and money, Eq. 8/9) the
/// execution consumes.
struct ExecutionEstimate {
  /// Response time in seconds (for backend plans this includes the WAN
  /// transfer of the result to the cache).
  double time_seconds = 0;
  /// Billable CPU-seconds across all nodes, including the parallel
  /// coordination overhead and (for backend plans) fn * transfer time.
  double cpu_seconds = 0;
  /// Logical I/O operations (after the fio conversion).
  uint64_t io_ops = 0;
  /// Bytes moved across the WAN (S(Q) for backend plans, 0 in cache).
  uint64_t wan_bytes = 0;
  /// Execution cost Ce of the plan (Eq. 8 for cache, Eq. 9 for backend) at
  /// the model's price list.
  Money cost;
};

/// Raw physical resources consumed by building a structure, independent of
/// any price list; the simulator meters these at the real (EC2) rates even
/// when the deciding scheme priced them differently.
struct BuildUsage {
  double cpu_seconds = 0;
  uint64_t wan_bytes = 0;
  uint64_t io_ops = 0;

  BuildUsage& operator+=(const BuildUsage& other) {
    cpu_seconds += other.cpu_seconds;
    wan_bytes += other.wan_bytes;
    io_ops += other.io_ops;
    return *this;
  }
};

/// The paper's cost model (Section V): prices query plans (Eq. 8, 9) and
/// structures (Eq. 10-15) against a PriceList.
///
/// A CostModel is a pure function of (catalog, prices); the same query and
/// spec always produce the same estimate, which the tests rely on. Schemes
/// with different beliefs (e.g. the network-only baseline) simply hold a
/// CostModel over a different PriceList.
class CostModel {
 public:
  CostModel(const Catalog* catalog, const PriceList* prices)
      : catalog_(catalog), prices_(prices) {}

  /// Estimates execution of `query` under `spec` (Eq. 8 / Eq. 9).
  ExecutionEstimate EstimateExecution(const Query& query,
                                      const PlanSpec& spec) const;

  /// The spec-independent intermediates of EstimateExecution for one plan
  /// family — a (access, covered_predicates, covering) shape. Every
  /// cpu_nodes variant of the family shares these exactly; only the
  /// parallel time/cpu factors and the WAN terms differ per variant.
  struct ExecutionBase {
    double cpu_serial = 0;
    uint64_t io_ops = 0;
    double io_seconds = 0;
    /// IoCost(io_ops): the I/O share of Ce, identical for every variant.
    Money io_cost;
  };

  /// Batched estimation over one query instance.
  ///
  /// The enumerator prices every plan family of a query with the same
  /// instance selectivities. The estimator computes the per-query
  /// invariants (accessed width, the clustered-scan fraction, the
  /// parallel factors of every node count) once per Reset, the
  /// ExecutionBase once per family, and finalizes each variant from the
  /// shared base — producing bit-identical results to calling
  /// EstimateExecution per spec, because the identical floating-point
  /// expressions run on identical inputs, just fewer times.
  class BatchEstimator {
   public:
    /// `node_counts`: every CPU-node count EstimateFamily will be asked
    /// for besides 1 (each >= 1).
    BatchEstimator(const CostModel* model,
                   const std::vector<uint32_t>& node_counts);

    /// Starts a new query instance: recomputes the per-query invariants.
    /// The query must outlive the batch.
    void Reset(const Query& query);

    /// Prices the family of `shape` for the query of the last Reset:
    /// for k < count, writes the response time and Ce (micro-dollars) of
    /// `shape` run on nodes[k] CPU nodes into time[k] and cost_micros[k]
    /// — the same bits as EstimateExecution's time_seconds and cost.
    void EstimateFamily(const PlanSpec& shape, const uint32_t* nodes,
                        size_t count, double* time, int64_t* cost_micros);

   private:
    const CostModel* model_;
    const Query* query_ = nullptr;
    std::vector<uint32_t> node_counts_;
    /// Sum of the accessed columns' storage widths (bytes).
    uint64_t accessed_width_ = 0;
    /// Product of the clustered predicates' selectivities.
    double clustered_fraction_ = 1.0;
    /// ParallelTimeFactor/ParallelCpuFactor of the query for each node
    /// count, indexed by the count; sized once at construction.
    std::vector<double> time_factors_;
    std::vector<double> cpu_factors_;
  };

  /// Speedup-normalized elapsed-time factor of running on `nodes` CPU
  /// nodes a job with the given parallel fraction: the SDSS scaling law of
  /// [17] generalized as time(k)/time(1) = (1-f) + f*(1+a(k-1))/k.
  double ParallelTimeFactor(double parallel_fraction, uint32_t nodes) const;
  /// Total-CPU inflation factor: cpu(k)/cpu(1) = (1-f) + f*(1+a(k-1)).
  double ParallelCpuFactor(double parallel_fraction, uint32_t nodes) const;

  /// BuildN (Eq. 10): boot time x usage rate; constant.
  Money CpuNodeBuildCost() const;
  /// BuildT (Eq. 12): WAN transfer of the column plus the CPU tied up
  /// managing the transfer.
  Money ColumnBuildCost(ColumnId column) const;
  /// Seconds the WAN transfer of a column takes (build latency).
  double ColumnBuildSeconds(ColumnId column) const;
  /// Seconds to build an index: transfer of missing columns plus the sort
  /// query's execution time.
  double IndexBuildSeconds(const StructureKey& index,
                           const std::vector<bool>& column_cached) const;

  /// Build cost of any structure: BuildN (Eq. 10), BuildT (Eq. 12), or
  /// BuildI (Eq. 14) — the sort-query plan cost plus BuildT of every key
  /// column not already cached (`column_cached[c]` reports residency).
  /// Always FixedBuildCost + AbsentKeyColumnsCost.
  Money BuildCost(const StructureKey& key,
                  const std::vector<bool>& column_cached) const;
  /// The residency-free part of BuildCost: all of BuildN or BuildT, or
  /// Ce of an index's sort query.
  Money FixedBuildCost(const StructureKey& key) const;
  /// The residency-dependent part of BuildCost: BuildT summed over an
  /// index's key columns absent from the cache; zero for columns and CPU
  /// nodes.
  Money AbsentKeyColumnsCost(const StructureKey& key,
                             const std::vector<bool>& column_cached) const;
  /// Build latency of any structure (boot_seconds for CPU nodes).
  double BuildSeconds(const StructureKey& key,
                      const std::vector<bool>& column_cached) const;

  /// Raw physical resources a build consumes (for metering at rates other
  /// than this model's own price list).
  BuildUsage EstimateBuildUsage(const StructureKey& key,
                                const std::vector<bool>& column_cached) const;

  /// Maintenance accrued by a structure over `seconds` (Eq. 11, 13, 15):
  /// disk rent for columns/indexes, reservation rent for CPU nodes.
  Money MaintenanceCost(const StructureKey& key, double seconds) const;

  /// MaintenanceCost with the structure's disk footprint already in hand.
  /// `type` is the key's type and `bytes` must equal StructureBytes(catalog,
  /// key); callers on the per-query rent path (the maintenance ledger)
  /// cache both once at registration instead of re-walking the catalog per
  /// pricing call.
  Money MaintenanceCostSized(StructureType type, uint64_t bytes,
                             double seconds) const;

  /// Dollars of rent per second that MaintenanceCostSized charges before
  /// rounding: its result is Money::FromDollars(seconds x this), up to
  /// the order of the float products. The maintenance ledger estimates
  /// failure deadlines from it (and verifies them by pricing).
  double MaintenanceRate(StructureType type, uint64_t bytes) const;

  /// The synthetic sort query whose execution cost approximates index
  /// construction ("select <keys> from T order by <keys>", Section V-C).
  Query MakeIndexBuildQuery(const StructureKey& index) const;

  const Catalog& catalog() const { return *catalog_; }
  const PriceList& prices() const { return *prices_; }

 private:
  /// Access-path + CPU phase of EstimateExecution: everything that does
  /// not depend on spec.cpu_nodes. `accessed_width` is the byte sum of
  /// the query's accessed columns and `clustered_fraction` the product of
  /// its clustered predicates' selectivities — hoisted so the batch path
  /// computes each once per query; the expressions below them replicate
  /// the single-shot path exactly (bit-identical by construction).
  ExecutionBase EstimateExecutionBase(const Query& query,
                                      const PlanSpec& spec,
                                      uint64_t accessed_width,
                                      double clustered_fraction) const;
  /// Variant phase: parallel factors, pricing, and WAN terms.
  ExecutionEstimate FinalizeExecution(const Query& query,
                                      const PlanSpec& spec,
                                      const ExecutionBase& base) const;
  /// FinalizeExecution with the parallel factors supplied by the caller
  /// (the batch path computes them once per (query, node count)); the factors
  /// must be exactly Parallel{Time,Cpu}Factor(query.parallel_fraction, n)
  /// for the spec's effective node count, so the arithmetic below is
  /// bit-identical to the self-computing overload.
  ExecutionEstimate FinalizeExecutionWithFactors(const Query& query,
                                                 const PlanSpec& spec,
                                                 const ExecutionBase& base,
                                                 double time_factor,
                                                 double cpu_factor) const;

  const Catalog* catalog_;
  const PriceList* prices_;
};

}  // namespace cloudcache
