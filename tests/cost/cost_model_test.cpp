#include "src/cost/cost_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "tests/testing/fixtures.h"

namespace cloudcache {
namespace {

class CostModelTest : public ::testing::Test {
 protected:
  CostModelTest()
      : catalog_(testing::MakeTinyCatalog()),
        prices_(testing::MakeRoundPrices()),
        model_(&catalog_, &prices_) {}

  Catalog catalog_;
  PriceList prices_;
  CostModel model_;
};

TEST_F(CostModelTest, BackendPlanShipsResultOverWan) {
  const Query q = testing::MakeTinyQuery(catalog_, 0.01);
  PlanSpec spec;
  spec.access = PlanSpec::Access::kBackend;
  const ExecutionEstimate est = model_.EstimateExecution(q, spec);
  EXPECT_EQ(est.wan_bytes, q.result_bytes);
  // Time includes the WAN transfer at 12.5 MB/s.
  const double transfer =
      static_cast<double>(q.result_bytes) / 12.5e6;
  EXPECT_GT(est.time_seconds, transfer);
}

TEST_F(CostModelTest, CacheScanHasNoWanTraffic) {
  const Query q = testing::MakeTinyQuery(catalog_, 0.01);
  PlanSpec spec;
  spec.access = PlanSpec::Access::kCacheScan;
  const ExecutionEstimate est = model_.EstimateExecution(q, spec);
  EXPECT_EQ(est.wan_bytes, 0u);
  EXPECT_GT(est.cost.micros(), 0);
}

TEST_F(CostModelTest, ClusteredPredicatePrunesScan) {
  const Query narrow = testing::MakeTinyQuery(catalog_, 0.001);
  const Query wide = testing::MakeTinyQuery(catalog_, 0.5);
  PlanSpec spec;
  spec.access = PlanSpec::Access::kCacheScan;
  const ExecutionEstimate en = model_.EstimateExecution(narrow, spec);
  const ExecutionEstimate ew = model_.EstimateExecution(wide, spec);
  EXPECT_LT(en.io_ops, ew.io_ops);
  EXPECT_LT(en.time_seconds, ew.time_seconds);
}

TEST_F(CostModelTest, NonClusteredPredicateDoesNotPruneScan) {
  Query q = testing::MakeTinyQuery(catalog_, 0.01);
  q.predicates[0].clustered = false;  // Now nothing is clustered.
  PlanSpec spec;
  spec.access = PlanSpec::Access::kCacheScan;
  const ExecutionEstimate est = model_.EstimateExecution(q, spec);
  // Full scan of 3 accessed columns x 8 MB = 24 MB / 8 KiB pages.
  EXPECT_EQ(est.io_ops,
            static_cast<uint64_t>(std::ceil(24e6 / 8192.0)));
}

TEST_F(CostModelTest, IndexProbeBeatsScanForSelectiveQueries) {
  Query q = testing::MakeTinyQuery(catalog_, 0.01);
  // Without clustering the scan cannot skip; the index probe should win.
  q.predicates[0].clustered = false;
  PlanSpec scan;
  scan.access = PlanSpec::Access::kCacheScan;
  PlanSpec index;
  index.access = PlanSpec::Access::kCacheIndex;
  index.covered_predicates = {0, 1};  // sel = 0.01 * 0.5.
  const ExecutionEstimate es = model_.EstimateExecution(q, scan);
  const ExecutionEstimate ei = model_.EstimateExecution(q, index);
  EXPECT_LT(ei.time_seconds, es.time_seconds);
}

TEST_F(CostModelTest, CoveringIndexCheaperThanFetching) {
  const Query q = testing::MakeTinyQuery(catalog_, 0.01);
  PlanSpec fetch;
  fetch.access = PlanSpec::Access::kCacheIndex;
  fetch.covered_predicates = {0};
  PlanSpec covering = fetch;
  covering.covering = true;
  const ExecutionEstimate ef = model_.EstimateExecution(q, fetch);
  const ExecutionEstimate ec = model_.EstimateExecution(q, covering);
  EXPECT_LT(ec.io_ops, ef.io_ops);
}

TEST_F(CostModelTest, ParallelTimeFactorMatchesSdssScalingLaw) {
  // The calibration point of [17]: 2x speedup at 3 nodes with +25% CPU
  // for a job with parallel fraction 0.875.
  EXPECT_NEAR(model_.ParallelTimeFactor(0.875, 3), 0.5, 1e-9);
  EXPECT_NEAR(model_.ParallelCpuFactor(0.875, 3), 1.25, 1e-9);
}

TEST_F(CostModelTest, OneNodeIsNeutral) {
  EXPECT_EQ(model_.ParallelTimeFactor(0.9, 1), 1.0);
  EXPECT_EQ(model_.ParallelCpuFactor(0.9, 1), 1.0);
}

TEST_F(CostModelTest, MoreNodesNeverSlowerButAlwaysMoreCpu) {
  double prev_time = 1.0;
  for (uint32_t k = 2; k <= 8; ++k) {
    const double t = model_.ParallelTimeFactor(0.95, k);
    EXPECT_LT(t, prev_time) << k;
    EXPECT_GT(model_.ParallelCpuFactor(0.95, k), 1.0) << k;
    prev_time = t;
  }
}

TEST_F(CostModelTest, SerialJobGainsNothing) {
  EXPECT_EQ(model_.ParallelTimeFactor(0.0, 4), 1.0);
  EXPECT_EQ(model_.ParallelCpuFactor(0.0, 4), 1.0);
}

TEST_F(CostModelTest, ParallelPlanFasterAndPricier) {
  const Query q = testing::MakeTinyQuery(catalog_, 0.05);
  PlanSpec one;
  one.access = PlanSpec::Access::kCacheScan;
  PlanSpec three = one;
  three.cpu_nodes = 3;
  const ExecutionEstimate e1 = model_.EstimateExecution(q, one);
  const ExecutionEstimate e3 = model_.EstimateExecution(q, three);
  EXPECT_LT(e3.time_seconds, e1.time_seconds);
  EXPECT_GT(e3.cpu_seconds, e1.cpu_seconds);
}

TEST_F(CostModelTest, Eq8CostIsCpuPlusIo) {
  const Query q = testing::MakeTinyQuery(catalog_, 0.01);
  PlanSpec spec;
  spec.access = PlanSpec::Access::kCacheScan;
  const ExecutionEstimate est = model_.EstimateExecution(q, spec);
  const Money expected =
      prices_.CpuCost(est.cpu_seconds) + prices_.IoCost(est.io_ops);
  EXPECT_EQ(est.cost, expected);
}

TEST_F(CostModelTest, Eq9AddsNetworkTerms) {
  const Query q = testing::MakeTinyQuery(catalog_, 0.01);
  PlanSpec spec;
  spec.access = PlanSpec::Access::kBackend;
  const ExecutionEstimate est = model_.EstimateExecution(q, spec);
  // Cost must include S(Q) * cb.
  EXPECT_GE(est.cost, prices_.NetworkCost(q.result_bytes));
}

TEST_F(CostModelTest, CpuNodeBuildCostEq10) {
  // b * u = 100 s * $0.001/s.
  EXPECT_EQ(model_.CpuNodeBuildCost(), Money::FromDollars(0.1));
}

TEST_F(CostModelTest, ColumnBuildCostEq12) {
  const ColumnId col = *catalog_.FindColumn("fact.f_key");
  // 8 MB over 12.5 MB/s = 0.64 s CPU at fn=1 -> $0.00064;
  // 8 MB network at $0.10/GB -> $0.0008.
  const Money expected = Money::FromDollars(0.64 * 0.001) +
                         Money::FromDollars(8e6 * 0.10 / 1e9);
  EXPECT_EQ(model_.ColumnBuildCost(col), expected);
}

TEST_F(CostModelTest, ColumnBuildSecondsIsWanTransfer) {
  const ColumnId col = *catalog_.FindColumn("fact.f_key");
  EXPECT_NEAR(model_.ColumnBuildSeconds(col), 8e6 / 12.5e6, 1e-9);
}

TEST_F(CostModelTest, IndexBuildChargesMissingColumnsEq14) {
  const ColumnId col = *catalog_.FindColumn("fact.f_date");
  const StructureKey index = IndexKey(catalog_, {col});
  std::vector<bool> none(catalog_.num_columns(), false);
  std::vector<bool> all(catalog_.num_columns(), true);
  const Money with_transfer = model_.BuildCost(index, none);
  const Money without_transfer = model_.BuildCost(index, all);
  EXPECT_EQ(with_transfer - without_transfer,
            model_.ColumnBuildCost(col));
  EXPECT_GT(without_transfer.micros(), 0);  // The sort is never free.
}

TEST_F(CostModelTest, BuildCostSplitsIntoFixedAndAbsentKeyColumns) {
  // Only an index's absent key columns depend on residency.
  const ColumnId date = *catalog_.FindColumn("fact.f_date");
  const ColumnId value = *catalog_.FindColumn("fact.f_value");
  const StructureKey index = IndexKey(catalog_, {date, value});
  std::vector<bool> cached(catalog_.num_columns(), false);
  cached[value] = true;
  EXPECT_EQ(model_.AbsentKeyColumnsCost(index, cached),
            model_.ColumnBuildCost(date));
  EXPECT_EQ(model_.BuildCost(index, cached),
            model_.FixedBuildCost(index) + model_.ColumnBuildCost(date));
  for (const StructureKey& key : {ColumnKey(catalog_, date), CpuNodeKey(0)}) {
    EXPECT_TRUE(model_.AbsentKeyColumnsCost(key, cached).IsZero());
    EXPECT_EQ(model_.BuildCost(key, cached), model_.FixedBuildCost(key));
  }
}

TEST_F(CostModelTest, IndexBuildSecondsIncludeTransfers) {
  const ColumnId col = *catalog_.FindColumn("fact.f_date");
  const StructureKey index = IndexKey(catalog_, {col});
  std::vector<bool> none(catalog_.num_columns(), false);
  std::vector<bool> all(catalog_.num_columns(), true);
  EXPECT_GT(model_.IndexBuildSeconds(index, none),
            model_.IndexBuildSeconds(index, all));
}

TEST_F(CostModelTest, MaintenanceRatesEq11Eq13Eq15) {
  const ColumnId col = *catalog_.FindColumn("fact.f_key");
  // Column: 8 MB at $0.10/GB-month for one month.
  EXPECT_EQ(model_.MaintenanceCost(ColumnKey(catalog_, col), kMonth),
            Money::FromDollars(8e6 * 0.10 / 1e9));
  // Index: bigger footprint -> bigger rent.
  EXPECT_GT(
      model_.MaintenanceCost(IndexKey(catalog_, {col}), kMonth),
      model_.MaintenanceCost(ColumnKey(catalog_, col), kMonth));
  // CPU node: reservation rate * time.
  EXPECT_EQ(model_.MaintenanceCost(CpuNodeKey(0), 100.0),
            Money::FromDollars(100.0 * 0.001 * prices_.cpu_reserve_fraction));
}

TEST_F(CostModelTest, MaintenanceZeroForZeroSeconds) {
  const ColumnId col = *catalog_.FindColumn("fact.f_key");
  EXPECT_TRUE(
      model_.MaintenanceCost(ColumnKey(catalog_, col), 0.0).IsZero());
}

TEST_F(CostModelTest, BuildUsageMatchesBuildCost) {
  const ColumnId col = *catalog_.FindColumn("fact.f_value");
  std::vector<bool> none(catalog_.num_columns(), false);
  const StructureKey key = ColumnKey(catalog_, col);
  const BuildUsage usage = model_.EstimateBuildUsage(key, none);
  const Money repriced = prices_.CpuCost(usage.cpu_seconds) +
                         prices_.NetworkCost(usage.wan_bytes) +
                         prices_.IoCost(usage.io_ops);
  EXPECT_EQ(repriced, model_.BuildCost(key, none));
}

TEST_F(CostModelTest, BuildUsageIndexCoversSortAndTransfers) {
  const ColumnId col = *catalog_.FindColumn("fact.f_date");
  std::vector<bool> none(catalog_.num_columns(), false);
  const BuildUsage usage =
      model_.EstimateBuildUsage(IndexKey(catalog_, {col}), none);
  EXPECT_EQ(usage.wan_bytes, catalog_.ColumnBytes(col));
  EXPECT_GT(usage.io_ops, 0u);
  EXPECT_GT(usage.cpu_seconds, 0.0);
}

TEST_F(CostModelTest, NetworkOnlyPricesZeroOutCacheExecution) {
  const PriceList net_only = PriceList::NetworkOnly();
  CostModel model(&catalog_, &net_only);
  const Query q = testing::MakeTinyQuery(catalog_, 0.01);
  PlanSpec cache;
  cache.access = PlanSpec::Access::kCacheScan;
  EXPECT_TRUE(model.EstimateExecution(q, cache).cost.IsZero());
  PlanSpec backend;
  backend.access = PlanSpec::Access::kBackend;
  EXPECT_GT(model.EstimateExecution(q, backend).cost.micros(), 0);
}

TEST_F(CostModelTest, TimeIsPriceIndependent) {
  // Same physical calibration, dollar rates zeroed out: the response-time
  // estimate must not move.
  PriceList net_only = testing::MakeRoundPrices();
  net_only.cpu_second_dollars = 0;
  net_only.disk_byte_second_dollars = 0;
  net_only.io_op_dollars = 0;
  CostModel free_model(&catalog_, &net_only);
  const Query q = testing::MakeTinyQuery(catalog_, 0.02);
  for (auto access : {PlanSpec::Access::kBackend,
                      PlanSpec::Access::kCacheScan}) {
    PlanSpec spec;
    spec.access = access;
    EXPECT_DOUBLE_EQ(free_model.EstimateExecution(q, spec).time_seconds,
                     model_.EstimateExecution(q, spec).time_seconds);
  }
}

TEST_F(CostModelTest, BackendCrossesOverBetweenScanAndProbe) {
  // With a clustered predicate the back-end's region scan reads
  // sel * 24 MB = 24 KB (3 pages) — cheaper than fetching 500 scattered
  // rows at the x8 random penalty (96 KB -> 12 ops). Remove the
  // clustering and the scan alternative balloons to the whole table, so
  // the back-end flips to the probe.
  Query q = testing::MakeTinyQuery(catalog_, 0.001);
  PlanSpec backend;
  backend.access = PlanSpec::Access::kBackend;
  const ExecutionEstimate clustered = model_.EstimateExecution(q, backend);
  EXPECT_EQ(clustered.io_ops, 3u);  // ceil(24 KB / 8 KiB).
  q.predicates[0].clustered = false;
  const ExecutionEstimate probing = model_.EstimateExecution(q, backend);
  EXPECT_EQ(probing.io_ops, 12u);  // ceil(500 * 24 B * 8 / 8 KiB).
  EXPECT_LT(clustered.io_ops, probing.io_ops);
}

TEST_F(CostModelTest, BackendScansWhenBroad) {
  // Broad query (50% selectivity): fetching half the rows at the random
  // penalty would read 4x the clustered region; the back-end scans.
  Query q = testing::MakeTinyQuery(catalog_, 0.5);
  q.predicates[1].selectivity = 1.0;  // Only the clustered predicate.
  PlanSpec backend;
  backend.access = PlanSpec::Access::kBackend;
  PlanSpec scan;
  scan.access = PlanSpec::Access::kCacheScan;
  const ExecutionEstimate backend_est = model_.EstimateExecution(q, backend);
  const ExecutionEstimate scan_est = model_.EstimateExecution(q, scan);
  // Same access volume as the cache scan (plus WAN shipping on top).
  EXPECT_EQ(backend_est.io_ops, scan_est.io_ops);
  EXPECT_GT(backend_est.time_seconds, scan_est.time_seconds);
}

TEST_F(CostModelTest, BackendPathIsNeverWorseThanEitherAlternative) {
  // The min() in the backend model: its I/O never exceeds what either
  // pure path would pay, across the selectivity range.
  for (double sel : {0.0001, 0.001, 0.01, 0.1, 0.5, 1.0}) {
    Query q = testing::MakeTinyQuery(catalog_, sel);
    PlanSpec backend;
    backend.access = PlanSpec::Access::kBackend;
    const uint64_t backend_io =
        model_.EstimateExecution(q, backend).io_ops;
    // Pure scan alternative.
    PlanSpec scan;
    scan.access = PlanSpec::Access::kCacheScan;
    const uint64_t scan_io = model_.EstimateExecution(q, scan).io_ops;
    EXPECT_LE(backend_io, scan_io + 1) << "sel=" << sel;
  }
}

class NodeSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(NodeSweep, TimeFactorWithinBounds) {
  const Catalog catalog = testing::MakeTinyCatalog();
  const PriceList prices = testing::MakeRoundPrices();
  const CostModel model(&catalog, &prices);
  const uint32_t k = GetParam();
  const double factor = model.ParallelTimeFactor(0.9, k);
  EXPECT_GT(factor, 0.0);
  EXPECT_LE(factor, 1.0);
  // Never better than perfect linear speedup.
  EXPECT_GE(factor, 1.0 / static_cast<double>(k) - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Nodes, NodeSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 16));

}  // namespace
}  // namespace cloudcache
