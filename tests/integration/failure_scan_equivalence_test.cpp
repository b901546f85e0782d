// The maintenance-failure scan visits only the clocks its deadline heap
// says may fail. This pin predicts, before every scan, the evictions a
// brute-force walk over all residents makes with footnote 3's exact test
// (tests/testing/failure_scan.h) and demands that each query reports the
// same evictions in the same order — through build churn (forced column,
// index and CPU-node builds, the economy's own investments), companion
// columns judged by their rebuild cost, repeat scans at one `now`, long
// idle spells that fail many structures in one scan, tenant-weighted
// eviction on and off, build latency on and off, and a checkpoint ->
// restore in the middle of the run.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/catalog/tpch.h"
#include "src/econ/budget.h"
#include "src/econ/economy.h"
#include "src/persist/codec.h"
#include "src/query/templates.h"
#include "src/structure/index_advisor.h"
#include "src/util/rng.h"
#include "tests/testing/failure_scan.h"

namespace cloudcache {
namespace {

constexpr size_t kTenants = 3;

using Param = std::tuple<bool, bool>;  // tenant-weighted, build latency.

class FailureScanEquivalenceTest : public ::testing::TestWithParam<Param> {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog(MakeTpchCatalog(100.0));
    templates_ = new std::vector<ResolvedTemplate>(
        *ResolveTemplates(*catalog_, MakeTpchTemplates()));
    indexes_ = new std::vector<StructureKey>(
        RecommendIndexes(*catalog_, *templates_, 65));
  }
  static void TearDownTestSuite() {
    delete indexes_;
    indexes_ = nullptr;
    delete templates_;
    templates_ = nullptr;
    delete catalog_;
    catalog_ = nullptr;
  }

  FailureScanEquivalenceTest()
      : prices_(PriceList::AmazonEc2_2009()),
        model_(catalog_, &prices_),
        registry_(catalog_) {
    engine_ = MakeEngine();
  }

  std::unique_ptr<EconomyEngine> MakeEngine() {
    const auto [weighted, latency] = GetParam();
    EconomyOptions options;
    options.initial_credit = Money::FromDollars(50);
    options.regret_fraction_a = 0.0005;
    options.maintenance_failure_fraction = 0.05;
    options.amortization_horizon = 2000;
    options.model_build_latency = latency;
    options.tenant_weighted_eviction = weighted;
    auto engine = std::make_unique<EconomyEngine>(
        catalog_, &registry_, &model_, EnumeratorOptions{}, options);
    engine->SetIndexCandidates(*indexes_);
    engine->SetTenantCount(kTenants);
    return engine;
  }

  /// Checkpoints the engine and continues on a twin restored from it.
  void CheckpointAndRestore() {
    persist::Encoder enc;
    engine_->SaveState(&enc);
    engine_ = MakeEngine();
    persist::Decoder dec(enc.buffer().data(), enc.size());
    ASSERT_TRUE(engine_->RestoreState(&dec).ok());
    ASSERT_TRUE(dec.AtEnd());
  }

  /// Predicts the scan OnTick(now) makes, runs it, and keeps the
  /// prediction for the next query's outcome.
  void Tick(SimTime now) {
    const testing::FailurePrediction predicted =
        testing::PredictFailureEvictions(*engine_, &registry_, model_, now);
    engine_->OnTick(now);
    Expect(predicted);
  }

  /// Serves one query at `now` and checks its evictions: those of the
  /// ticks since the last query, then its own scan's, in order.
  void Serve(const Query& query, SimTime now) {
    const testing::FailurePrediction predicted =
        testing::PredictFailureEvictions(*engine_, &registry_, model_, now);
    Expect(predicted);
    PlanSpec backend;
    backend.access = PlanSpec::Access::kBackend;
    const ExecutionEstimate quote = model_.EstimateExecution(query, backend);
    const BudgetFunction budget{BudgetShape::kStep, quote.cost * 1.5,
                                quote.time_seconds * 2.0};
    const QueryOutcome outcome = engine_->OnQuery(query, budget, now);
    ASSERT_EQ(outcome.evictions, expected_) << "query " << query.id;
    expected_.clear();
    investments_ += outcome.investments.size();
  }

  void Expect(const testing::FailurePrediction& predicted) {
    expected_.insert(expected_.end(), predicted.evictions.begin(),
                     predicted.evictions.end());
    evictions_ += predicted.evictions.size();
    zero_cost_evictions_ += predicted.zero_cost_evictions;
    scaled_evictions_ += predicted.scaled_evictions;
    max_scan_evictions_ =
        std::max(max_scan_evictions_, predicted.evictions.size());
  }

  /// Force-builds a random index (shipping its absent key columns along
  /// as zero-cost companions), a random column, or a CPU node.
  void ForceChurn(Rng& rng, SimTime now) {
    const uint64_t pick = rng.NextBounded(4);
    if (pick < 2) {
      (void)engine_->ForceBuild(
          (*indexes_)[rng.NextBounded(indexes_->size())], now);
    } else if (pick == 2) {
      const ColumnId col =
          static_cast<ColumnId>(rng.NextBounded(catalog_->num_columns()));
      (void)engine_->ForceBuild(ColumnKey(*catalog_, col), now);
    } else {
      (void)engine_->ForceBuild(CpuNodeKey(static_cast<uint32_t>(rng.NextBounded(2))), now);
    }
  }

  static Catalog* catalog_;
  static std::vector<ResolvedTemplate>* templates_;
  static std::vector<StructureKey>* indexes_;
  PriceList prices_;
  CostModel model_;
  StructureRegistry registry_;
  std::unique_ptr<EconomyEngine> engine_;
  std::vector<StructureId> expected_;
  size_t evictions_ = 0;
  size_t zero_cost_evictions_ = 0;
  size_t scaled_evictions_ = 0;
  size_t max_scan_evictions_ = 0;
  size_t investments_ = 0;
};

Catalog* FailureScanEquivalenceTest::catalog_ = nullptr;
std::vector<ResolvedTemplate>* FailureScanEquivalenceTest::templates_ =
    nullptr;
std::vector<StructureKey>* FailureScanEquivalenceTest::indexes_ = nullptr;

TEST_P(FailureScanEquivalenceTest, DeadlineScanMatchesBruteForceWalk) {
  Rng rng(2024);
  SimTime now = 0;
  constexpr uint64_t kQueries = 3000;
  for (uint64_t id = 0; id < kQueries; ++id) {
    if (id == kQueries / 2) {
      CheckpointAndRestore();
      ASSERT_FALSE(HasFatalFailure());
    }
    // Arrival gaps: repeats at the same `now`, short gaps, and rare idle
    // spells long enough for unpaid rent to fail whole groups at once.
    const uint64_t gap = rng.NextBounded(100);
    if (gap >= 97) {
      now += 2e4 + static_cast<double>(rng.NextBounded(400'000));
    } else if (gap >= 10) {
      now += static_cast<double>(1 + rng.NextBounded(120));
    }
    if (rng.NextBounded(10) == 0) ForceChurn(rng, now);
    // The simulator's rent meter and metered bill tick the economy at the
    // query's own `now`; repeat that here, before and after the query.
    if (rng.NextBounded(3) == 0) Tick(now);
    const int t = static_cast<int>(id % templates_->size());
    Query query = InstantiateQuery((*templates_)[t], *catalog_, rng, t, id);
    query.tenant_id = static_cast<uint32_t>(id % kTenants);
    Serve(query, now);
    ASSERT_FALSE(HasFatalFailure());
    if (rng.NextBounded(3) == 0) Tick(now);
  }
  // The run must actually exercise what it pins.
  EXPECT_GT(evictions_, 200u);
  EXPECT_GT(zero_cost_evictions_, 50u);
  EXPECT_GT(max_scan_evictions_, 10u);
  EXPECT_GT(investments_, 20u);
  if (std::get<0>(GetParam())) {
    EXPECT_GT(scaled_evictions_, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, FailureScanEquivalenceTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string(std::get<0>(info.param) ? "weighted" : "classic") +
             (std::get<1>(info.param) ? "_latency" : "_instant");
    });

}  // namespace
}  // namespace cloudcache
