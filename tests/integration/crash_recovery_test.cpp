// Crash-injection harness: kill a run mid-flight (no finalization, no
// snapshot at the crash point), restore from the last periodic checkpoint,
// continue — and pin that save → load → continue is bit-identical to the
// uninterrupted run, across every scheme, the multi-tenant merge, and the
// elastic cluster.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/catalog/tpch.h"
#include "src/persist/snapshot.h"
#include "src/sim/experiment.h"
#include "tests/testing/metrics_equal.h"

namespace cloudcache {
namespace {

using testing::ExpectBitIdenticalCluster;
using testing::ExpectBitIdenticalMetrics;
using testing::ExpectBitIdenticalTenants;

class CrashRecoveryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog(MakeTpchCatalog(20.0));
    templates_ = new std::vector<QueryTemplate>(MakeTpchTemplates());
  }
  static void TearDownTestSuite() {
    delete catalog_;
    delete templates_;
  }

  ExperimentConfig BaseConfig(SchemeKind scheme, uint64_t queries) const {
    ExperimentConfig config;
    config.scheme = scheme;
    config.sim.num_queries = queries;
    config.workload.seed = 13;
    return config;
  }

  std::string SnapPath(const std::string& name) const {
    return ::testing::TempDir() + name + ".snap";
  }

  /// The harness proper: run uninterrupted; run again with periodic
  /// checkpoints and a crash at `crash_after` (must stop with
  /// kResourceExhausted); restore hard from the surviving snapshot and
  /// finish; return the resumed metrics after asserting the crash fired.
  SimMetrics CrashAndRecover(ExperimentConfig config, uint64_t every,
                             uint64_t crash_after,
                             const std::string& path) const {
    config.sim.checkpoint.every = every;
    config.sim.checkpoint.path = path;
    config.sim.checkpoint.crash_after = crash_after;
    Result<SimMetrics> crashed =
        RunExperimentChecked(*catalog_, *templates_, config);
    EXPECT_FALSE(crashed.ok());
    EXPECT_EQ(crashed.status().code(), StatusCode::kResourceExhausted)
        << crashed.status().ToString();

    config.sim.checkpoint.crash_after = 0;
    config.sim.checkpoint.restore = CheckpointOptions::Restore::kHard;
    Result<SimMetrics> resumed =
        RunExperimentChecked(*catalog_, *templates_, config);
    EXPECT_TRUE(resumed.ok()) << resumed.status().ToString();
    return resumed.ok() ? std::move(resumed).value() : SimMetrics{};
  }

  static Catalog* catalog_;
  static std::vector<QueryTemplate>* templates_;
};

Catalog* CrashRecoveryTest::catalog_ = nullptr;
std::vector<QueryTemplate>* CrashRecoveryTest::templates_ = nullptr;

TEST_F(CrashRecoveryTest, EverySchemeResumesBitIdentically) {
  for (SchemeKind scheme : PaperSchemes()) {
    const ExperimentConfig config = BaseConfig(scheme, 800);
    const SimMetrics plain =
        RunExperiment(*catalog_, *templates_, config);
    // Crash off a checkpoint boundary: queries 251..430 replay on resume.
    const SimMetrics resumed = CrashAndRecover(
        config, /*every=*/250, /*crash_after=*/430,
        SnapPath(std::string("scheme_") + SchemeKindToString(scheme)));
    ExpectBitIdenticalMetrics(plain, resumed);
    ExpectBitIdenticalTenants(plain, resumed);
    ExpectBitIdenticalCluster(plain, resumed);
  }
}

TEST_F(CrashRecoveryTest, MultiTenantEconomyResumesBitIdentically) {
  for (SchemeKind scheme :
       {SchemeKind::kEconCheap, SchemeKind::kBypassYield}) {
    ExperimentConfig config = BaseConfig(scheme, 700);
    config.tenancy.tenants = 3;
    config.tenancy.traffic_skew = 1.0;
    config.tenancy.fair_eviction = true;
    config.tenancy.admission = true;
    TenantBudgetShape cheap;
    cheap.tenant = 1;
    cheap.price_scale = 0.5;
    TenantBudgetShape rich;
    rich.tenant = 2;
    rich.price_scale = 2.0;
    rich.tmax_scale = 1.5;
    config.tenancy.tenant_budgets = {cheap, rich};
    const SimMetrics plain =
        RunExperiment(*catalog_, *templates_, config);
    // Crash exactly on a checkpoint boundary: the snapshot at 400 is
    // written first, then the crash fires — resume replays 401..700.
    const SimMetrics resumed = CrashAndRecover(
        config, /*every=*/200, /*crash_after=*/400,
        SnapPath(std::string("tenants_") + SchemeKindToString(scheme)));
    ExpectBitIdenticalMetrics(plain, resumed);
    ASSERT_EQ(resumed.tenants.size(), 3u);
    ExpectBitIdenticalTenants(plain, resumed);
  }
}

TEST_F(CrashRecoveryTest, ElasticClusterResumesBitIdentically) {
  ExperimentConfig config = BaseConfig(SchemeKind::kEconCheap, 900);
  config.cluster.nodes = 2;
  config.cluster.elastic = true;
  config.cluster.elasticity.check_interval_queries = 300;
  const SimMetrics plain = RunExperiment(*catalog_, *templates_, config);
  const SimMetrics resumed = CrashAndRecover(
      config, /*every=*/250, /*crash_after=*/600, SnapPath("cluster_serial"));
  ExpectBitIdenticalMetrics(plain, resumed);
  ASSERT_TRUE(resumed.cluster.active);
  ExpectBitIdenticalCluster(plain, resumed);
}

TEST_F(CrashRecoveryTest, RetiredDriverModeSnapshotIsRefused) {
  // Builds before the serial Simulator became the one cluster schedule
  // stamped a `--threads` run's snapshots with driver mode 2 under the
  // same config hash. Such a frame must never restore: kHard refuses it,
  // and kAuto falls back to a fresh run, bit-identical to a plain one.
  ExperimentConfig config = BaseConfig(SchemeKind::kEconCheap, 900);
  config.cluster.nodes = 2;
  config.cluster.elastic = true;
  config.cluster.elasticity.check_interval_queries = 300;
  const SimMetrics plain = RunExperiment(*catalog_, *templates_, config);

  CheckpointOptions cp;
  cp.path = SnapPath("retired_mode");
  cp.config_hash = HashExperimentConfig(config);
  {
    Result<std::unique_ptr<ExperimentGraph>> graph =
        ExperimentGraph::Build(*catalog_, *templates_, config);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    constexpr uint8_t kRetiredWindowedMode = 2;
    ASSERT_TRUE(WriteCheckpointFrame(
                    cp, kRetiredWindowedMode, /*processed=*/300,
                    config.sim.num_queries, graph.value()->scheme(),
                    {graph.value()->stream(0)}, SimMetrics{},
                    [](persist::Encoder* enc) { enc->PutDouble(0); })
                    .ok());
  }

  ExperimentConfig restore = config;
  restore.sim.checkpoint.path = cp.path;
  restore.sim.checkpoint.restore = CheckpointOptions::Restore::kHard;
  Result<SimMetrics> refused =
      RunExperimentChecked(*catalog_, *templates_, restore);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition)
      << refused.status().ToString();

  restore.sim.checkpoint.restore = CheckpointOptions::Restore::kAuto;
  Result<SimMetrics> fresh =
      RunExperimentChecked(*catalog_, *templates_, restore);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ExpectBitIdenticalMetrics(plain, *fresh);
  ExpectBitIdenticalCluster(plain, *fresh);
}

TEST_F(CrashRecoveryTest, PreviousFormatVersionSnapshotIsRefused) {
  // A real mid-run snapshot stamped back to the previous format version
  // (the u32 after the magic): kHard refuses it by version, and kAuto
  // starts fresh, bit-identical to the uninterrupted run.
  ExperimentConfig config = BaseConfig(SchemeKind::kEconCheap, 600);
  const SimMetrics plain = RunExperiment(*catalog_, *templates_, config);
  config.sim.checkpoint.every = 200;
  config.sim.checkpoint.path = SnapPath("previous_version");
  config.sim.checkpoint.crash_after = 300;
  Result<SimMetrics> crashed =
      RunExperimentChecked(*catalog_, *templates_, config);
  ASSERT_FALSE(crashed.ok());
  ASSERT_EQ(crashed.status().code(), StatusCode::kResourceExhausted);

  const uint32_t previous = persist::kSnapshotFormatVersion - 1;
  {
    std::fstream file(config.sim.checkpoint.path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekp(4);
    for (int i = 0; i < 4; ++i) {
      file.put(static_cast<char>(previous >> (8 * i)));
    }
    ASSERT_TRUE(file.good());
  }

  config.sim.checkpoint.crash_after = 0;
  config.sim.checkpoint.restore = CheckpointOptions::Restore::kHard;
  Result<SimMetrics> refused =
      RunExperimentChecked(*catalog_, *templates_, config);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  const std::string named = "version " + std::to_string(previous);
  EXPECT_NE(refused.status().message().find(named), std::string::npos)
      << refused.status().ToString();

  config.sim.checkpoint.restore = CheckpointOptions::Restore::kAuto;
  Result<SimMetrics> fresh =
      RunExperimentChecked(*catalog_, *templates_, config);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ExpectBitIdenticalMetrics(plain, *fresh);
}

TEST_F(CrashRecoveryTest, PeriodicCheckpointsDoNotPerturbTheRun) {
  // Writing snapshots must be invisible to the economy: a checkpointed
  // run that never crashes equals the plain run bit for bit.
  const ExperimentConfig config = BaseConfig(SchemeKind::kEconFast, 600);
  const SimMetrics plain = RunExperiment(*catalog_, *templates_, config);
  ExperimentConfig checkpointed = config;
  checkpointed.sim.checkpoint.every = 100;
  checkpointed.sim.checkpoint.path = SnapPath("no_perturb");
  Result<SimMetrics> result =
      RunExperimentChecked(*catalog_, *templates_, checkpointed);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectBitIdenticalMetrics(plain, *result);
}

TEST_F(CrashRecoveryTest, CheckedRunnerWithoutCheckpointingIsRunExperiment) {
  const ExperimentConfig config = BaseConfig(SchemeKind::kEconCol, 500);
  Result<SimMetrics> checked =
      RunExperimentChecked(*catalog_, *templates_, config);
  ASSERT_TRUE(checked.ok());
  const SimMetrics plain = RunExperiment(*catalog_, *templates_, config);
  ExpectBitIdenticalMetrics(plain, *checked);
}

TEST_F(CrashRecoveryTest, AutoRestoreFallsBackToFreshOnMissingSnapshot) {
  const ExperimentConfig config = BaseConfig(SchemeKind::kEconCheap, 500);
  const SimMetrics plain = RunExperiment(*catalog_, *templates_, config);
  ExperimentConfig auto_config = config;
  auto_config.sim.checkpoint.path = SnapPath("never_written");
  auto_config.sim.checkpoint.restore = CheckpointOptions::Restore::kAuto;
  Result<SimMetrics> fresh =
      RunExperimentChecked(*catalog_, *templates_, auto_config);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ExpectBitIdenticalMetrics(plain, *fresh);
}

TEST_F(CrashRecoveryTest, AutoRestoreReturnsTheResumedRunsFailure) {
  // kAuto falls back only when the snapshot cannot be read or restored.
  // After a good restore, a failure of the resumed run is returned as is,
  // never re-run from scratch. A crash point below the restored position
  // tells the two apart: the resumed run stops on its first step (query
  // 201), a fresh run would stop at query 100.
  ExperimentConfig config = BaseConfig(SchemeKind::kEconCheap, 1000);
  config.sim.checkpoint.every = 200;
  config.sim.checkpoint.path = SnapPath("auto_resumed_failure");
  config.sim.checkpoint.crash_after = 300;
  Result<SimMetrics> crashed =
      RunExperimentChecked(*catalog_, *templates_, config);
  ASSERT_FALSE(crashed.ok());
  ASSERT_EQ(crashed.status().code(), StatusCode::kResourceExhausted);

  config.sim.checkpoint.crash_after = 100;
  config.sim.checkpoint.restore = CheckpointOptions::Restore::kAuto;
  Result<SimMetrics> resumed =
      RunExperimentChecked(*catalog_, *templates_, config);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(resumed.status().ToString().find("after 201 queries"),
            std::string::npos)
      << resumed.status().ToString();
}

TEST_F(CrashRecoveryTest, HardRestoreRejectsMismatchedConfiguration) {
  // Snapshot a single-tenant run, then ask a 3-tenant run to restore it:
  // the config hash must refuse before any state is touched.
  ExperimentConfig config = BaseConfig(SchemeKind::kEconCheap, 600);
  config.sim.checkpoint.every = 200;
  config.sim.checkpoint.path = SnapPath("mismatch");
  Result<SimMetrics> saved =
      RunExperimentChecked(*catalog_, *templates_, config);
  ASSERT_TRUE(saved.ok());

  ExperimentConfig other = config;
  other.tenancy.tenants = 3;
  other.sim.checkpoint.every = 0;
  other.sim.checkpoint.restore = CheckpointOptions::Restore::kHard;
  Result<SimMetrics> resumed =
      RunExperimentChecked(*catalog_, *templates_, other);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);

  // The same mismatch under kAuto falls back to a fresh (3-tenant) run.
  other.sim.checkpoint.restore = CheckpointOptions::Restore::kAuto;
  Result<SimMetrics> fresh =
      RunExperimentChecked(*catalog_, *templates_, other);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ExperimentConfig plain_config = other;
  plain_config.sim.checkpoint = CheckpointOptions{};
  const SimMetrics plain =
      RunExperiment(*catalog_, *templates_, plain_config);
  ExpectBitIdenticalMetrics(plain, *fresh);
  ExpectBitIdenticalTenants(plain, *fresh);
}

}  // namespace
}  // namespace cloudcache
