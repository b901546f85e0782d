// Hostile section payloads: every section of a real checkpoint is cut at
// every byte and fed straight to the restore that reads it, past the
// container's per-section CRC (which would reject the damage first). A
// decoder that keeps its first error must turn each cut into a non-OK
// Status: never a crash, never an out-of-bounds read (this group runs
// under ASan/UBSan in CI), never a silent success.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/catalog/tpch.h"
#include "src/persist/metrics_io.h"
#include "src/persist/snapshot.h"
#include "src/sim/experiment.h"
#include "src/sim/simulator.h"
#include "src/structure/index_advisor.h"
#include "tests/testing/snapshot_sections.h"

namespace cloudcache {
namespace {

class SectionTruncationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog(MakeTpchCatalog(20.0));
    templates_ = new std::vector<QueryTemplate>(MakeTpchTemplates());
  }
  static void TearDownTestSuite() {
    delete catalog_;
    delete templates_;
  }

  /// Four tenants with every tenant policy and build latency, or a
  /// two-node elastic cluster; a cheap regret threshold makes the economy
  /// build, evict and hold pending builds by the checkpoint.
  static ExperimentConfig Config(bool cluster) {
    ExperimentConfig config;
    config.scheme = SchemeKind::kEconCheap;
    config.sim.num_queries = 600;
    config.workload.seed = 11;
    config.workload.interarrival_seconds = 1.0;
    if (cluster) {
      config.cluster.nodes = 2;
      config.cluster.elastic = true;
    } else {
      config.tenancy.tenants = 4;
      config.tenancy.fair_eviction = true;
      config.tenancy.admission = true;
    }
    config.customize_econ = [](EconScheme::Config& econ) {
      econ.economy.regret_fraction_a = 0.001;
      econ.economy.initial_credit = Money::FromDollars(20.0);
      econ.economy.model_build_latency = true;
    };
    return config;
  }

  /// The sections of the snapshot a run of `config` leaves at query 300.
  testing::SnapshotSections Checkpoint(ExperimentConfig config,
                                       const std::string& name) const {
    const std::string path = ::testing::TempDir() + name + ".snap";
    config.sim.checkpoint.every = 300;
    config.sim.checkpoint.crash_after = 300;
    config.sim.checkpoint.path = path;
    const Result<SimMetrics> run =
        RunExperimentChecked(*catalog_, *templates_, config);
    EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
    testing::SnapshotSections split =
        testing::SplitSnapshot(testing::ReadFileBytes(path));
    std::remove(path.c_str());
    EXPECT_TRUE(split.ok);
    return split;
  }

  /// Restores the whole snapshot into a fresh graph of `config`, with
  /// section `cut_section` cut to its first `cut` bytes; the container is
  /// rebuilt with fresh CRCs, so only the section decoder sees the cut.
  Status RestoreWithCut(const ExperimentConfig& config,
                        const testing::SnapshotSections& split,
                        const std::string& cut_section, size_t cut) const {
    persist::SnapshotWriter writer(split.config_hash);
    for (const testing::SectionBytes& section : split.sections) {
      const size_t size =
          section.name == cut_section ? cut : section.payload.size();
      writer.AddSection(section.name)->Bytes(section.payload.data(), size);
    }
    Result<persist::SnapshotReader> reader =
        persist::SnapshotReader::FromBytes(writer.Serialize());
    CLOUDCACHE_RETURN_IF_ERROR(reader.status());
    Result<std::unique_ptr<ExperimentGraph>> graph =
        ExperimentGraph::Build(*catalog_, *templates_, config);
    CLOUDCACHE_RETURN_IF_ERROR(graph.status());
    return graph.value()->simulator()->RestoreFrom(reader.value());
  }

  /// Cuts every section of `split` at every byte. The small frame
  /// sections go through the full restore; the scheme and metrics
  /// sections, which hold nearly all the bytes, go straight to their
  /// component's restore on a freshly built twin.
  void ExpectEveryCutRefused(const ExperimentConfig& config,
                             const testing::SnapshotSections& split) const {
    ASSERT_TRUE(RestoreWithCut(config, split, "", 0).ok());

    Result<std::vector<ResolvedTemplate>> resolved =
        ResolveTemplates(*catalog_, *templates_);
    ASSERT_TRUE(resolved.ok());
    const std::vector<StructureKey> indexes = RecommendIndexes(
        *catalog_, resolved.value(), config.index_candidates);

    for (const testing::SectionBytes& section : split.sections) {
      const std::vector<uint8_t>& payload = section.payload;
      for (size_t cut = 0; cut <= payload.size(); ++cut) {
        const bool whole = cut == payload.size();
        Status status;
        if (section.name == "scheme") {
          std::unique_ptr<Scheme> twin =
              MakeExperimentScheme(*catalog_, indexes, config);
          persist::Decoder dec(payload.data(), cut);
          status = twin->RestoreState(&dec);
          if (status.ok()) status = dec.ExpectEnd();
        } else if (section.name == "metrics") {
          SimMetrics metrics;
          persist::Decoder dec(payload.data(), cut);
          persist::SimMetricsFields(dec, metrics);
          status = dec.ExpectEnd();
        } else {
          if (whole) continue;  // The full restore above covered it.
          status = RestoreWithCut(config, split, section.name, cut);
        }
        if (whole) {
          EXPECT_TRUE(status.ok())
              << section.name << ": " << status.ToString();
        } else {
          EXPECT_FALSE(status.ok())
              << section.name << " cut to " << cut << " of "
              << payload.size() << " bytes restored";
        }
      }
    }
  }

  static Catalog* catalog_;
  static std::vector<QueryTemplate>* templates_;
};

Catalog* SectionTruncationTest::catalog_ = nullptr;
std::vector<QueryTemplate>* SectionTruncationTest::templates_ = nullptr;

TEST_F(SectionTruncationTest, FourTenantSectionsRefuseEveryCut) {
  const ExperimentConfig config = Config(false);
  const testing::SnapshotSections split = Checkpoint(config, "cut_tenants");
  ASSERT_EQ(split.sections.size(), 5u);
  ExpectEveryCutRefused(config, split);
}

TEST_F(SectionTruncationTest, ElasticClusterSectionsRefuseEveryCut) {
  const ExperimentConfig config = Config(true);
  const testing::SnapshotSections split = Checkpoint(config, "cut_cluster");
  ASSERT_EQ(split.sections.size(), 5u);
  ExpectEveryCutRefused(config, split);
}

}  // namespace
}  // namespace cloudcache
