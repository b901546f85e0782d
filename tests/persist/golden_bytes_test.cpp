// Golden snapshot bytes: the container header and the size and CRC32 of
// every section of the snapshot left at query 1500 of three fixed runs,
// captured when the codec moved to one field list per record. Section
// payloads are what the field lists write, so any layout change shows
// here. Such a change must bump kSnapshotFormatVersion (an old file is
// then refused by its version, not misread) and recapture these values.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/persist/codec.h"
#include "src/persist/snapshot.h"
#include "src/sim/experiment.h"
#include "tests/testing/snapshot_sections.h"
#include "tools/experiment_flags.h"

namespace cloudcache {
namespace {

static_assert(persist::kSnapshotFormatVersion == 4,
              "a snapshot layout change bumps the format version and "
              "recaptures the golden sections below");

struct GoldenSection {
  std::string name;
  uint64_t size = 0;
  uint32_t crc = 0;

  bool operator==(const GoldenSection& other) const {
    return name == other.name && size == other.size && crc == other.crc;
  }
};

std::ostream& operator<<(std::ostream& os, const GoldenSection& s) {
  char crc[16];
  std::snprintf(crc, sizeof(crc), "0x%08x", s.crc);
  return os << "{\"" << s.name << "\", " << s.size << "u, " << crc << "u}";
}

struct GoldenSnapshot {
  uint64_t config_hash = 0;
  std::vector<GoldenSection> sections;
};

/// Runs `flags` (cloudcache_sim's experiment flags) for 6000 queries with a
/// checkpoint and a crash at query 1500, and returns the header hash and
/// sections of the snapshot left behind. Each section's CRC is recomputed
/// from its payload, not copied from the container.
GoldenSnapshot SnapshotAt1500(const std::vector<std::string>& flags,
                              const std::string& name) {
  tools::ExperimentFlags parsed;
  parsed.queries = 6000;
  for (const std::string& flag : flags) {
    EXPECT_EQ(tools::ParseExperimentFlag(flag.c_str(), &parsed),
              tools::FlagParse::kConsumed)
        << flag;
  }
  Catalog catalog;
  std::vector<QueryTemplate> templates;
  EXPECT_TRUE(tools::MakeExperimentCatalog(parsed, &catalog, &templates).ok());
  Result<ExperimentConfig> built = tools::MakeExperimentFlagsConfig(parsed);
  EXPECT_TRUE(built.ok());
  ExperimentConfig config = std::move(built).value();
  const std::string path = ::testing::TempDir() + name + ".snap";
  std::remove(path.c_str());
  config.sim.checkpoint.every = 1500;
  config.sim.checkpoint.crash_after = 1500;
  config.sim.checkpoint.path = path;
  const Result<SimMetrics> run =
      RunExperimentChecked(catalog, templates, config);
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);

  const testing::SnapshotSections split =
      testing::SplitSnapshot(testing::ReadFileBytes(path));
  std::remove(path.c_str());
  EXPECT_TRUE(split.ok);

  GoldenSnapshot out;
  out.config_hash = split.config_hash;
  for (const testing::SectionBytes& section : split.sections) {
    const uint32_t crc = persist::Crc32(section.payload);
    EXPECT_EQ(crc, section.stored_crc) << section.name;
    out.sections.push_back({section.name, section.payload.size(), crc});
  }
  return out;
}

TEST(GoldenSnapshotTest, DefaultRun) {
  const GoldenSnapshot got = SnapshotAt1500({}, "golden_default");
  EXPECT_EQ(got.config_hash, 0x71a377bece5bb619u);
  const std::vector<GoldenSection> want = {
      {"meta", 35u, 0xd0357886u},
      {"driver", 16u, 0x401bc12fu},
      {"workload", 73u, 0xb258840fu},
      {"scheme", 3030u, 0x8fb18a55u},
      {"metrics", 2947u, 0xe351f2acu},
  };
  EXPECT_EQ(got.sections, want);
}

TEST(GoldenSnapshotTest, FourTenantsWithEveryPolicy) {
  const GoldenSnapshot got = SnapshotAt1500(
      {"--tenants=4", "--fair-eviction", "--admission", "--build-latency"},
      "golden_tenants");
  EXPECT_EQ(got.config_hash, 0xa31139230da503b2u);
  const std::vector<GoldenSection> want = {
      {"meta", 35u, 0x1fab6f4eu},
      {"driver", 16u, 0x2dc1671au},
      {"workload", 268u, 0x8ee2bea8u},
      {"scheme", 4330u, 0x74c8f925u},
      {"metrics", 11467u, 0x3c5a4871u},
  };
  EXPECT_EQ(got.sections, want);
}

TEST(GoldenSnapshotTest, OneNodeElasticCluster) {
  const GoldenSnapshot got =
      SnapshotAt1500({"--nodes=1", "--elastic=on"}, "golden_elastic");
  EXPECT_EQ(got.config_hash, 0xea265e79671f366au);
  const std::vector<GoldenSection> want = {
      {"meta", 35u, 0xd0357886u},
      {"driver", 16u, 0x401bc12fu},
      {"workload", 73u, 0xb258840fu},
      {"scheme", 3191u, 0x9a30b2c2u},
      {"metrics", 2947u, 0xe351f2acu},
  };
  EXPECT_EQ(got.sections, want);
}

}  // namespace
}  // namespace cloudcache
