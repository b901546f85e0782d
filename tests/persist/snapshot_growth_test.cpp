// Bounded run state: a snapshot is the economy's state, not its history.
// Once the cache has settled, twice the queries must not mean a bigger
// snapshot, beyond the capped timelines' few extra points and the response
// histograms' next few buckets. A per-query record anywhere in the saved
// state (an account log, a duplicated accumulator, an uncapped series)
// breaks this pin at once.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/catalog/tpch.h"
#include "src/persist/snapshot.h"
#include "src/sim/experiment.h"

namespace cloudcache {
namespace {

using SectionBytes = std::map<std::string, uint64_t>;

/// Payload bytes per section of the snapshot a run takes after exactly
/// `queries` queries (one checkpoint, one query before the end of the run).
SectionBytes SnapshotAfter(const Catalog& catalog,
                           const std::vector<QueryTemplate>& templates,
                           ExperimentConfig config, uint64_t queries,
                           const std::string& path) {
  config.sim.num_queries = queries + 1;
  config.sim.checkpoint.every = queries;
  config.sim.checkpoint.path = path;
  std::filesystem::remove(path);
  const Result<SimMetrics> run =
      RunExperimentChecked(catalog, templates, config);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  SectionBytes bytes;
  Result<persist::SnapshotReader> reader =
      persist::SnapshotReader::FromFile(path);
  EXPECT_TRUE(reader.ok()) << "no checkpoint after " << queries;
  if (!reader.ok()) return bytes;
  for (const std::string& name : reader->SectionNames()) {
    bytes[name] = reader->Section(name)->remaining();
  }
  return bytes;
}

uint64_t Total(const SectionBytes& bytes) {
  uint64_t total = 0;
  for (const auto& [name, size] : bytes) total += size;
  return total;
}

std::string Describe(const SectionBytes& bytes) {
  std::ostringstream out;
  for (const auto& [name, size] : bytes) out << " " << name << "=" << size;
  return out.str();
}

TEST(SnapshotGrowthTest, BytesAtTwiceTheQueriesStayWithinSlack) {
  const Catalog catalog = MakeTpchCatalog(20.0);
  const std::vector<QueryTemplate> templates = MakeTpchTemplates();

  ExperimentConfig single;
  single.workload.seed = 13;

  ExperimentConfig tenants = single;
  tenants.tenancy.tenants = 4;
  tenants.tenancy.traffic_skew = 1.0;

  ExperimentConfig elastic = single;
  elastic.cluster.nodes = 2;
  elastic.cluster.elastic = true;
  elastic.cluster.elasticity.check_interval_queries = 300;

  // Going from N to 2N adds N/500
  // timeline points of 32 bytes (192 here); the rest of the slack is room
  // for the response histograms (five in the 4-tenant run, which uses
  // ~2.2 KB of it) to fill more of their fixed bucket range. A per-query
  // record of even two bytes exceeds it.
  constexpr uint64_t kQueries = 3000;
  constexpr uint64_t kSlackBytes = 4096;
  const std::vector<std::pair<std::string, ExperimentConfig>> runs = {
      {"single", single}, {"tenants", tenants}, {"elastic", elastic}};
  for (const auto& [name, config] : runs) {
    const std::string path = ::testing::TempDir() + "growth_" + name + ".snap";
    const SectionBytes at_n =
        SnapshotAfter(catalog, templates, config, kQueries, path);
    const SectionBytes at_2n =
        SnapshotAfter(catalog, templates, config, 2 * kQueries, path);
    EXPECT_LE(Total(at_2n), Total(at_n) + kSlackBytes)
        << name << " run, section bytes after " << kQueries
        << " queries:" << Describe(at_n) << "; after " << 2 * kQueries
        << ":" << Describe(at_2n);
  }
}

}  // namespace
}  // namespace cloudcache
