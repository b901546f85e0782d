// Cluster scale grid + regression harness.
//
// Runs the paper's workload against growing cache fleets — schemes x
// {1, 2, 4 fixed nodes, elastic 1->4} — in a single thread, wall-clock
// timing each cell, and reports per-cell operating cost, mean response,
// and simulated queries/sec: the scale axis the single-node figures
// cannot show, and the constant-factor speed of the routed decision loop.
//
// Results are also written as JSON (default BENCH_cluster.json) so CI can
// guard the cluster path against throughput regressions exactly like the
// hot-path bench:
//
//   cluster --smoke --json=BENCH_cluster_smoke.json
//
// Meaningful numbers require a Release build; the driver warns otherwise.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/sim/experiment.h"

namespace {

using cloudcache::ClusterOptions;
using cloudcache::ExperimentConfig;
using cloudcache::RunExperiment;
using cloudcache::SchemeKind;
using cloudcache::SchemeKindToString;
using cloudcache::SimMetrics;
using cloudcache::bench::BenchOptions;
using cloudcache::bench::MakePaperSetup;
using cloudcache::bench::PaperConfig;

struct ClusterBenchOptions {
  BenchOptions bench;
  std::string json_path = "BENCH_cluster.json";
  bool smoke = false;
};

bool ConsumeFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

ClusterBenchOptions ParseClusterArgs(int argc, char** argv) {
  ClusterBenchOptions options;
  options.bench.queries = 20'000;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ConsumeFlag(argv[i], "--queries", &value)) {
      options.bench.queries = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ConsumeFlag(argv[i], "--scale-tb", &value)) {
      options.bench.scale_tb = std::strtod(value.c_str(), nullptr);
    } else if (ConsumeFlag(argv[i], "--seed", &value)) {
      options.bench.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ConsumeFlag(argv[i], "--json", &value)) {
      options.json_path = value;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      options.smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--queries=N] [--scale-tb=X] [--seed=N] "
                   "[--json=PATH] [--smoke]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  if (options.smoke) {
    options.bench.queries = std::min<uint64_t>(options.bench.queries, 2'000);
  }
  return options;
}

/// One fleet shape on the grid's cluster axis.
struct FleetVariant {
  const char* label;
  uint32_t nodes;
  bool elastic;
};

struct CellResult {
  SchemeKind scheme;
  const char* fleet = nullptr;
  uint64_t queries = 0;
  double wall_seconds = 0;
  double qps = 0;
  double operating_cost_dollars = 0;
  double mean_response_seconds = 0;
  double response_p50 = 0;
  double response_p95 = 0;
  double response_p99 = 0;
  uint32_t final_nodes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const ClusterBenchOptions options = ParseClusterArgs(argc, argv);
  const auto setup = MakePaperSetup(options.bench);

#ifndef NDEBUG
  std::fprintf(stderr,
               "cluster: WARNING — assertions enabled; use a Release build "
               "for regression-grade numbers\n");
#endif
  std::fprintf(stderr, "cluster: %llu queries/cell, %.1f TB\n",
               static_cast<unsigned long long>(options.bench.queries),
               options.bench.scale_tb);

  // Fixed fleets show cost-aware placement at width; the elastic cell
  // shows the controller buying width only when regret pays for it. The
  // 1 s interarrival loads the economy enough that multi-node fleets
  // have structures worth routing to.
  const std::vector<FleetVariant> fleets = {
      {"n1", 1, false},
      {"n2", 2, false},
      {"n4", 4, false},
      {"n1-elastic", 1, true},
  };
  const std::vector<SchemeKind> schemes = {SchemeKind::kEconCheap,
                                           SchemeKind::kEconFast};

  std::vector<CellResult> cells;
  for (const FleetVariant& fleet : fleets) {
    for (SchemeKind scheme : schemes) {
      ExperimentConfig config = PaperConfig(options.bench, 1.0);
      config.scheme = scheme;
      config.cluster.nodes = fleet.nodes;
      config.cluster.elastic = fleet.elastic;
      config.cluster.elasticity.max_nodes = 4;

      const auto start = std::chrono::steady_clock::now();
      const SimMetrics metrics =
          RunExperiment(setup.catalog, setup.templates, config);
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();

      CellResult cell;
      cell.scheme = scheme;
      cell.fleet = fleet.label;
      cell.queries = metrics.queries;
      cell.wall_seconds = seconds;
      cell.qps = seconds > 0
                     ? static_cast<double>(metrics.queries) / seconds
                     : 0;
      cell.operating_cost_dollars = metrics.operating_cost.Total();
      cell.mean_response_seconds = metrics.MeanResponse();
      cell.response_p50 = metrics.response_hist.Quantile(0.5);
      cell.response_p95 = metrics.response_hist.Quantile(0.95);
      cell.response_p99 = metrics.response_hist.Quantile(0.99);
      cell.final_nodes =
          metrics.cluster.active ? metrics.cluster.final_nodes : 1;
      cells.push_back(cell);
      std::fprintf(stderr,
                   "  [done] %-10s %-10s  %9.0f q/s  $%8.2f  %u nodes\n",
                   SchemeKindToString(scheme), fleet.label, cell.qps,
                   cell.operating_cost_dollars, cell.final_nodes);
    }
  }

  std::puts("Cluster scale grid (simulated queries per wall-clock second)");
  std::printf("%-12s %-12s %10s %12s %12s %8s\n", "scheme", "fleet", "qps",
              "op_cost_$", "mean_resp_s", "nodes");
  for (const CellResult& cell : cells) {
    std::printf("%-12s %-12s %10.0f %12.2f %12.3f %8u\n",
                SchemeKindToString(cell.scheme), cell.fleet, cell.qps,
                cell.operating_cost_dollars, cell.mean_response_seconds,
                cell.final_nodes);
  }

  std::FILE* json = std::fopen(options.json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n",
                 options.json_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"cluster_scale\",\n"
               "  \"queries_per_cell\": %llu,\n"
               "  \"scale_tb\": %.3f,\n"
               "  \"seed\": %llu,\n"
               "  \"plan_cache\": true,\n"
               "  \"cells\": [\n",
               static_cast<unsigned long long>(options.bench.queries),
               options.bench.scale_tb,
               static_cast<unsigned long long>(options.bench.seed));
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellResult& cell = cells[i];
    std::fprintf(json,
                 "    {\"scheme\": \"%s\", \"fleet\": \"%s\", "
                 "\"queries\": %llu, \"wall_seconds\": %.6f, "
                 "\"qps\": %.1f, \"operating_cost_dollars\": %.6f, "
                 "\"mean_response_seconds\": %.6f, "
                 "\"response_p50_seconds\": %.6f, "
                 "\"response_p95_seconds\": %.6f, "
                 "\"response_p99_seconds\": %.6f, \"final_nodes\": %u}%s\n",
                 SchemeKindToString(cell.scheme), cell.fleet,
                 static_cast<unsigned long long>(cell.queries),
                 cell.wall_seconds, cell.qps, cell.operating_cost_dollars,
                 cell.mean_response_seconds, cell.response_p50,
                 cell.response_p95, cell.response_p99, cell.final_nodes,
                 i + 1 < cells.size() ? "," : "");
  }
  // aggregate_qps keys are scheme/fleet pairs, so the perf guard judges
  // each routed configuration separately (an n4 regression cannot hide
  // behind a fast n1 cell).
  std::fprintf(json,
               "  ],\n"
               "  \"aggregate_qps\": {\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellResult& cell = cells[i];
    std::fprintf(json, "    \"%s/%s\": %.1f%s\n",
                 SchemeKindToString(cell.scheme), cell.fleet, cell.qps,
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(json,
               "  }\n"
               "}\n");
  std::fclose(json);
  std::fprintf(stderr, "cluster: wrote %s\n", options.json_path.c_str());
  return 0;
}
