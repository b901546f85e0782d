#pragma once

// Shared vocabulary of the benchmark binary: what one invocation was asked
// to do, the workloads it knows, and the report it prints.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One invocation: `--workload --seed --seconds --trace [--small]`.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// false: end-to-end metrics from untraced runs; true: per-layer metrics
  /// from a traced run checked against an untraced twin.
  bool trace = false;
  /// Small-size mode: tiny repetitions, for the self-check.
  bool small = false;
  /// The cloudcached binary the served workload launches.
  std::string server_binary;
  /// Scratch directory for snapshots, port files and server logs; the
  /// caller creates it and removes it afterwards.
  std::string work_dir;
};

struct WorkloadSpec {
  const char* name;
  /// Launches cloudcached and drives it over sockets (else in-process).
  bool served;
  /// Experiment flags in the shared cloudcache_sim/cloudcached syntax;
  /// `--seed` and `--queries` are added per run.
  std::vector<std::string> flags;
  /// Queries per replay (in-process) or per server round (served). Each
  /// replay or round rebuilds the economy and runs exactly this many, so
  /// its economic outcome is a pure function of its seed. Snapshots are
  /// written every queries/4.
  uint64_t queries;
  uint64_t small_queries;
  /// Input variants per run, variant k seeded MixSeed(--seed, k), so one
  /// run averages over several input streams. In-process: replays per
  /// pass. Served: rounds cycle over the variants.
  uint32_t replays;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Calls behind a per-call mean (0 when the metric is not a mean).
  uint64_t calls = 0;
};

/// What the invocation prints: a table on stdout, then one JSON line.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  bool correct() const { return errors.empty(); }
  void Fail(const std::string& why) { errors.push_back(why); }
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t calls = 0) {
    metrics.push_back(Metric{name, value, unit, calls});
  }
};

void RunInProcess(const RunOptions& options, const WorkloadSpec& spec,
                  Report* report);
void RunServed(const RunOptions& options, const WorkloadSpec& spec,
               Report* report);

}  // namespace perfbench
