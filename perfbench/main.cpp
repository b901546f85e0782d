// perfbench — the repository benchmark binary (see README.md here).
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1 [--small]
//             --server=PATH/cloudcached --work-dir=DIR
//
// Prints one line per metric (name, value, unit, calls behind a mean),
// then, as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit codes: 0 = every correctness check passed; 1 = a check failed
// (the JSON still prints, with "correct": false); 2 = bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace perfbench {

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      // Fig. 4's setting: TPC-H 2.5 TB, fixed 10 s arrivals, $200 credit.
      {"paper-steady", false, {"--scheme=econ-cheap", "--interarrival=10"},
       25'000, 2'000, 8},
      // The write-heavy elastic cluster on the serial driver.
      {"elastic-churn",
       false,
       {"--scheme=econ-cheap", "--elastic=on", "--nodes=1", "--max-nodes=4",
        "--interarrival=1", "--regret-a=0.001", "--credit=20",
        "--node-rent-multiplier=0.25"},
       12'500,
       2'000,
       8},
      // cloudcached with four skewed tenant streams, 15k-query rounds and
      // an inline snapshot every 3750 served queries.
      {"served-tenants",
       true,
       {"--scheme=econ-cheap", "--tenants=4", "--tenant-skew=1",
        "--interarrival=10"},
       15'000,
       2'000,
       4},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

}  // namespace perfbench

namespace {

bool Flag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

void PrintReport(const perfbench::Report& report) {
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("%-34s %16.6f %-10s", m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.calls > 0) std::printf("  (n=%llu)", (unsigned long long)m.calls);
    std::printf("\n");
  }
  for (const std::string& error : report.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct() ? "true" : "false",
              (unsigned long long)report.attempted,
              (unsigned long long)report.failed);
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (Flag(argv[i], "--workload", &v)) {
      options.workload = v;
    } else if (Flag(argv[i], "--seed", &v)) {
      options.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(argv[i], "--seconds", &v)) {
      options.seconds = std::strtod(v.c_str(), nullptr);
    } else if (Flag(argv[i], "--trace", &v)) {
      options.trace = v == "1";
    } else if (std::strcmp(argv[i], "--small") == 0) {
      options.small = true;
    } else if (Flag(argv[i], "--server", &v)) {
      options.server_binary = v;
    } else if (Flag(argv[i], "--work-dir", &v)) {
      options.work_dir = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  const perfbench::WorkloadSpec* spec =
      perfbench::FindWorkload(options.workload);
  if (spec == nullptr || options.work_dir.empty() || !(options.seconds > 0) ||
      (spec->served && options.server_binary.empty())) {
    std::fprintf(stderr,
                 "perfbench: need a known --workload, --seconds > 0, "
                 "--work-dir and (served) --server\n");
    return 2;
  }

  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  perfbench::Report report;
  if (spec->served) {
    perfbench::RunServed(options, *spec, &report);
  } else {
    perfbench::RunInProcess(options, *spec, &report);
  }
  std::filesystem::remove_all(options.work_dir, ec);
  if (!report.correct()) report.failed = report.attempted;
  PrintReport(report);
  return report.correct() ? 0 : 1;
}
