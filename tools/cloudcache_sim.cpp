// cloudcache_sim — command-line front end to the simulator.
//
// Runs one scheme against one workload configuration and prints the full
// metric report, or — with --sweep — the whole paper grid (four schemes x
// four inter-arrival times) fanned out over a thread pool; the building
// block for scripted parameter studies beyond the canned bench binaries.
//
// Exit codes: 0 = success; 1 = run or restore error; 2 = flag errors;
// 3 = deliberate crash injection (--crash-after fired; snapshot on disk).
//
// Examples:
//   cloudcache_sim --scheme=econ-cheap --queries=100000 --interarrival=10
//   cloudcache_sim --scheme=bypass --scale-tb=1.0 --arrival=poisson
//   cloudcache_sim --scheme=econ-fast --catalog=sdss --csv=credit.csv
//   cloudcache_sim --sweep --queries=40000 --threads=8   (Fig. 4/5 grid)
//   cloudcache_sim --tenants=4 --tenant-skew=1.0   (multi-tenant economy)
//   cloudcache_sim --nodes=2 --elastic=on          (elastic cache cluster)
//   cloudcache_sim --trace-out=stream.csv --queries=50000   (record only)

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/obs/registry.h"
#include "src/obs/stage_profile.h"
#include "src/obs/trace.h"
#include "src/sim/experiment.h"
#include "src/sim/report.h"
#include "src/sim/sweep.h"
#include "src/util/logging.h"
#include "src/util/status.h"
#include "src/workload/trace.h"
#include "tools/experiment_flags.h"

namespace {

using namespace cloudcache;
using tools::ExperimentFlags;
using tools::FlagParse;
using tools::FlagValue;

struct Args {
  ExperimentFlags exp;    // The shared experiment surface.
  bool sweep = false;     // Run the full scheme x interarrival grid.
  std::optional<unsigned> threads;  // Sweep workers (0 = all cores).
  std::string csv;        // Credit/cost timeline CSV.
  std::string trace_out;  // Record the workload instead of simulating.
  CheckpointOptions checkpoint;   // Cadence, file, restore, crash point.
  std::string metrics_json;       // Machine-readable SimMetrics export.
  std::string trace;              // Economic event trace (JSONL).
  bool profile_stages = false;    // Decision-loop stage timing table.
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [flags]\n"
      "%s"
      "  --sweep               run all 4 schemes x 4 paper intervals\n"
      "  --threads=N           --sweep worker threads (0 = all cores); a\n"
      "                        single run has one schedule and refuses it\n"
      "  --csv=PATH            write credit/cost timeline CSV\n"
      "  --trace-out=PATH      write the workload trace and exit\n"
      "  --checkpoint-every=N  snapshot the full economy every N queries\n"
      "  --checkpoint-path=P   snapshot file (required by the flags below)\n"
      "  --restore[=auto]      resume from the snapshot; bare --restore\n"
      "                        fails loudly on a missing/corrupt/mismatched\n"
      "                        snapshot, =auto falls back to a fresh run\n"
      "  --crash-after=K       crash injection: abort without finalizing\n"
      "                        after K queries (exit 3; restore resumes)\n"
      "  --metrics-json=PATH   write the final metrics as JSON (same names\n"
      "                        as the Prometheus exposition)\n"
      "  --trace=PATH          write the economic event trace (JSONL);\n"
      "                        single run only\n"
      "  --profile-stages      time the decision-loop stages and print a\n"
      "                        per-stage table to stderr at the end\n",
      argv0, tools::ExperimentFlagsUsage());
}

std::optional<Args> Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const FlagParse shared = tools::ParseExperimentFlag(argv[i], &args.exp);
    if (shared == FlagParse::kConsumed) continue;
    if (shared == FlagParse::kError) return std::nullopt;
    const FlagParse restore =
        tools::ParseRestoreFlag(argv[i], &args.checkpoint.restore);
    if (restore == FlagParse::kConsumed) continue;
    if (restore == FlagParse::kError) return std::nullopt;
    unsigned threads = 0;
    const FlagParse thread_flag =
        tools::ParseNumberFlag(argv[i], "--threads", &threads);
    if (thread_flag == FlagParse::kConsumed) args.threads = threads;
    const FlagParse numeric = tools::FirstMatch(
        {thread_flag,
         tools::ParseNumberFlag(argv[i], "--checkpoint-every",
                                &args.checkpoint.every),
         tools::ParseNumberFlag(argv[i], "--crash-after",
                                &args.checkpoint.crash_after)});
    if (numeric == FlagParse::kConsumed) continue;
    if (numeric == FlagParse::kError) return std::nullopt;
    std::string v;
    if (std::strcmp(argv[i], "--sweep") == 0) args.sweep = true;
    else if (FlagValue(argv[i], "--csv", &v)) args.csv = v;
    else if (FlagValue(argv[i], "--trace-out", &v)) args.trace_out = v;
    else if (FlagValue(argv[i], "--checkpoint-path", &v))
      args.checkpoint.path = v;
    else if (FlagValue(argv[i], "--metrics-json", &v))
      args.metrics_json = v;
    else if (FlagValue(argv[i], "--trace", &v)) args.trace = v;
    else if (std::strcmp(argv[i], "--profile-stages") == 0)
      args.profile_stages = true;
    else {
      Usage(argv[0]);
      return std::nullopt;
    }
  }
  return args;
}

/// Cross-flag validation, as Status so every rejection carries an
/// actionable message and a non-zero exit (kInvalidArgument throughout;
/// config-mismatch at restore time surfaces later as kFailedPrecondition
/// from the snapshot's config hash).
Status ValidateArgs(const Args& args) {
  CLOUDCACHE_RETURN_IF_ERROR(tools::ValidateExperimentFlags(args.exp));
  if (args.threads.has_value() && !args.sweep) {
    return Status::InvalidArgument(
        "--threads sets --sweep's worker count; a single run is the one "
        "serial economy, so drop --threads or add --sweep");
  }
  const CheckpointOptions& cp = args.checkpoint;
  const bool checkpointing =
      cp.every > 0 || cp.restore != CheckpointOptions::Restore::kNone ||
      cp.crash_after > 0;
  if (checkpointing && cp.path.empty()) {
    return Status::InvalidArgument(
        "--checkpoint-every/--restore/--crash-after need a snapshot file; "
        "add --checkpoint-path=PATH");
  }
  if (!cp.path.empty() && args.sweep) {
    return Status::InvalidArgument(
        "--sweep runs a grid of cells that would clobber one snapshot "
        "file; checkpoint/restore applies to single runs only");
  }
  if (!cp.path.empty() && !args.trace_out.empty()) {
    return Status::InvalidArgument(
        "--trace-out records the workload without simulating, so there is "
        "no economy state to checkpoint or restore");
  }
  if (!args.metrics_json.empty() && args.sweep) {
    return Status::InvalidArgument(
        "--metrics-json exports one run's metrics; --sweep produces a "
        "grid — run the cells individually");
  }
  if (!args.metrics_json.empty() && !args.trace_out.empty()) {
    return Status::InvalidArgument(
        "--trace-out records the workload without simulating, so there "
        "are no metrics to export");
  }
  if (!args.trace.empty()) {
    if (args.sweep) {
      return Status::InvalidArgument(
          "--trace records one run's events; --sweep runs a grid");
    }
    if (!args.trace_out.empty()) {
      return Status::InvalidArgument(
          "--trace records economic events during simulation; --trace-out "
          "records the workload without simulating — pick one");
    }
  }
  if (cp.crash_after > 0 && cp.crash_after >= args.exp.queries) {
    return Status::InvalidArgument(
        "--crash-after=" + std::to_string(cp.crash_after) +
        " never fires: the run finalizes at --queries=" +
        std::to_string(args.exp.queries) +
        " (crash injection stops strictly before the final query)");
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = Parse(argc, argv);
  if (!parsed) return 2;
  const Args& args = *parsed;
  const Status valid = ValidateArgs(args);
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 2;
  }

  Catalog catalog;
  std::vector<QueryTemplate> templates;
  const Status made =
      tools::MakeExperimentCatalog(args.exp, &catalog, &templates);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.ToString().c_str());
    return 2;
  }

  Result<ExperimentConfig> built =
      tools::MakeExperimentFlagsConfig(args.exp);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return 2;
  }
  ExperimentConfig config = std::move(built).value();

  if (args.profile_stages) {
    obs::StageProfiler::Instance().Enable(true);
  }
  std::unique_ptr<obs::EventTracer> tracer;
  if (!args.trace.empty()) {
    Result<std::unique_ptr<obs::EventTracer>> opened =
        obs::EventTracer::Open(args.trace);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 1;
    }
    tracer = std::move(opened).value();
    config.tracer = tracer.get();
  }

  if (!args.trace_out.empty()) {
    Result<std::vector<ResolvedTemplate>> resolved =
        ResolveTemplates(catalog, templates);
    if (!resolved.ok()) {
      std::fprintf(stderr, "%s\n", resolved.status().ToString().c_str());
      return 1;
    }
    WorkloadGenerator generator(&catalog, *resolved, config.workload);
    std::vector<Query> trace;
    trace.reserve(args.exp.queries);
    for (uint64_t i = 0; i < args.exp.queries; ++i) {
      trace.push_back(generator.Next());
    }
    const Status status = TraceWriter::Write(args.trace_out, trace);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu queries to %s\n", trace.size(),
                args.trace_out.c_str());
    return 0;
  }

  if (args.sweep) {
    // The whole paper grid (Figs. 4-5) through the parallel sweep engine.
    if (args.exp.scheme_set || args.exp.interarrival_set) {
      std::fprintf(stderr,
                   "note: --sweep runs all 4 schemes x 4 paper intervals; "
                   "--scheme/--interarrival are ignored\n");
    }
    if (!args.csv.empty()) {
      std::fprintf(stderr,
                   "note: --csv writes the single-run timeline only; "
                   "ignored under --sweep\n");
    }
    SweepSpec spec;  // Defaults: paper schemes x paper interarrivals.
    spec.seed_policy = SweepSpec::SeedPolicy::kFixed;
    spec.base_seed = args.exp.seed;
    spec.base = config;
    const std::vector<std::vector<SimMetrics>> rows =
        GroupRowsByInterarrival(
            RunSweep(catalog, templates, spec, args.threads.value_or(0),
                     LogCellDone),
            spec.interarrivals.size());
    std::puts("Operating cost (dollars) by inter-arrival time");
    std::fputs(
        MakeOperatingCostTable(spec.interarrivals, rows).ToAscii().c_str(),
        stdout);
    std::puts("");
    std::puts("Average response time (seconds) by inter-arrival time");
    std::fputs(
        MakeResponseTimeTable(spec.interarrivals, rows).ToAscii().c_str(),
        stdout);
    if (args.profile_stages) {
      std::fputs(obs::StageProfiler::Instance().FormatTable().c_str(),
                 stderr);
    }
    return 0;
  }

  config.sim.checkpoint = args.checkpoint;
  Result<SimMetrics> run = RunExperimentChecked(catalog, templates, config);
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    // Crash injection is a deliberate stop (snapshot on disk, no final
    // report), distinct from a genuine failure.
    return run.status().code() == StatusCode::kResourceExhausted ? 3 : 1;
  }
  const SimMetrics metrics = std::move(run).value();
  std::fputs(FormatRunDetail(metrics).c_str(), stdout);
  if (metrics.tenants.size() > 1) {
    std::printf("\nPer-tenant breakdown (%zu tenants, traffic skew %g%s%s)\n",
                metrics.tenants.size(), args.exp.tenant_skew,
                args.exp.fair_eviction ? ", fair-eviction" : "",
                args.exp.admission ? ", admission" : "");
    std::fputs(MakeTenantTable(metrics).ToAscii().c_str(), stdout);
    std::fputs(FormatFairness(metrics).c_str(), stdout);
  }
  if (metrics.cluster.active) {
    std::printf("\nPer-node breakdown (%s)\n",
                args.exp.elastic ? "elastic" : "fixed fleet");
    std::fputs(MakeNodeTable(metrics).ToAscii().c_str(), stdout);
    std::fputs(FormatCluster(metrics).c_str(), stdout);
  }

  if (!args.csv.empty()) {
    TableWriter timeline({"time_s", "cumulative_cost_$", "credit_$"});
    const TimeSeries cost = metrics.cost_over_time.Downsample(2000);
    const TimeSeries credit = metrics.credit_over_time.Downsample(2000);
    for (size_t i = 0; i < cost.size() && i < credit.size(); ++i) {
      CLOUDCACHE_CHECK(
          timeline
              .AddNumericRow({cost.times()[i], cost.values()[i],
                              credit.values()[i]},
                             4)
              .ok());
    }
    const Status status = timeline.WriteCsvFile(args.csv);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("timeline written to %s\n", args.csv.c_str());
  }

  if (tracer != nullptr) {
    tracer->Flush();
    std::printf("event trace written to %s\n", args.trace.c_str());
  }
  if (!args.metrics_json.empty()) {
    obs::Registry registry;
    obs::FillFromSimMetrics(metrics, &registry);
    std::ofstream out(args.metrics_json,
                      std::ios::binary | std::ios::trunc);
    out << registry.RenderJson();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.metrics_json.c_str());
      return 1;
    }
    out.close();
    std::printf("metrics written to %s\n", args.metrics_json.c_str());
  }
  if (args.profile_stages) {
    std::fputs(obs::StageProfiler::Instance().FormatTable().c_str(),
               stderr);
  }
  return 0;
}
