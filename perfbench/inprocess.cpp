// In-process workloads: the benchmark links the cloudcache library and
// drives the economy through Simulator's external drive. A pass replays
// the workload on `replays` input streams, stream k seeded
// MixSeed(--seed, k); each replay rebuilds the economy and runs exactly
// `queries` queries. Passes repeat until the time is up, and every pass
// must reproduce the first one's economy replay for replay.

#include <string>
#include <vector>

#include "bench.h"
#include "economy.h"
#include "stats.h"

namespace perfbench {

namespace {

/// Set-up is ~0.1 ms. Its median is taken over this many builds made
/// before any query runs, plus the build before every replay, so the
/// samples spread over the whole run.
constexpr size_t kSetupSamples = 15;

void MeasureEndToEnd(const RunOptions& options,
                     const std::vector<std::vector<std::string>>& replays,
                     uint64_t n, int64_t deadline, Report* report) {
  const CpuRotation cpus;
  std::vector<double> setup_s;
  const size_t setup_samples = options.small ? 5 : kSetupSamples;
  for (size_t i = 0; i < setup_samples; ++i) {
    cpus.Pin(i);
    const int64_t start = NowNs();
    Result<std::unique_ptr<Economy>> built =
        BuildEconomy(replays[i % replays.size()], "", false);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!built.ok()) {
      report->Fail("set-up: " + built.status().ToString());
      return;
    }
  }

  // Throughput and latency come from each replay's fastest execution (best
  // of the passes). Neighbour load on a shared host only ever adds time,
  // and it drifts over tens of seconds, so best-of is the estimator that
  // repeats from run to run; a mean or median of the passes would not.
  std::vector<uint32_t> latency;
  std::vector<int64_t> best_wall(replays.size(), INT64_MAX);
  std::vector<std::vector<uint32_t>> best_latency(replays.size());
  std::vector<EconCounters> first;
  double peak_rss_mb = 0;
  for (int pass = 0; pass < 1 || NowNs() < deadline; ++pass) {
    for (size_t k = 0; k < replays.size(); ++k) {
      cpus.Pin(pass + k);
      const int64_t start = NowNs();
      Result<std::unique_ptr<Economy>> built =
          BuildEconomy(replays[k], "", false);
      setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
      if (!built.ok()) {
        report->Fail("set-up: " + built.status().ToString());
        return;
      }
      Economy& economy = *built.value();
      latency.clear();
      const int64_t wall =
          DriveBare(&economy, n, Uncapped(economy), &latency,
                    [](const Query&, const ServedQuery&, uint64_t) {});
      if (wall < best_wall[k]) {
        best_wall[k] = wall;
        best_latency[k].swap(latency);
      }
      report->attempted += n;
      const EconCounters counters =
          EconCounters::Of(economy.sim->external_metrics());
      const std::string where = "pass " + std::to_string(pass) +
                                " replay " + std::to_string(k);
      if (counters.queries != n) {
        report->Fail(where + " served " + std::to_string(counters.queries) +
                     " of " + std::to_string(n) + " queries");
      }
      if (pass == 0) {
        first.push_back(counters);
      } else if (counters != first[k]) {
        report->Fail(where + " diverged from pass 0: " + counters.ToString() +
                     " vs " + first[k].ToString());
      }
    }
    // Later passes repeat the same work; the peak is read after the first
    // so it does not depend on how many passes fit in the run.
    if (pass == 0) peak_rss_mb = PeakRssMb(0);
  }

  // The production driver (Simulator::RunChecked, as cloudcache_sim runs
  // it) must book the same economy as the external drive measured above.
  Result<std::unique_ptr<Economy>> reference =
      BuildEconomy(replays[0], "", false);
  if (reference.ok()) {
    Result<SimMetrics> ran = reference.value()->sim->RunChecked();
    if (!ran.ok()) {
      report->Fail("Simulator::RunChecked: " + ran.status().ToString());
    } else if (EconCounters::Of(ran.value()) != first[0]) {
      report->Fail("external drive diverged from Simulator::RunChecked: " +
                   first[0].ToString() + " vs " +
                   EconCounters::Of(ran.value()).ToString());
    }
  } else {
    report->Fail("set-up: " + reference.status().ToString());
  }

  double cost = 0, response_sum = 0;
  uint64_t served = 0;
  for (const EconCounters& c : first) {
    cost += c.operating_cost;
    response_sum += c.mean_response * static_cast<double>(c.served);
    served += c.served;
  }
  const double queries = static_cast<double>(n * replays.size());
  int64_t wall = 0;
  latency.clear();
  for (size_t k = 0; k < replays.size(); ++k) {
    wall += best_wall[k];
    latency.insert(latency.end(), best_latency[k].begin(),
                   best_latency[k].end());
  }
  report->Add("qps", queries / (static_cast<double>(wall) / 1e9),
              "queries/s", latency.size());
  report->Add("latency_p50_us", Percentile(&latency, 0.50) / 1e3, "us",
              latency.size());
  report->Add("latency_p99_us", Percentile(&latency, 0.99) / 1e3, "us",
              latency.size());
  report->Add("setup_s", Median(setup_s), "s", setup_s.size());
  report->Add("peak_rss_mb", peak_rss_mb, "MB");
  report->Add("cost_usd_per_kquery", cost * 1000.0 / queries, "USD/kquery");
  report->Add("sim_response_mean_s",
              served == 0 ? 0.0 : response_sum / static_cast<double>(served),
              "sim_s", served);
}

void MeasureLayers(const RunOptions& options,
                   const std::vector<std::vector<std::string>>& replays,
                   uint64_t n, int64_t deadline, Report* report) {
  const CpuRotation cpus;
  LayerTrace trace;
  std::vector<double> bare_ns, traced_ns;
  const std::string live_snapshot = options.work_dir + "/inprocess.snap";
  for (int pass = 0; pass < 1 || NowNs() < deadline; ++pass) {
    int64_t bare_wall = 0;
    const int64_t traced_before = trace.loop_ns;
    for (size_t k = 0; k < replays.size(); ++k) {
      const std::vector<std::string>& flags = replays[k];
      cpus.Pin(pass + k);
      Result<std::unique_ptr<Economy>> bare = BuildEconomy(flags, "", false);
      Result<std::unique_ptr<Economy>> traced =
          BuildEconomy(flags, live_snapshot, true);
      if (!bare.ok() || !traced.ok()) {
        report->Fail("set-up: " +
                     (bare.ok() ? traced.status() : bare.status()).ToString());
        return;
      }
      Economy& b = *bare.value();
      bare_wall += DriveBare(&b, n, Uncapped(b), nullptr,
                             [](const Query&, const ServedQuery&, uint64_t) {});
      Economy& t = *traced.value();
      std::vector<CheckpointRecord> checkpoints;
      const Status drove = DriveTraced(&t, n, Uncapped(t), n / 4,
                                       live_snapshot, &trace, &checkpoints);
      if (!drove.ok()) report->Fail("checkpoint: " + drove.ToString());
      report->attempted += 2 * n;

      // Instrumented ≡ bare: tracing must not move the economy.
      const EconCounters bare_counters =
          EconCounters::Of(b.sim->external_metrics());
      const EconCounters traced_counters =
          EconCounters::Of(t.sim->external_metrics());
      if (bare_counters != traced_counters) {
        report->Fail("traced run diverged from the untraced run: " +
                     traced_counters.ToString() + " vs " +
                     bare_counters.ToString());
      }
      const Status restored = VerifyRestores(flags, checkpoints, &trace);
      if (!restored.ok()) report->Fail("restore: " + restored.ToString());
    }
    bare_ns.push_back(static_cast<double>(bare_wall));
    traced_ns.push_back(static_cast<double>(trace.loop_ns - traced_before));
  }
  AddLayerMetrics(trace, Median(traced_ns) / Median(bare_ns) - 1.0, report);
  // The server layer is not on an in-process workload's path.
  report->Add("server.handshake_ms", 0, "ms");
  report->Add("server.stream_qps_spread", 0, "ratio");
  report->Add("server.cpu_util", 0, "cpu_s/s");
  report->Add("server.wire_us_per_query", 0, "us");
}

}  // namespace

void RunInProcess(const RunOptions& options, const WorkloadSpec& spec,
                  Report* report) {
  const uint64_t n = options.small ? spec.small_queries : spec.queries;
  const std::vector<std::vector<std::string>> replays =
      ReplayFlags(options, spec, n);
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  if (options.trace) {
    MeasureLayers(options, replays, n, deadline, report);
  } else {
    MeasureEndToEnd(options, replays, n, deadline, report);
  }
}

}  // namespace perfbench
