#include "economy.h"

#include <filesystem>
#include <sstream>
#include <utility>

#include "src/cost/cost_model.h"
#include "src/obs/stage_profile.h"
#include "src/persist/snapshot.h"
#include "src/structure/index_advisor.h"
#include "src/util/rng.h"

namespace perfbench {

Result<std::unique_ptr<Economy>> BuildEconomy(
    const std::vector<std::string>& flags, const std::string& snapshot_path,
    bool timed) {
  tools::ExperimentFlags parsed;
  for (const std::string& flag : flags) {
    if (tools::ParseExperimentFlag(flag.c_str(), &parsed) !=
        tools::FlagParse::kConsumed) {
      return Status::InvalidArgument("bad experiment flag " + flag);
    }
  }
  CLOUDCACHE_RETURN_IF_ERROR(tools::ValidateExperimentFlags(parsed));

  auto economy = std::make_unique<Economy>();
  Economy& e = *economy;
  CLOUDCACHE_RETURN_IF_ERROR(
      tools::MakeExperimentCatalog(parsed, &e.catalog, &e.templates));
  Result<ExperimentConfig> config = tools::MakeExperimentFlagsConfig(parsed);
  CLOUDCACHE_RETURN_IF_ERROR(config.status());
  e.config = std::move(config).value();
  Result<std::vector<ResolvedTemplate>> resolved =
      ResolveTemplates(e.catalog, e.templates);
  CLOUDCACHE_RETURN_IF_ERROR(resolved.status());
  e.resolved = std::move(resolved).value();
  e.indexes =
      RecommendIndexes(e.catalog, e.resolved, e.config.index_candidates);

  // The graph cloudcached hosts (CloudCachedServer::BuildEconomy): the
  // experiment's scheme, one twin generator per stream, and an
  // external-drive simulator with the server's options.
  e.scheme = MakeExperimentScheme(e.catalog, e.indexes, e.config);
  e.cluster = dynamic_cast<ClusterScheme*>(e.scheme.get());
  Scheme* driven = e.scheme.get();
  if (timed) {
    e.timed = std::make_unique<TimedScheme>(e.scheme.get());
    driven = e.timed.get();
  }
  const uint32_t streams = e.config.tenancy.tenants;
  for (uint32_t t = 0; t < streams; ++t) {
    e.generators.push_back(std::make_unique<WorkloadGenerator>(
        &e.catalog, e.resolved,
        TenantWorkloadOptions(e.config.workload, e.config.tenancy, t)));
  }
  e.sim_options = e.config.sim;
  e.sim_options.node_rent_multiplier = e.config.cluster.node_rent_multiplier;
  e.sim_options.checkpoint.config_hash = HashExperimentConfig(e.config);
  e.sim_options.checkpoint.path = snapshot_path;
  if (streams > 1) {
    std::vector<WorkloadGenerator*> generators;
    for (const auto& gen : e.generators) generators.push_back(gen.get());
    e.sim = std::make_unique<Simulator>(&e.catalog, driven,
                                        std::move(generators), e.sim_options);
  } else {
    e.sim = std::make_unique<Simulator>(&e.catalog, driven,
                                        e.generators[0].get(), e.sim_options);
  }
  return economy;
}

std::vector<std::vector<std::string>> ReplayFlags(const RunOptions& options,
                                                  const WorkloadSpec& spec,
                                                  uint64_t queries) {
  const uint32_t replays = options.small ? 2 : spec.replays;
  std::vector<std::vector<std::string>> all;
  for (uint32_t k = 0; k < replays; ++k) {
    std::vector<std::string> flags = spec.flags;
    flags.push_back("--seed=" + std::to_string(MixSeed(options.seed, k)));
    flags.push_back("--queries=" + std::to_string(queries));
    all.push_back(std::move(flags));
  }
  return all;
}

EconCounters EconCounters::Of(const SimMetrics& m) {
  EconCounters c;
  c.queries = m.queries;
  c.served = m.served;
  c.served_in_cache = m.served_in_cache;
  c.served_in_backend = m.served_in_backend;
  c.investments = m.investments;
  c.evictions = m.evictions;
  c.throttled = m.throttled;
  c.case_a = m.case_a;
  c.case_b = m.case_b;
  c.case_c = m.case_c;
  c.wan_bytes = m.wan_bytes;
  c.revenue_micros = m.revenue.micros();
  c.profit_micros = m.profit.micros();
  c.operating_cost = m.operating_cost.Total();
  c.mean_response = m.MeanResponse();
  return c;
}

bool EconCounters::operator==(const EconCounters& o) const {
  // Exact comparison, doubles included: the drives are pinned bit-identical.
  return queries == o.queries && served == o.served &&
         served_in_cache == o.served_in_cache &&
         served_in_backend == o.served_in_backend &&
         investments == o.investments && evictions == o.evictions &&
         throttled == o.throttled && case_a == o.case_a &&
         case_b == o.case_b && case_c == o.case_c &&
         wan_bytes == o.wan_bytes && revenue_micros == o.revenue_micros &&
         profit_micros == o.profit_micros &&
         operating_cost == o.operating_cost &&
         mean_response == o.mean_response;
}

std::string EconCounters::ToString() const {
  std::ostringstream out;
  out.precision(17);
  out << "queries=" << queries << " served=" << served
      << " in_cache=" << served_in_cache << " in_backend=" << served_in_backend
      << " investments=" << investments << " evictions=" << evictions
      << " throttled=" << throttled << " cases=" << case_a << "/" << case_b
      << "/" << case_c << " wan_bytes=" << wan_bytes
      << " revenue_micros=" << revenue_micros
      << " profit_micros=" << profit_micros << " cost=" << operating_cost
      << " mean_response=" << mean_response;
  return out.str();
}

namespace {

const PlanEnumerator* EnumeratorOf(const Scheme& scheme) {
  const auto* econ = dynamic_cast<const EconScheme*>(&scheme);
  return econ == nullptr ? nullptr : &econ->engine().enumerator();
}

/// Plan-cache hits/misses summed over every node that ever served,
/// released nodes included: nodes are sampled before each serve, so a
/// released node keeps what it counted up to its last query.
class PlanCacheTally {
 public:
  void Observe(const Economy& economy) {
    current_.clear();
    if (economy.cluster != nullptr) {
      for (size_t i = 0; i < economy.cluster->num_nodes(); ++i) {
        current_.push_back(EnumeratorOf(economy.cluster->node(i)));
      }
    } else {
      current_.push_back(EnumeratorOf(*economy.scheme));
    }
    std::vector<Seen> next;
    for (const PlanEnumerator* node : current_) {
      if (node == nullptr) continue;
      Seen seen{node, node->plan_cache_hits(), node->plan_cache_misses()};
      uint64_t base_hits = 0, base_misses = 0;
      for (const Seen& old : seen_) {
        // A counter below its last sighting is a new node at a reused
        // address.
        if (old.node == node && old.hits <= seen.hits &&
            old.misses <= seen.misses) {
          base_hits = old.hits;
          base_misses = old.misses;
        }
      }
      hits_ += seen.hits - base_hits;
      misses_ += seen.misses - base_misses;
      next.push_back(seen);
    }
    seen_ = std::move(next);
  }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  struct Seen {
    const PlanEnumerator* node;
    uint64_t hits, misses;
  };
  std::vector<const PlanEnumerator*> current_;
  std::vector<Seen> seen_;
  uint64_t hits_ = 0, misses_ = 0;
};

}  // namespace

Status DriveTraced(Economy* economy, uint64_t n,
                   const std::vector<uint64_t>& caps,
                   uint64_t checkpoint_every,
                   const std::string& snapshot_prefix, LayerTrace* trace,
                   std::vector<CheckpointRecord>* checkpoints) {
  Simulator& sim = *economy->sim;
  const CostModel metered(&economy->catalog,
                          &economy->sim_options.metered_prices);
  ClusterScheme* cluster = economy->cluster;
  PlanCacheTally tally;
  obs::StageProfiler& profiler = obs::StageProfiler::Instance();
  profiler.Reset();
  profiler.Enable(true);

  sim.ExternalBegin();
  int64_t excluded = 0;  // Checkpoint time, kept out of the loop wall.
  Status status = Status::OK();
  uint64_t processed = 0;
  const int64_t start = NowNs();
  for (uint64_t i = 0; i < n; ++i) {
    const int head = MergeHead(*economy, caps);
    if (head < 0) break;
    if (cluster != nullptr) tally.Observe(*economy);

    const int64_t t0 = NowNs();
    const Query query = economy->generators[static_cast<size_t>(head)]->Next();
    const int64_t t1 = NowNs();
    trace->next.Add(t0, t1);
    if (cluster != nullptr) {
      const int64_t r0 = NowNs();
      const size_t routed = cluster->RouteQuery(query);
      const int64_t r1 = NowNs();
      trace->route.Add(r0, r1);
      (void)routed;
    }
    const int64_t s0 = NowNs();
    const ServedQuery served = sim.ExternalServe(query);
    const int64_t s1 = NowNs();
    trace->serve.Add(s0, s1);
    if (served.served) {
      const int64_t e0 = NowNs();
      const ExecutionEstimate estimate =
          metered.EstimateExecution(query, served.spec);
      const int64_t e1 = NowNs();
      trace->estimate.Add(e0, e1);
      (void)estimate;
    }
    ++processed;

    if (checkpoint_every > 0 && (i + 1) % checkpoint_every == 0 &&
        i + 1 < n) {
      const int64_t c0 = NowNs();
      const Status written = sim.ExternalCheckpoint();
      const int64_t c1 = NowNs();
      trace->checkpoint.Add(c0, c1);
      CheckpointRecord record;
      record.path = snapshot_prefix + "." + std::to_string(checkpoints->size());
      record.processed = sim.external_processed();
      record.counters = EconCounters::Of(sim.external_metrics());
      std::error_code ec;
      if (written.ok()) {
        std::filesystem::rename(economy->sim_options.checkpoint.path,
                                record.path, ec);
      }
      if (!written.ok() || ec) {
        if (status.ok()) {
          status = written.ok() ? Status::IoError("rename: " + ec.message())
                                : written;
        }
      } else {
        trace->snapshot_bytes += std::filesystem::file_size(record.path, ec);
        checkpoints->push_back(std::move(record));
      }
      excluded += NowNs() - c0;
    }
  }
  trace->loop_ns += NowNs() - start - excluded;
  trace->queries += processed;
  profiler.Enable(false);

  tally.Observe(*economy);
  trace->plan_hits += tally.hits();
  trace->plan_misses += tally.misses();
  trace->on_query.calls += economy->timed->calls();
  trace->on_query.ns += economy->timed->ns();
  for (int s = 0; s < obs::kNumStages; ++s) {
    const auto stage = static_cast<obs::Stage>(s);
    trace->stages[s].calls += profiler.count(stage);
    trace->stages[s].ns += static_cast<int64_t>(profiler.nanos(stage));
  }
  ClusterMetrics shape;
  economy->scheme->DescribeCluster(&shape);
  trace->scale_events += shape.scale_out_events + shape.scale_in_events;
  trace->peak_nodes = std::max<uint32_t>(
      trace->peak_nodes, shape.active ? shape.peak_nodes : 1u);
  const SimMetrics& metrics = sim.external_metrics();
  trace->investments += metrics.investments;
  trace->evictions += metrics.evictions;
  trace->served += metrics.served;
  trace->served_in_cache += metrics.served_in_cache;
  return status;
}

Status VerifyRestores(const std::vector<std::string>& flags,
                      const std::vector<CheckpointRecord>& checkpoints,
                      LayerTrace* trace) {
  Status result = Status::OK();
  for (const CheckpointRecord& record : checkpoints) {
    Result<std::unique_ptr<Economy>> built = BuildEconomy(flags, "", false);
    CLOUDCACHE_RETURN_IF_ERROR(built.status());
    Economy& fresh = *built.value();
    const int64_t start = NowNs();
    Result<persist::SnapshotReader> reader =
        persist::SnapshotReader::FromFile(record.path);
    Status restored = reader.status();
    if (restored.ok()) restored = fresh.sim->RestoreFrom(reader.value());
    trace->restore.Add(start, NowNs());
    std::error_code ec;
    std::filesystem::remove(record.path, ec);
    if (!restored.ok()) {
      if (result.ok()) result = restored;
      continue;
    }
    fresh.sim->ExternalBegin();
    const EconCounters got = EconCounters::Of(fresh.sim->external_metrics());
    if (fresh.sim->external_processed() != record.processed ||
        got != record.counters) {
      if (result.ok()) {
        result = Status::Internal(
            "restore of the snapshot at query " +
            std::to_string(record.processed) + " gave " + got.ToString() +
            ", the live run had " + record.counters.ToString());
      }
    }
  }
  return result;
}

void AddLayerMetrics(const LayerTrace& t, double trace_overhead,
                     Report* report) {
  const double queries = t.queries == 0 ? 1.0 : static_cast<double>(t.queries);
  int64_t stage_ns = 0;
  for (const Span& stage : t.stages) stage_ns += stage.ns;
  const auto per_call = [](int64_t ns, uint64_t calls) {
    return calls == 0 ? 0.0 : static_cast<double>(ns) / calls;
  };
  const auto ratio = [](uint64_t part, uint64_t whole) {
    return whole == 0 ? 0.0 : static_cast<double>(part) / whole;
  };

  report->Add("workload.next_ns", t.next.MeanNs(), "ns", t.next.calls);
  report->Add("sim.serve_ns", t.serve.MeanNs(), "ns", t.serve.calls);
  report->Add("sim.self_ns",
              per_call(t.serve.ns - t.on_query.ns, t.serve.calls), "ns",
              t.serve.calls);
  report->Add("baseline.on_query_ns", t.on_query.MeanNs(), "ns",
              t.on_query.calls);
  report->Add("baseline.self_ns",
              per_call(t.on_query.ns - stage_ns, t.on_query.calls), "ns",
              t.on_query.calls);
  report->Add("plan.enumerate_ns", t.stages[0].MeanNs(), "ns",
              t.stages[0].calls);
  report->Add("plan.skyline_ns", t.stages[1].MeanNs(), "ns",
              t.stages[1].calls);
  report->Add("plan.cache_hit_ratio",
              ratio(t.plan_hits, t.plan_hits + t.plan_misses), "ratio",
              t.plan_hits + t.plan_misses);
  report->Add("econ.price_ns", t.stages[2].MeanNs(), "ns", t.stages[2].calls);
  report->Add("econ.settle_ns", t.stages[3].MeanNs(), "ns",
              t.stages[3].calls);
  report->Add("econ.cache_served_ratio", ratio(t.served_in_cache, t.served),
              "ratio", t.served);
  report->Add("econ.investments_per_kquery", t.investments * 1000.0 / queries,
              "1/kquery", t.queries);
  report->Add("econ.evictions_per_kquery", t.evictions * 1000.0 / queries,
              "1/kquery", t.queries);
  report->Add("cost.estimate_ns", t.estimate.MeanNs(), "ns", t.estimate.calls);
  report->Add("cluster.route_ns", t.route.MeanNs(), "ns", t.route.calls);
  report->Add("cluster.scale_events_per_kquery",
              t.scale_events * 1000.0 / queries, "1/kquery", t.queries);
  report->Add("cluster.peak_nodes", t.peak_nodes, "nodes");
  report->Add("persist.checkpoint_ms", t.checkpoint.MeanNs() / 1e6, "ms",
              t.checkpoint.calls);
  report->Add("persist.restore_ms", t.restore.MeanNs() / 1e6, "ms",
              t.restore.calls);
  report->Add("persist.snapshot_bytes",
              t.checkpoint.calls == 0
                  ? 0.0
                  : static_cast<double>(t.snapshot_bytes) / t.checkpoint.calls,
              "bytes", t.checkpoint.calls);
  report->Add("bench.unattributed_frac",
              t.loop_ns == 0 ? 0.0
                             : 1.0 - static_cast<double>(t.AttributedNs()) /
                                         static_cast<double>(t.loop_ns),
              "frac", t.queries);
  report->Add("bench.trace_overhead_frac", trace_overhead, "frac");
}

}  // namespace perfbench
