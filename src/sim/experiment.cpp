#include "src/sim/experiment.h"

#include <cmath>
#include <utility>

#include "src/sim/sweep.h"
#include "src/structure/index_advisor.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace cloudcache {

WorkloadOptions TenantWorkloadOptions(const WorkloadOptions& base,
                                      const TenancyOptions& tenancy,
                                      uint32_t tenant) {
  CLOUDCACHE_CHECK_GE(tenancy.tenants, 1u);
  CLOUDCACHE_CHECK_LT(tenant, tenancy.tenants);
  WorkloadOptions options = base;
  options.tenant_id = tenant;
  if (tenant > 0) options.seed = MixSeed(base.seed, tenant);
  if (tenancy.rotate_template_mix) options.popularity_offset = tenant;

  // Zipf traffic shares: w_t = (1/(t+1)^s) / sum. The shares split the
  // base arrival rate, so the merged stream offers the same load as the
  // single stream it replaces.
  double normalizer = 0;
  for (uint32_t u = 0; u < tenancy.tenants; ++u) {
    normalizer += std::pow(static_cast<double>(u + 1),
                           -tenancy.traffic_skew);
  }
  const double share = std::pow(static_cast<double>(tenant + 1),
                                -tenancy.traffic_skew) /
                       normalizer;
  options.interarrival_seconds = base.interarrival_seconds / share;
  return options;
}

namespace {

/// FNV-1a over the canonical little-endian serialization of the config.
uint64_t Fnv1a64(const std::vector<uint8_t>& bytes) {
  uint64_t hash = 1469598103934665603ull;
  for (uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  return hash;
}

void EncodePriceList(const PriceList& p, persist::Encoder* enc) {
  enc->PutDouble(p.cpu_second_dollars);
  enc->PutDouble(p.network_byte_dollars);
  enc->PutDouble(p.disk_byte_second_dollars);
  enc->PutDouble(p.io_op_dollars);
  enc->PutDouble(p.cpu_reserve_fraction);
  enc->PutDouble(p.lcpu);
  enc->PutDouble(p.fcpu);
  enc->PutDouble(p.fio);
  enc->PutDouble(p.fn);
  enc->PutDouble(p.latency_seconds);
  enc->PutDouble(p.wan_mbps);
  enc->PutDouble(p.boot_seconds);
  enc->PutDouble(p.io_bytes_per_op);
  enc->PutDouble(p.io_seconds_per_op);
  enc->PutDouble(p.random_io_multiplier);
  enc->PutDouble(p.parallel_overhead);
}

}  // namespace

std::unique_ptr<Scheme> MakeExperimentScheme(
    const Catalog& catalog, const std::vector<StructureKey>& indexes,
    const ExperimentConfig& config) {
  const bool multi_tenant = config.tenancy.tenants > 1;

  // Builds the scheme for one cache node. Ordinal 0 carries the
  // experiment's own seed — on the single-node path it IS the classic
  // scheme, which is what keeps `--nodes=1` bit-identical to the
  // pre-cluster baseline — while rented/extra nodes derive their seeds
  // from their never-reused ordinal (salted away from the tenant-stream
  // MixSeed discipline), so every node's budget-jitter streams are a pure
  // function of the configuration. Captured by pointer: an elastic
  // ClusterScheme keeps the factory for mid-run rentals, long after this
  // function returns (the contract on `catalog`/`indexes`/`config`
  // outliving the scheme is in the header).
  const Catalog* catalog_ptr = &catalog;
  const std::vector<StructureKey>* indexes_ptr = &indexes;
  const ExperimentConfig* config_ptr = &config;
  const auto node_factory = [catalog_ptr, indexes_ptr, config_ptr,
                             multi_tenant](uint32_t ordinal) {
    const ExperimentConfig& config = *config_ptr;
    std::unique_ptr<Scheme> scheme;
    if (config.scheme == SchemeKind::kBypassYield) {
      BypassYieldScheme::Options options;
      if (config.customize_bypass) config.customize_bypass(options);
      scheme = std::make_unique<BypassYieldScheme>(catalog_ptr, options);
    } else {
      EconScheme::Config econ_config;
      switch (config.scheme) {
        case SchemeKind::kEconCol:
          econ_config = EconScheme::EconColConfig();
          break;
        case SchemeKind::kEconFast:
          econ_config = EconScheme::EconFastConfig();
          break;
        default:
          econ_config = EconScheme::EconCheapConfig();
          break;
      }
      constexpr uint64_t kNodeSeedSalt = 0x636c757374657231ull;  // cluster
      econ_config.seed = ordinal == 0
                             ? config.seed
                             : MixSeed(config.seed, kNodeSeedSalt + ordinal);
      if (config.customize_econ) config.customize_econ(econ_config);
      // Tenancy is the experiment's to decide, not the ablation hook's:
      // the multi-tenant path provisions tenant identities; one stream
      // stays on the zero-overhead pre-tenancy configuration. The
      // fairness policies ride the same switch — they read tenant
      // attribution, so they only engage on the multi-tenant path (the
      // hook may still tune their ratios/slack/windows). So do the
      // per-tenant budget shapes, which need tenant identities.
      if (multi_tenant) {
        econ_config.tenants = config.tenancy.tenants;
        if (config.tenancy.fair_eviction) {
          econ_config.economy.tenant_weighted_eviction = true;
        }
        if (config.tenancy.admission) {
          econ_config.economy.admission.enabled = true;
        }
        econ_config.tenant_budgets = config.tenancy.tenant_budgets;
      }
      scheme = std::make_unique<EconScheme>(catalog_ptr,
                                            &config.decision_prices,
                                            *indexes_ptr,
                                            std::move(econ_config));
    }
    return scheme;
  };

  if (config.cluster.nodes > 1 || config.cluster.elastic) {
    return std::make_unique<ClusterScheme>(
        catalog_ptr, &config.decision_prices, config.cluster, node_factory);
  }
  return node_factory(0);
}

uint64_t HashExperimentConfig(const ExperimentConfig& config) {
  persist::Encoder enc;
  enc.PutU8(static_cast<uint8_t>(config.scheme));

  const WorkloadOptions& w = config.workload;
  enc.PutDouble(w.popularity_skew);
  enc.PutU64(w.drift_period);
  enc.PutDouble(w.repeat_probability);
  enc.PutDouble(w.interarrival_seconds);
  enc.PutU8(static_cast<uint8_t>(w.arrival));
  enc.PutDouble(w.selectivity_scale);
  enc.PutU64(w.seed);
  enc.PutU32(w.tenant_id);
  enc.PutU64(w.popularity_offset);

  const TenancyOptions& t = config.tenancy;
  enc.PutU32(t.tenants);
  enc.PutDouble(t.traffic_skew);
  enc.PutBool(t.rotate_template_mix);
  enc.PutBool(t.fair_eviction);
  enc.PutBool(t.admission);
  enc.PutU64(t.tenant_budgets.size());
  for (const TenantBudgetShape& shape : t.tenant_budgets) {
    enc.PutU32(shape.tenant);
    enc.PutDouble(shape.price_scale);
    enc.PutDouble(shape.tmax_scale);
  }

  const ClusterOptions& c = config.cluster;
  enc.PutU32(c.nodes);
  enc.PutBool(c.elastic);
  enc.PutDouble(c.node_rent_multiplier);
  enc.PutDouble(c.migration_recency_seconds);
  enc.PutU64(c.elasticity.check_interval_queries);
  enc.PutU32(c.elasticity.sustain_windows);
  enc.PutU32(c.elasticity.cooldown_windows);
  enc.PutDouble(c.elasticity.cold_share);
  enc.PutI64(c.elasticity.amortization_horizon);
  enc.PutU32(c.elasticity.min_nodes);
  enc.PutU32(c.elasticity.max_nodes);

  // SimulatorOptions, minus the checkpoint block (a snapshot must be
  // restorable regardless of the cadence that produced it).
  enc.PutU64(config.sim.num_queries);
  EncodePriceList(config.sim.metered_prices, &enc);

  EncodePriceList(config.decision_prices, &enc);
  enc.PutU64(config.index_candidates);
  enc.PutU64(config.seed);
  return Fnv1a64(enc.buffer());
}

SimMetrics RunExperiment(const Catalog& catalog,
                         const std::vector<QueryTemplate>& templates,
                         const ExperimentConfig& config) {
  Result<SimMetrics> result = RunExperimentChecked(catalog, templates,
                                                   config);
  CLOUDCACHE_CHECK(result.ok());
  return std::move(result).value();
}

Result<std::unique_ptr<ExperimentGraph>> ExperimentGraph::Build(
    const Catalog& catalog, const std::vector<QueryTemplate>& templates,
    const ExperimentConfig& config) {
  const CheckpointOptions& cp = config.sim.checkpoint;
  const bool restoring = cp.restore != CheckpointOptions::Restore::kNone;
  if ((cp.every > 0 || restoring) && cp.path.empty()) {
    return Status::InvalidArgument(
        "checkpointing requires a snapshot path");
  }
  std::unique_ptr<ExperimentGraph> graph(
      new ExperimentGraph(&catalog, &config));
  Result<std::vector<ResolvedTemplate>> resolved =
      ResolveTemplates(catalog, templates);
  CLOUDCACHE_RETURN_IF_ERROR(resolved.status());
  graph->resolved_ = std::move(resolved).value();
  graph->indexes_ =
      RecommendIndexes(catalog, graph->resolved_, config.index_candidates);
  graph->Assemble();
  if (!restoring) return graph;

  Result<persist::SnapshotReader> reader =
      persist::SnapshotReader::FromFile(cp.path);
  Status restored = reader.status();
  if (restored.ok()) {
    restored = graph->simulator_->RestoreFrom(reader.value());
  }
  if (restored.ok()) return graph;
  if (cp.restore == CheckpointOptions::Restore::kHard) return restored;
  CLOUDCACHE_LOG(kWarning) << "snapshot " << cp.path << " unusable ("
                           << restored.ToString() << "); starting fresh";
  graph->Assemble();
  return graph;
}

ExperimentGraph::ExperimentGraph(const Catalog* catalog,
                                 const ExperimentConfig* config)
    : catalog_(catalog), config_(config) {}

ExperimentGraph::~ExperimentGraph() = default;

void ExperimentGraph::Assemble() {
  const ExperimentConfig& config = *config_;
  // The driver points into the scheme and the streams: drop it first.
  simulator_.reset();
  scheme_ = MakeExperimentScheme(*catalog_, indexes_, config);
  if (config.tracer != nullptr) {
    scheme_->SetEventTracer(config.tracer, /*node_ordinal=*/0);
  }
  streams_.clear();
  std::vector<WorkloadGenerator*> streams;
  for (uint32_t t = 0; t < config.tenancy.tenants; ++t) {
    streams_.push_back(std::make_unique<WorkloadGenerator>(
        catalog_, resolved_,
        TenantWorkloadOptions(config.workload, config.tenancy, t)));
    streams.push_back(streams_.back().get());
  }

  SimulatorOptions options = config.sim;
  options.node_rent_multiplier = config.cluster.node_rent_multiplier;
  options.checkpoint.config_hash = HashExperimentConfig(config);
  if (config.tenancy.tenants > 1) {
    simulator_ = std::make_unique<Simulator>(catalog_, scheme_.get(),
                                             std::move(streams), options);
  } else {
    simulator_ = std::make_unique<Simulator>(catalog_, scheme_.get(),
                                             streams[0], options);
  }
}

Result<SimMetrics> ExperimentGraph::Run() { return simulator_->RunChecked(); }

Result<SimMetrics> RunExperimentChecked(
    const Catalog& catalog, const std::vector<QueryTemplate>& templates,
    const ExperimentConfig& config) {
  Result<std::unique_ptr<ExperimentGraph>> graph =
      ExperimentGraph::Build(catalog, templates, config);
  CLOUDCACHE_RETURN_IF_ERROR(graph.status());
  return graph.value()->Run();
}

std::vector<SimMetrics> RunAllSchemes(
    const Catalog& catalog, const std::vector<QueryTemplate>& templates,
    ExperimentConfig config) {
  SweepSpec spec;
  spec.schemes = PaperSchemes();
  spec.interarrivals = {config.workload.interarrival_seconds};
  // The caller's seeds apply verbatim to every scheme: all four contenders
  // face the identical query stream, as in the paper's paired comparison.
  spec.seed_policy = SweepSpec::SeedPolicy::kFixed;
  spec.base = std::move(config);

  std::vector<SweepResult> sweep =
      RunSweep(catalog, templates, spec, /*n_threads=*/0);  // All cores.

  std::vector<SimMetrics> results;
  results.reserve(sweep.size());
  for (SweepResult& result : sweep) {
    results.push_back(std::move(result.metrics));
  }
  return results;
}

std::vector<double> PaperInterarrivals() { return {1.0, 10.0, 30.0, 60.0}; }

std::vector<SchemeKind> PaperSchemes() {
  return {SchemeKind::kBypassYield, SchemeKind::kEconCol,
          SchemeKind::kEconCheap, SchemeKind::kEconFast};
}

}  // namespace cloudcache
