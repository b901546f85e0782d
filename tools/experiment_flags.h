#pragma once

// Shared experiment flag surface for the command-line binaries
// (cloudcache_sim, cloudcached, loadgen). The server verifies the
// client's HashExperimentConfig at Hello time, so all three must build
// bit-identical ExperimentConfigs from the same flags — the names, the
// defaults, and the config wiring live here exactly once.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/catalog/sdss.h"
#include "src/catalog/tpch.h"
#include "src/sim/experiment.h"
#include "src/util/money.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace cloudcache {
namespace tools {

/// The experiment-defining flags (everything that feeds the config hash,
/// plus the econ-hook knobs that tune the scheme identically everywhere).
struct ExperimentFlags {
  std::string scheme = "econ-cheap";
  std::string catalog = "tpch";
  double scale_tb = 2.5;
  uint64_t queries = 50'000;
  double interarrival = 10.0;
  std::string arrival = "fixed";
  double skew = 1.0;
  double repeat = 0.3;
  uint64_t seed = 17;
  double regret_a = 0.02;
  int64_t horizon = 50'000;
  double initial_credit = 200.0;
  bool build_latency = false;
  bool plan_cache = true;
  uint32_t tenants = 1;      // Concurrent query streams.
  double tenant_skew = 0.0;  // Zipf skew of per-tenant traffic shares.
  bool fair_eviction = false;  // Tenant-aware eviction weighting.
  bool admission = false;      // Per-tenant admission control.
  double admission_ratio = 2.0;  // Unmonetized-regret / revenue throttle.
  std::vector<TenantBudgetShape> tenant_budgets;  // --tenant-budget=t:p[:t].
  uint32_t nodes = 1;            // Cluster cache nodes.
  bool elastic = false;          // Economic scale-out/in.
  double node_rent_multiplier = 1.0;  // Rented-node rent scale.
  uint32_t max_nodes = 4;        // Elasticity ceiling.
  // Whether single-run-only flags were given (cloudcache_sim warns under
  // --sweep).
  bool scheme_set = false;
  bool interarrival_set = false;
};

/// --name=value match helper shared by every binary's parse loop.
inline bool FlagValue(const char* arg, const char* name,
                      std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

enum class FlagParse {
  kConsumed,  // The argument was an experiment flag and was applied.
  kNotMine,   // Not an experiment flag; the caller handles it.
  kError,     // An experiment flag with a malformed value (already
              // reported to stderr).
};

/// Tries one argv entry against the shared experiment flags.
inline FlagParse ParseExperimentFlag(const char* arg,
                                     ExperimentFlags* flags) {
  std::string v;
  if (FlagValue(arg, "--scheme", &v)) {
    flags->scheme = v;
    flags->scheme_set = true;
  } else if (FlagValue(arg, "--catalog", &v)) {
    flags->catalog = v;
  } else if (FlagValue(arg, "--scale-tb", &v)) {
    flags->scale_tb = std::stod(v);
  } else if (FlagValue(arg, "--queries", &v)) {
    flags->queries = std::stoull(v);
  } else if (FlagValue(arg, "--interarrival", &v)) {
    flags->interarrival = std::stod(v);
    flags->interarrival_set = true;
  } else if (FlagValue(arg, "--arrival", &v)) {
    flags->arrival = v;
  } else if (FlagValue(arg, "--skew", &v)) {
    flags->skew = std::stod(v);
  } else if (FlagValue(arg, "--repeat", &v)) {
    flags->repeat = std::stod(v);
  } else if (FlagValue(arg, "--seed", &v)) {
    flags->seed = std::stoull(v);
  } else if (FlagValue(arg, "--regret-a", &v)) {
    flags->regret_a = std::stod(v);
  } else if (FlagValue(arg, "--horizon", &v)) {
    flags->horizon = std::stoll(v);
  } else if (FlagValue(arg, "--credit", &v)) {
    flags->initial_credit = std::stod(v);
  } else if (std::strcmp(arg, "--build-latency") == 0) {
    flags->build_latency = true;
  } else if (std::strcmp(arg, "--no-plan-cache") == 0) {
    flags->plan_cache = false;
  } else if (FlagValue(arg, "--tenants", &v)) {
    flags->tenants =
        static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
  } else if (FlagValue(arg, "--tenant-skew", &v)) {
    flags->tenant_skew = std::stod(v);
  } else if (std::strcmp(arg, "--fair-eviction") == 0) {
    flags->fair_eviction = true;
  } else if (std::strcmp(arg, "--admission") == 0) {
    flags->admission = true;
  } else if (FlagValue(arg, "--admission-ratio", &v)) {
    flags->admission_ratio = std::stod(v);
  } else if (FlagValue(arg, "--tenant-budget", &v)) {
    // T:P[:M] — tenant index, price-multiplier scale, optional tmax
    // scale. Every field is validated: a stray non-numeric tenant must
    // not silently squeeze tenant 0.
    const auto reject = [] {
      std::fprintf(stderr,
                   "--tenant-budget wants <tenant>:<price>[:<tmax>] "
                   "(numeric fields)\n");
      return FlagParse::kError;
    };
    TenantBudgetShape shape;
    const size_t first = v.find(':');
    if (first == std::string::npos || first == 0) return reject();
    const std::string tenant_field = v.substr(0, first);
    char* end = nullptr;
    const unsigned long tenant = std::strtoul(tenant_field.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') return reject();
    shape.tenant = static_cast<uint32_t>(tenant);
    const size_t second = v.find(':', first + 1);
    const std::string price_field =
        v.substr(first + 1, second == std::string::npos
                                ? std::string::npos
                                : second - first - 1);
    if (price_field.empty()) return reject();
    shape.price_scale = std::strtod(price_field.c_str(), &end);
    if (end == nullptr || *end != '\0') return reject();
    if (second != std::string::npos) {
      const std::string tmax_field = v.substr(second + 1);
      if (tmax_field.empty()) return reject();
      shape.tmax_scale = std::strtod(tmax_field.c_str(), &end);
      if (end == nullptr || *end != '\0') return reject();
    }
    flags->tenant_budgets.push_back(shape);
  } else if (FlagValue(arg, "--nodes", &v)) {
    flags->nodes =
        static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
  } else if (FlagValue(arg, "--elastic", &v)) {
    if (v == "on") {
      flags->elastic = true;
    } else if (v == "off") {
      flags->elastic = false;
    } else {
      std::fprintf(stderr, "--elastic wants on|off\n");
      return FlagParse::kError;
    }
  } else if (FlagValue(arg, "--node-rent-multiplier", &v)) {
    flags->node_rent_multiplier = std::stod(v);
  } else if (FlagValue(arg, "--max-nodes", &v)) {
    flags->max_nodes =
        static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
  } else {
    return FlagParse::kNotMine;
  }
  return FlagParse::kConsumed;
}

/// Tries one argv entry against the --restore flag the snapshot-taking
/// binaries share: bare --restore is kHard, =auto and =hard name theirs.
inline FlagParse ParseRestoreFlag(const char* arg,
                                  CheckpointOptions::Restore* restore) {
  std::string v;
  if (std::strcmp(arg, "--restore") == 0) {
    *restore = CheckpointOptions::Restore::kHard;
  } else if (!FlagValue(arg, "--restore", &v)) {
    return FlagParse::kNotMine;
  } else if (v == "hard") {
    *restore = CheckpointOptions::Restore::kHard;
  } else if (v == "auto") {
    *restore = CheckpointOptions::Restore::kAuto;
  } else {
    std::fprintf(stderr,
                 "--restore wants no value (hard), =auto, or =hard; got "
                 "'%s'\n",
                 v.c_str());
    return FlagParse::kError;
  }
  return FlagParse::kConsumed;
}

/// Usage fragment for the shared flags (callers append their own).
inline const char* ExperimentFlagsUsage() {
  return
      "  --scheme=bypass|econ-col|econ-cheap|econ-fast   (econ-cheap)\n"
      "  --catalog=tpch|sdss                             (tpch)\n"
      "  --scale-tb=X          TPC-H backend size        (2.5)\n"
      "  --queries=N                                     (50000)\n"
      "  --interarrival=SECS                             (10)\n"
      "  --arrival=fixed|poisson                         (fixed)\n"
      "  --skew=X              template popularity skew  (1.0)\n"
      "  --repeat=P            burst probability         (0.3)\n"
      "  --seed=N                                        (17)\n"
      "  --regret-a=X          a of Eq. 3                (0.02)\n"
      "  --horizon=N           n of Eq. 7                (50000)\n"
      "  --credit=DOLLARS      seed credit               (200)\n"
      "  --build-latency       model structure build latency\n"
      "  --no-plan-cache       disable the plan-skeleton cache (A/B perf)\n"
      "  --tenants=N           concurrent query streams sharing the cache\n"
      "                        (1; >1 merges streams event-driven)\n"
      "  --tenant-skew=X       Zipf skew of per-tenant traffic shares (0)\n"
      "  --fair-eviction       weigh eviction by tenant regret attribution\n"
      "  --admission           throttle tenants with unmonetizable regret\n"
      "  --admission-ratio=X   unmonetized-regret/revenue throttle point (2)\n"
      "  --tenant-budget=T:P[:M]  scale tenant T's budget price multiplier\n"
      "                        by P (and t_max by M); repeatable\n"
      "  --nodes=N             cluster cache nodes (1 = classic single node)\n"
      "  --elastic=on|off      economic node scale-out/in (off)\n"
      "  --node-rent-multiplier=X  rented-node rent vs reservation rate (1)\n"
      "  --max-nodes=N         elasticity ceiling (4)\n";
}

/// Cross-flag validation of the shared surface, as Status so every
/// rejection carries an actionable message.
inline Status ValidateExperimentFlags(const ExperimentFlags& flags) {
  if (flags.tenants == 0) {
    return Status::InvalidArgument("--tenants must be >= 1");
  }
  if (flags.admission_ratio <= 0) {
    return Status::InvalidArgument("--admission-ratio must be > 0");
  }
  for (const TenantBudgetShape& shape : flags.tenant_budgets) {
    if (shape.tenant >= flags.tenants) {
      return Status::InvalidArgument(
          "--tenant-budget tenant " + std::to_string(shape.tenant) +
          " out of range (tenants=" + std::to_string(flags.tenants) + ")");
    }
    // The negated comparison rejects NaN too (NaN > 0 is false).
    if (!(shape.price_scale > 0) || !std::isfinite(shape.price_scale) ||
        !(shape.tmax_scale > 0) || !std::isfinite(shape.tmax_scale)) {
      return Status::InvalidArgument(
          "--tenant-budget scales must be finite and > 0");
    }
  }
  if (flags.nodes == 0) {
    return Status::InvalidArgument("--nodes must be >= 1");
  }
  if (flags.node_rent_multiplier <= 0) {
    return Status::InvalidArgument("--node-rent-multiplier must be > 0");
  }
  return Status::OK();
}

/// Builds the catalog + template set the flags name.
inline Status MakeExperimentCatalog(const ExperimentFlags& flags,
                                    Catalog* catalog,
                                    std::vector<QueryTemplate>* templates) {
  if (flags.catalog == "tpch") {
    *catalog = MakeTpchCatalog(TpchScaleForBytes(static_cast<uint64_t>(
        flags.scale_tb * static_cast<double>(kTB))));
    *templates = MakeTpchTemplates();
    return Status::OK();
  }
  if (flags.catalog == "sdss") {
    *catalog = MakeSdssCatalog();
    *templates = MakeSdssTemplates();
    return Status::OK();
  }
  return Status::InvalidArgument("unknown catalog '" + flags.catalog + "'");
}

/// Builds the one ExperimentConfig every binary shares: workload,
/// tenancy, cluster, scheme kind, and the econ-tuning hook. Checkpoint
/// fields are left at their defaults — they are excluded from the config
/// hash, and each binary wires its own persistence.
inline Result<ExperimentConfig> MakeExperimentFlagsConfig(
    const ExperimentFlags& flags) {
  ExperimentConfig config;
  config.workload.interarrival_seconds = flags.interarrival;
  config.workload.popularity_skew = flags.skew;
  config.workload.repeat_probability = flags.repeat;
  config.workload.seed = flags.seed;
  config.workload.arrival = flags.arrival == "poisson"
                                ? WorkloadOptions::Arrival::kPoisson
                                : WorkloadOptions::Arrival::kFixed;
  config.sim.num_queries = flags.queries;
  config.tenancy.tenants = flags.tenants;
  config.tenancy.traffic_skew = flags.tenant_skew;
  config.tenancy.fair_eviction = flags.fair_eviction;
  config.tenancy.admission = flags.admission;
  if ((flags.fair_eviction || flags.admission) && flags.tenants < 2) {
    std::fprintf(stderr,
                 "note: --fair-eviction/--admission read tenant regret "
                 "attribution; with --tenants=1 they have no effect\n");
  }
  if (!flags.tenant_budgets.empty() && flags.tenants < 2) {
    std::fprintf(stderr,
                 "note: --tenant-budget applies on the multi-tenant path; "
                 "with --tenants=1 it has no effect\n");
  }
  config.tenancy.tenant_budgets = flags.tenant_budgets;
  config.cluster.nodes = flags.nodes;
  config.cluster.elastic = flags.elastic;
  config.cluster.node_rent_multiplier = flags.node_rent_multiplier;
  config.cluster.elasticity.max_nodes =
      std::max(flags.max_nodes, flags.nodes);
  // One amortization horizon prices structure builds and node rent alike.
  config.cluster.elasticity.amortization_horizon = flags.horizon;

  if (flags.scheme == "bypass") {
    config.scheme = SchemeKind::kBypassYield;
  } else if (flags.scheme == "econ-col") {
    config.scheme = SchemeKind::kEconCol;
  } else if (flags.scheme == "econ-cheap") {
    config.scheme = SchemeKind::kEconCheap;
  } else if (flags.scheme == "econ-fast") {
    config.scheme = SchemeKind::kEconFast;
  } else {
    return Status::InvalidArgument("unknown scheme '" + flags.scheme + "'");
  }

  // Hooks are not hashed, so by-value captures keep the config
  // self-contained while every binary applies the identical tuning.
  const double regret_a = flags.regret_a;
  const int64_t horizon = flags.horizon;
  const double initial_credit = flags.initial_credit;
  const bool build_latency = flags.build_latency;
  const double admission_ratio = flags.admission_ratio;
  const bool plan_cache = flags.plan_cache;
  config.customize_econ = [regret_a, horizon, initial_credit, build_latency,
                           admission_ratio,
                           plan_cache](EconScheme::Config& econ) {
    econ.economy.regret_fraction_a = regret_a;
    econ.economy.amortization_horizon = horizon;
    econ.economy.initial_credit = Money::FromDollars(initial_credit);
    econ.economy.model_build_latency = build_latency;
    econ.economy.admission.throttle_ratio = admission_ratio;
    econ.economy.admission.readmit_ratio = admission_ratio / 2;
    econ.enumerator.enable_plan_cache = plan_cache;
  };
  return config;
}

}  // namespace tools
}  // namespace cloudcache
