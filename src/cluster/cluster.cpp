#include "src/cluster/cluster.h"

#include <utility>

#include "src/obs/trace.h"
#include "src/util/logging.h"

namespace cloudcache {

ClusterScheme::ClusterScheme(const Catalog* catalog,
                             const PriceList* decision_prices,
                             ClusterOptions options, NodeFactory factory)
    : catalog_(catalog),
      decision_prices_(decision_prices),
      options_(options),
      factory_(std::move(factory)),
      router_(catalog),
      controller_(options_.elasticity) {
  CLOUDCACHE_CHECK_GE(options_.nodes, 1u);
  CLOUDCACHE_CHECK_GE(options_.elasticity.min_nodes, 1u);
  CLOUDCACHE_CHECK_LE(options_.elasticity.min_nodes,
                      options_.elasticity.max_nodes);
  // The window cadence divides the query counter; zero would be a SIGFPE
  // in OnQuery instead of a diagnosable failure here.
  CLOUDCACHE_CHECK_GT(options_.elasticity.check_interval_queries, 0u);
  nodes_.reserve(options_.nodes);
  for (uint32_t n = 0; n < options_.nodes; ++n) {
    Node node;
    node.ordinal = next_ordinal_++;
    node.scheme = factory_(node.ordinal);
    CLOUDCACHE_CHECK(node.scheme != nullptr);
    nodes_.push_back(std::move(node));
  }
  peak_nodes_ = options_.nodes;
  name_ = nodes_.front().scheme->name();
}

size_t ClusterScheme::RouteQuery(const Query& query) {
  cache_view_.clear();
  for (const Node& node : nodes_) {
    cache_view_.push_back(&node.scheme->cache());
  }
  return router_.Route(query, cache_view_);
}

ServedQuery ClusterScheme::OnQuery(const Query& query, SimTime now) {
  if (!saw_query_) {
    first_arrival_ = query.arrival_time;
    saw_query_ = true;
  }
  last_arrival_ = query.arrival_time;
  trace_query_ = query.id;
  trace_tenant_ = query.tenant_id;

  last_served_ = RouteQuery(query);
  Node& node = nodes_[last_served_];
  const ServedQuery served = node.scheme->OnQuery(query, now);
  ++node.queries;
  ++node.window_queries;
  if (served.served) {
    ++node.served;
    if (served.spec.access != PlanSpec::Access::kBackend) {
      ++node.served_in_cache;
    }
    node.revenue += served.payment;
    node.profit += served.profit;
  }

  ++queries_;
  if (options_.elastic &&
      queries_ % options_.elasticity.check_interval_queries == 0) {
    MaybeScale(now);
  }
  return served;
}

void ClusterScheme::MaybeScale(SimTime now) {
  ElasticityWindow window;
  window.standing_regret = StandingRegret();
  window.routed.reserve(nodes_.size());
  for (Node& node : nodes_) {
    window.routed.push_back(node.window_queries);
    window.window_queries += node.window_queries;
    node.window_queries = 0;
  }

  // Project one node's rent over the amortization horizon: rent/second at
  // decision prices, times the horizon expressed in seconds through the
  // observed mean interarrival of the stream so far.
  const double rent_per_second = decision_prices_->cpu_second_dollars *
                                 decision_prices_->cpu_reserve_fraction *
                                 options_.node_rent_multiplier;
  const double mean_interarrival =
      queries_ > 1 ? (last_arrival_ - first_arrival_) /
                         static_cast<double>(queries_ - 1)
                   : 0.0;
  window.projected_rent_dollars =
      rent_per_second *
      static_cast<double>(options_.elasticity.amortization_horizon) *
      mean_interarrival;

  const ElasticAction action = controller_.Step(window);
  switch (action.decision) {
    case ElasticDecision::kHold:
      break;
    case ElasticDecision::kRent:
      RentNode(now);
      break;
    case ElasticDecision::kRelease:
      ReleaseNode(action.release_index, now);
      break;
  }
}

void ClusterScheme::SetEventTracer(obs::EventTracer* tracer,
                                   uint32_t node_ordinal) {
  (void)node_ordinal;
  tracer_ = tracer;
  for (Node& node : nodes_) {
    node.scheme->SetEventTracer(tracer, node.ordinal);
  }
}

void ClusterScheme::RentNode(SimTime now) {
  Node node;
  node.ordinal = next_ordinal_++;
  node.scheme = factory_(node.ordinal);
  CLOUDCACHE_CHECK(node.scheme != nullptr);
  node.rented_at = now;
  node.scheme->SetEventTracer(tracer_, node.ordinal);
  nodes_.push_back(std::move(node));
  ++scale_out_events_;
  if (nodes_.size() > peak_nodes_) {
    peak_nodes_ = static_cast<uint32_t>(nodes_.size());
  }
  if (tracer_ != nullptr) {
    tracer_
        ->Event("node_rent", trace_query_, now, trace_tenant_,
                next_ordinal_ - 1)
        .U64("fleet_size", nodes_.size());
  }
}

size_t ClusterScheme::WarmestSurvivor(size_t releasing) const {
  size_t warmest = releasing == 0 ? 1 : 0;
  for (size_t n = 0; n < nodes_.size(); ++n) {
    if (n == releasing) continue;
    if (nodes_[n].queries > nodes_[warmest].queries) warmest = n;
  }
  return warmest;
}

void ClusterScheme::ReleaseNode(size_t index, SimTime now) {
  CLOUDCACHE_CHECK_GT(index, 0u);  // The coordinator is never released.
  CLOUDCACHE_CHECK_LT(index, nodes_.size());
  const size_t destination = WarmestSurvivor(index);
  Scheme& victim = *nodes_[index].scheme;
  Scheme& heir = *nodes_[destination].scheme;
  const uint32_t victim_ordinal = nodes_[index].ordinal;
  const uint32_t heir_ordinal = nodes_[destination].ordinal;
  const uint64_t migrations_before = migrations_;
  const uint64_t failures_before = migration_failures_;

  // Migrate survivors: structures a recent plan actually used. Cold
  // inventory — exactly what made the node releasable — is dropped with
  // the node. CPU-node structures are node-local compute and never move.
  // AdoptStructure pays from the heir's account through the engine's
  // normal build path (residency Add bumps the heir's epoch, so its
  // plan-skeleton cache refreshes like for any other build); a refusal
  // (already resident, not enough credit) just means that structure dies
  // with the node.
  if (options_.migration_recency_seconds > 0) {
    const CacheState& cache = victim.cache();
    const StructureRegistry& registry = cache.registry();
    cache.ForEachResident([&](StructureId id) {
      const StructureKey& key = registry.key(id);
      if (key.type == StructureType::kCpuNode) return;
      if (cache.LastUsed(id) + options_.migration_recency_seconds < now) {
        return;
      }
      const bool adopted = heir.AdoptStructure(key, now).ok();
      if (adopted) {
        ++migrations_;
      } else {
        ++migration_failures_;
      }
      if (tracer_ != nullptr) {
        tracer_
            ->Event("migrate", trace_query_, now, trace_tenant_,
                    victim_ordinal)
            .Str("key", key.ToString(*catalog_))
            .U64("to_node", heir_ordinal)
            .U64("adopted", adopted ? 1 : 0);
      }
    });
  }

  // The released node's till returns to the cluster through its heir, so
  // scale-in never destroys credit (a negative balance — a node released
  // while in deficit — is absorbed too).
  const Money remaining = victim.credit();
  if (!remaining.IsZero()) heir.AbsorbCredit(remaining, now);

  if (tracer_ != nullptr) {
    tracer_
        ->Event("node_release", trace_query_, now, trace_tenant_,
                victim_ordinal)
        .U64("heir_node", heir_ordinal)
        .U64("migrations", migrations_ - migrations_before)
        .U64("migration_failures", migration_failures_ - failures_before)
        .F64("credit_absorbed_dollars", remaining.ToDollars());
  }

  nodes_.erase(nodes_.begin() + static_cast<std::ptrdiff_t>(index));
  ++scale_in_events_;
  // Keep last_served_ pointing at the node that served the most recent
  // query (the ChargeExpenditure contract): re-index it past the erased
  // slot, and only when the served node itself died does its billing —
  // like its books — pass to the heir.
  if (last_served_ == index) {
    last_served_ = destination > index ? destination - 1 : destination;
  } else if (last_served_ > index) {
    --last_served_;
  }
}

Money ClusterScheme::credit() const {
  Money total;
  for (const Node& node : nodes_) total += node.scheme->credit();
  return total;
}

Money ClusterScheme::TenantRegret(uint32_t tenant) const {
  Money total;
  for (const Node& node : nodes_) {
    total += node.scheme->TenantRegret(tenant);
  }
  return total;
}

Money ClusterScheme::StandingRegret() const {
  Money total;
  for (const Node& node : nodes_) total += node.scheme->StandingRegret();
  return total;
}

void ClusterScheme::ChargeExpenditure(Money amount, SimTime now) {
  nodes_[last_served_].scheme->ChargeExpenditure(amount, now);
}

uint64_t ClusterScheme::TotalResidentBytes() const {
  uint64_t total = 0;
  for (const Node& node : nodes_) {
    total += node.scheme->TotalResidentBytes();
  }
  return total;
}

uint32_t ClusterScheme::TotalExtraCpuNodes() const {
  uint32_t total = 0;
  for (const Node& node : nodes_) {
    total += node.scheme->TotalExtraCpuNodes();
  }
  return total;
}

void ClusterScheme::DescribeCluster(ClusterMetrics* out) const {
  out->active = true;
  out->final_nodes = static_cast<uint32_t>(nodes_.size());
  out->peak_nodes = peak_nodes_;
  out->scale_out_events = scale_out_events_;
  out->scale_in_events = scale_in_events_;
  out->migrations = migrations_;
  out->migration_failures = migration_failures_;
  // node_rent_dollars is the simulator's (metered while integrating rent).
  out->nodes.clear();
  out->nodes.reserve(nodes_.size());
  for (const Node& node : nodes_) {
    NodeMetrics slice;
    slice.ordinal = node.ordinal;
    slice.queries = node.queries;
    slice.served = node.served;
    slice.served_in_cache = node.served_in_cache;
    slice.revenue = node.revenue;
    slice.profit = node.profit;
    slice.final_credit = node.scheme->credit();
    slice.final_resident_bytes = node.scheme->TotalResidentBytes();
    slice.rented_at_seconds = node.rented_at;
    out->nodes.push_back(slice);
  }
}

template <typename Codec, typename NodeT>
void ClusterScheme::NodeFields(Codec& c, NodeT& node) {
  c.U32(node.ordinal);
  c.F64(node.rented_at);
  c.U64(node.queries);
  c.U64(node.served);
  c.U64(node.served_in_cache);
  c.U64(node.window_queries);
  c.Money(node.revenue);
  c.Money(node.profit);
}

template <typename Codec, typename Self>
void ClusterScheme::FleetFields(Codec& c, Self& self) {
  c.U32(self.next_ordinal_);
  c.U64(self.last_served_);
  c.U64(self.queries_);
  c.F64(self.first_arrival_);
  c.F64(self.last_arrival_);
  c.Bool(self.saw_query_);
  c.U32(self.peak_nodes_);
  c.U64(self.scale_out_events_);
  c.U64(self.scale_in_events_);
  c.U64(self.migrations_);
  c.U64(self.migration_failures_);
  c.Nested(self.controller_);
}

void ClusterScheme::SaveState(persist::Encoder* enc) const {
  enc->Seq(nodes_, [enc](const Node& node) {
    NodeFields(*enc, node);
    enc->Nested(*node.scheme);
  });
  FleetFields(*enc, *this);
}

Status ClusterScheme::RestoreState(persist::Decoder* dec) {
  uint64_t node_count = 0;
  dec->Length(node_count);
  CLOUDCACHE_RETURN_IF_ERROR(dec->status());
  if (node_count == 0) {
    return Status::InvalidArgument("snapshot cluster has zero nodes");
  }
  if (node_count > options_.elasticity.max_nodes && options_.elastic) {
    return Status::InvalidArgument(
        "snapshot cluster has " + std::to_string(node_count) +
        " nodes, above this configuration's max of " +
        std::to_string(options_.elasticity.max_nodes));
  }
  // The saved fleet replaces the constructor-built one wholesale: each
  // node is rebuilt from its ordinal (which determines its seeds and
  // configuration) and then overwritten with its saved state.
  std::vector<Node> restored;
  restored.reserve(node_count);
  for (uint64_t i = 0; i < node_count; ++i) {
    Node node;
    NodeFields(*dec, node);
    CLOUDCACHE_RETURN_IF_ERROR(dec->status());
    if (i == 0 && node.ordinal != 0) {
      return Status::InvalidArgument(
          "snapshot cluster coordinator has ordinal " +
          std::to_string(node.ordinal) + "; expected 0");
    }
    node.scheme = factory_(node.ordinal);
    dec->Nested(*node.scheme);
    CLOUDCACHE_RETURN_IF_ERROR(dec->status());
    restored.push_back(std::move(node));
  }
  nodes_ = std::move(restored);
  // Factory-rebuilt nodes start without the tracer; re-attach it so a
  // restored run traces exactly like an uninterrupted one.
  for (Node& node : nodes_) {
    node.scheme->SetEventTracer(tracer_, node.ordinal);
  }
  FleetFields(*dec, *this);
  CLOUDCACHE_RETURN_IF_ERROR(dec->status());
  for (const Node& node : nodes_) {
    if (node.ordinal >= next_ordinal_) {
      return Status::InvalidArgument(
          "snapshot cluster node ordinal " + std::to_string(node.ordinal) +
          " is not below the next-ordinal counter " +
          std::to_string(next_ordinal_));
    }
  }
  if (last_served_ >= nodes_.size()) {
    return Status::InvalidArgument(
        "snapshot cluster last-served index is out of range");
  }
  return Status::OK();
}

}  // namespace cloudcache
