#include "src/sim/driver_core.h"

#include <cmath>

#include "src/persist/metrics_io.h"

namespace cloudcache {

RentAccrual RentMeter::Accrue(const SimulatorOptions& options,
                              uint32_t rented_nodes, SimTime now,
                              Scheme* payer) {
  RentAccrual rent;
  const double dt = now - metered_until;
  if (dt <= 0) return rent;
  metered_until = now;
  const PriceList& p = options.metered_prices;

  // The quantities come through the payer's cluster-aware totals, so a
  // multi-node scheme pays for every node it operates; a single node
  // reports its one cache.
  rent.disk_dollars = static_cast<double>(payer->TotalResidentBytes()) * dt *
                      p.disk_byte_second_dollars;
  rent.reservation_dollars =
      static_cast<double>(payer->TotalExtraCpuNodes()) * dt *
      p.cpu_second_dollars * p.cpu_reserve_fraction;
  // Rented cluster nodes (beyond the always-on coordinator) bill at the
  // reservation rate scaled by the cluster's rent multiplier.
  if (rented_nodes > 0) {
    rent.node_dollars = static_cast<double>(rented_nodes) * dt *
                        p.cpu_second_dollars * p.cpu_reserve_fraction *
                        options.node_rent_multiplier;
    rent.reservation_dollars += rent.node_dollars;
  }

  // The account charge accumulates fractional micro-dollars and releases
  // them once they round to something chargeable.
  pending_rent_dollars += rent.disk_dollars + rent.reservation_dollars;
  const Money charge = Money::FromDollars(pending_rent_dollars);
  if (!charge.IsZero()) {
    pending_rent_dollars -= charge.ToDollars();
    payer->ChargeExpenditure(charge, now);
  }
  return rent;
}

void RentMeter::Flush(Scheme* payer) {
  if (pending_rent_dollars <= 0) return;
  // Round up: the cloud never forgives a fraction it already metered. The
  // overcharge is bounded by one micro-dollar per meter, in the account's
  // favor.
  const Money charge = Money::FromMicros(
      static_cast<int64_t>(std::ceil(pending_rent_dollars * 1e6)));
  pending_rent_dollars = 0;
  if (!charge.IsZero()) payer->ChargeExpenditure(charge, metered_until);
}

MeteredBill MeterServedQuery(const CostModel& metered, const PriceList& p,
                             const Query& query, const ServedQuery& served) {
  MeteredBill bill;
  if (served.served) {
    const ExecutionEstimate m = metered.EstimateExecution(query, served.spec);
    bill.breakdown.cpu_dollars += p.CpuCost(m.cpu_seconds).ToDollars();
    bill.breakdown.io_dollars += p.IoCost(m.io_ops).ToDollars();
    bill.breakdown.network_dollars += p.NetworkCost(m.wan_bytes).ToDollars();
    bill.charged += p.CpuCost(m.cpu_seconds) + p.IoCost(m.io_ops) +
                    p.NetworkCost(m.wan_bytes);
    bill.wan_bytes += m.wan_bytes;
  }
  const BuildUsage& usage = served.build_usage;
  if (usage.cpu_seconds > 0 || usage.wan_bytes > 0 || usage.io_ops > 0) {
    bill.breakdown.cpu_dollars += p.CpuCost(usage.cpu_seconds).ToDollars();
    bill.breakdown.network_dollars +=
        p.NetworkCost(usage.wan_bytes).ToDollars();
    bill.breakdown.io_dollars += p.IoCost(usage.io_ops).ToDollars();
    bill.wan_bytes += usage.wan_bytes;
  }
  return bill;
}

void AccountOutcome(const ServedQuery& served, const MeteredBill& bill,
                    QueryCounters* c) {
  ++c->queries;
  c->wan_bytes += bill.wan_bytes;
  c->operating_cost += bill.breakdown;
  if (served.served) {
    ++c->served;
    c->response_hist.Add(served.execution.time_seconds);
    if (served.spec.access == PlanSpec::Access::kBackend) {
      ++c->served_in_backend;
    } else {
      ++c->served_in_cache;
    }
    c->revenue += served.payment;
    c->profit += served.profit;
  }
  c->investments += served.investments;
  c->evictions += served.evictions;
  // Counts queries *served* while the tenant was throttled (the metric's
  // documented meaning); a declined query under a decline-configured
  // economy is already counted by the budget-case mix.
  if (served.served && served.throttled) ++c->throttled;
  if (served.has_budget_case) {
    switch (served.budget_case) {
      case BudgetCase::kCaseA:
        ++c->case_a;
        break;
      case BudgetCase::kCaseB:
        ++c->case_b;
        break;
      case BudgetCase::kCaseC:
        ++c->case_c;
        break;
    }
  }
}

namespace {

/// The "meta" section: driver mode, progress, run length, scheme name.
struct FrameMeta {
  uint8_t mode = 0;
  uint64_t processed = 0;
  uint64_t num_queries = 0;
  std::string scheme_name;

  template <typename Codec, typename Self>
  static void Fields(Codec& c, Self& self) {
    c.U8(self.mode);
    c.U64(self.processed);
    c.U64(self.num_queries);
    c.Str(self.scheme_name);
  }
};

}  // namespace

Status WriteCheckpointFrame(
    const CheckpointOptions& cp, uint8_t mode, uint64_t processed,
    uint64_t num_queries, const Scheme& scheme,
    const std::vector<WorkloadGenerator*>& streams, const SimMetrics& metrics,
    const std::function<void(persist::Encoder*)>& write_driver) {
  persist::SnapshotWriter writer(cp.config_hash);
  const FrameMeta meta{mode, processed, num_queries, scheme.name()};
  FrameMeta::Fields(*writer.AddSection("meta"), meta);
  write_driver(writer.AddSection("driver"));
  persist::Encoder* workload = writer.AddSection("workload");
  workload->Length(streams.size());
  for (const WorkloadGenerator* stream : streams) workload->Nested(*stream);
  scheme.SaveState(writer.AddSection("scheme"));
  persist::SimMetricsFields(*writer.AddSection("metrics"), metrics);
  return writer.WriteToFile(cp.path);
}

Result<uint64_t> RestoreCheckpointFrame(
    const persist::SnapshotReader& reader, const SimulatorOptions& options,
    uint8_t mode, Scheme* scheme,
    const std::vector<WorkloadGenerator*>& streams, SimMetrics* metrics) {
  CLOUDCACHE_RETURN_IF_ERROR(
      reader.ExpectConfigHash(options.checkpoint.config_hash));
  if (!scheme->SupportsCheckpoint()) {
    return Status::FailedPrecondition(
        "scheme does not support checkpoint/restore");
  }

  Result<persist::Decoder> meta = reader.Section("meta");
  CLOUDCACHE_RETURN_IF_ERROR(meta.status());
  FrameMeta saved;
  FrameMeta::Fields(meta.value(), saved);
  CLOUDCACHE_RETURN_IF_ERROR(meta->ExpectEnd());
  if (saved.mode != mode) {
    return Status::FailedPrecondition(
        "snapshot was written by driver mode " + std::to_string(saved.mode) +
        " but this run uses mode " + std::to_string(mode) +
        (saved.mode > kDriverModeMultiTenant
             ? " (a driver this build no longer has; start the run fresh)"
             : " (check --tenants against the checkpointed run)"));
  }
  if (saved.num_queries != options.num_queries) {
    return Status::FailedPrecondition(
        "snapshot run length " + std::to_string(saved.num_queries) +
        " does not match this run's " + std::to_string(options.num_queries));
  }
  if (saved.processed >= options.num_queries) {
    return Status::FailedPrecondition(
        "snapshot claims more processed queries than the run length");
  }
  if (saved.scheme_name != scheme->name()) {
    return Status::FailedPrecondition(
        "snapshot was taken under scheme '" + saved.scheme_name +
        "' but this run drives '" + scheme->name() + "'");
  }

  Result<persist::Decoder> workload = reader.Section("workload");
  CLOUDCACHE_RETURN_IF_ERROR(workload.status());
  uint64_t stream_count = 0;
  workload->Length(stream_count);
  CLOUDCACHE_RETURN_IF_ERROR(workload->status());
  if (stream_count != streams.size()) {
    return Status::FailedPrecondition(
        "snapshot has " + std::to_string(stream_count) +
        " workload streams but this run has " +
        std::to_string(streams.size()));
  }
  for (WorkloadGenerator* stream : streams) workload->Nested(*stream);
  CLOUDCACHE_RETURN_IF_ERROR(workload->ExpectEnd());

  Result<persist::Decoder> saved_scheme = reader.Section("scheme");
  CLOUDCACHE_RETURN_IF_ERROR(saved_scheme.status());
  CLOUDCACHE_RETURN_IF_ERROR(scheme->RestoreState(&saved_scheme.value()));
  CLOUDCACHE_RETURN_IF_ERROR(saved_scheme->ExpectEnd());

  Result<persist::Decoder> saved_metrics = reader.Section("metrics");
  CLOUDCACHE_RETURN_IF_ERROR(saved_metrics.status());
  *metrics = SimMetrics();
  persist::SimMetricsFields(saved_metrics.value(), *metrics);
  CLOUDCACHE_RETURN_IF_ERROR(saved_metrics->ExpectEnd());
  return saved.processed;
}

}  // namespace cloudcache
