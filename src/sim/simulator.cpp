#include "src/sim/simulator.h"

#include <string>
#include <utility>

#include "src/util/logging.h"

namespace cloudcache {

Simulator::Simulator(const Catalog* catalog, Scheme* scheme,
                     WorkloadGenerator* workload, SimulatorOptions options)
    : Simulator(catalog, scheme, std::vector<WorkloadGenerator*>{workload},
                std::move(options), /*tenant_slices=*/false) {}

Simulator::Simulator(const Catalog* catalog, Scheme* scheme,
                     std::vector<WorkloadGenerator*> workloads,
                     SimulatorOptions options)
    : Simulator(catalog, scheme, std::move(workloads), std::move(options),
                /*tenant_slices=*/true) {}

Simulator::Simulator(const Catalog* catalog, Scheme* scheme,
                     std::vector<WorkloadGenerator*> streams,
                     SimulatorOptions options, bool tenant_slices)
    : scheme_(scheme),
      streams_(std::move(streams)),
      tenant_slices_(tenant_slices),
      options_(std::move(options)),
      metered_model_(catalog, &options_.metered_prices) {
  CLOUDCACHE_CHECK(!streams_.empty());
  for (WorkloadGenerator* generator : streams_) {
    CLOUDCACHE_CHECK(generator != nullptr);
  }
}

void Simulator::ExternalBegin() {
  // After RestoreFrom the accumulators, the cursor, and the rent meter are
  // the interrupted run's; the generators carry their own position.
  if (restored_) return;
  metrics_.scheme_name = scheme_->name();
  if (tenant_slices_) {
    metrics_.tenants.resize(streams_.size());
    for (size_t t = 0; t < metrics_.tenants.size(); ++t) {
      metrics_.tenants[t].tenant_id = static_cast<uint32_t>(t);
    }
  }
  meter_.metered_until = streams_[MergeHead(streams_)]->PeekNextArrival();
}

ServedQuery Simulator::Step(const Query& query, size_t stream) {
  TenantMetrics* tenant = nullptr;
  if (tenant_slices_) {
    CLOUDCACHE_CHECK_LT(stream, metrics_.tenants.size());
    tenant = &metrics_.tenants[stream];
  }
  const SimTime now = query.arrival_time;

  const RentAccrual rent =
      meter_.Accrue(options_, scheme_->RentedNodes(), now, scheme_);
  rent.AddTo(&metrics_);
  ServedQuery served = scheme_->OnQuery(query, now);
  const MeteredBill bill =
      MeterServedQuery(metered_model_, options_.metered_prices, query, served);
  if (!bill.charged.IsZero()) scheme_->ChargeExpenditure(bill.charged, now);

  AccountOutcome(served, bill, &metrics_);
  if (tenant != nullptr) AccountOutcome(served, bill, tenant);

  SampleTimelines(processed_++, options_.num_queries, now, &metrics_,
                  [this] { return scheme_->credit(); });
  return served;
}

void Simulator::Finish() {
  meter_.Flush(scheme_);
  metrics_.final_credit = scheme_->credit();
  metrics_.final_resident_bytes = scheme_->TotalResidentBytes();
  metrics_.final_extra_nodes = scheme_->TotalExtraCpuNodes();
  if (tenant_slices_) {
    for (size_t t = 0; t < metrics_.tenants.size(); ++t) {
      metrics_.tenants[t].final_regret =
          scheme_->TenantRegret(static_cast<uint32_t>(t));
    }
    metrics_.fairness = ComputeFairness(metrics_.tenants);
  }
  // Cluster shape, if the scheme operates one (no-op default leaves the
  // single-node runs without a cluster footprint). The meter already
  // accumulated cluster.node_rent_dollars.
  scheme_->DescribeCluster(&metrics_.cluster);
}

SimMetrics Simulator::Run() {
  Result<SimMetrics> result = RunChecked();
  CLOUDCACHE_CHECK(result.ok());
  return std::move(result).value();
}

Result<SimMetrics> Simulator::RunChecked() {
  ExternalBegin();
  while (processed_ < options_.num_queries) {
    const size_t head = MergeHead(streams_);
    Step(streams_[head]->Next(), head);
    CLOUDCACHE_RETURN_IF_ERROR(
        CheckpointBoundary(options_.checkpoint, options_.num_queries,
                           processed_, [this] { return WriteSnapshot(); }));
  }
  Finish();
  return std::move(metrics_);
}

Status Simulator::ExternalCheckpoint() const {
  if (options_.checkpoint.path.empty()) {
    return Status::InvalidArgument(
        "external checkpoint requires a snapshot path");
  }
  if (processed_ >= options_.num_queries) {
    return Status::FailedPrecondition(
        "the externally driven run is complete; a completed run is never "
        "checkpointed (nothing left to resume)");
  }
  return WriteSnapshot();
}

Status Simulator::WriteSnapshot() const {
  const auto write_driver = [this](persist::Encoder* driver) {
    RentMeter::Fields(*driver, meter_);
  };
  return WriteCheckpointFrame(
      options_.checkpoint, mode(), processed_, options_.num_queries, *scheme_,
      streams_, metrics_, write_driver);
}

Status Simulator::RestoreFrom(const persist::SnapshotReader& reader) {
  Result<uint64_t> processed = RestoreCheckpointFrame(
      reader, options_, mode(), scheme_, streams_, &metrics_);
  CLOUDCACHE_RETURN_IF_ERROR(processed.status());
  if (tenant_slices_ && metrics_.tenants.size() != streams_.size()) {
    return Status::FailedPrecondition(
        "snapshot metrics carry " + std::to_string(metrics_.tenants.size()) +
        " tenant slices but this run has " + std::to_string(streams_.size()));
  }

  Result<persist::Decoder> driver = reader.Section("driver");
  CLOUDCACHE_RETURN_IF_ERROR(driver.status());
  RentMeter::Fields(driver.value(), meter_);
  CLOUDCACHE_RETURN_IF_ERROR(driver->ExpectEnd());

  processed_ = processed.value();
  restored_ = true;
  return Status::OK();
}

}  // namespace cloudcache
