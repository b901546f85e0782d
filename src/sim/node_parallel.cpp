#include "src/sim/node_parallel.h"

#include <algorithm>
#include <future>
#include <string>
#include <utility>

#include "src/util/logging.h"

namespace cloudcache {

ParallelNodeSimulator::ParallelNodeSimulator(const Catalog* catalog,
                                             ClusterScheme* cluster,
                                             WorkloadGenerator* workload,
                                             SimulatorOptions options)
    : cluster_(cluster),
      workload_(workload),
      options_(std::move(options)),
      pool_(std::max<uint32_t>(1, options_.parallel_threads)),
      metered_model_(catalog, &options_.metered_prices) {
  CLOUDCACHE_CHECK(cluster_ != nullptr);
  CLOUDCACHE_CHECK(workload_ != nullptr);
}

void ParallelNodeSimulator::ServeSlice(size_t index,
                                       QueryRecord* const* records,
                                       size_t count) {
  Scheme& node = cluster_->mutable_node(index);
  RentMeter& meter = books_[index].meter;
  for (size_t k = 0; k < count; ++k) {
    QueryRecord& rec = *records[k];
    const SimTime now = rec.query.arrival_time;
    rec.rent = meter.Accrue(options_, index > 0 ? 1 : 0, now, &node);
    rec.served = cluster_->ServeOnNode(index, rec.query, now);
    // The charge goes straight to the serving node (bypassing the
    // cluster's serial last-served billing hook).
    rec.bill = MeterServedQuery(metered_model_, options_.metered_prices,
                                rec.query, rec.served);
    if (!rec.bill.charged.IsZero()) {
      node.ChargeExpenditure(rec.bill.charged, now);
    }
    rec.credit_after = node.credit();
  }
}

void ParallelNodeSimulator::MergeRecord(const QueryRecord& rec) {
  // Same per-query sequence as Simulator::Step: rent first, then the
  // outcome with its execution/build bill, then the timelines.
  rec.rent.AddTo(&metrics_);
  AccountOutcome(rec.served, rec.bill, &metrics_);
  books_[rec.node].credit = rec.credit_after;

  const auto fleet_credit = [this] {
    Money credit;
    for (const NodeBooks& books : books_) credit += books.credit;
    return credit;
  };
  SampleTimelines(rec.index, options_.num_queries, rec.query.arrival_time,
                  &metrics_, fleet_credit);
}

void ParallelNodeSimulator::SyncRentTo(SimTime close) {
  for (size_t n = 0; n < books_.size(); ++n) {
    Scheme& node = cluster_->mutable_node(n);
    const RentAccrual rent =
        books_[n].meter.Accrue(options_, n > 0 ? 1 : 0, close, &node);
    rent.AddTo(&metrics_);
    books_[n].credit = node.credit();
  }
}

void ParallelNodeSimulator::ApplyFleetChange(
    const ClusterScheme::WindowEnd& end, SimTime close) {
  switch (end.decision) {
    case ElasticDecision::kHold:
      break;
    case ElasticDecision::kRent: {
      // A fresh node accrues rent from the rental instant.
      NodeBooks books;
      books.meter.metered_until = close;
      books.credit = cluster_->node(cluster_->num_nodes() - 1).credit();
      books_.push_back(books);
      break;
    }
    case ElasticDecision::kRelease: {
      // The heir absorbed the victim's remaining credit inside the
      // cluster; its sub-micro-dollar rent residue follows the same
      // books so scale-in never forgives metered rent.
      const double residue =
          books_[end.released_index].meter.pending_rent_dollars;
      books_.erase(books_.begin() +
                   static_cast<std::ptrdiff_t>(end.released_index));
      books_[end.heir_index].meter.pending_rent_dollars += residue;
      books_[end.heir_index].credit =
          cluster_->node(end.heir_index).credit();
      break;
    }
  }
}

SimMetrics ParallelNodeSimulator::Run() {
  Result<SimMetrics> result = RunChecked();
  CLOUDCACHE_CHECK(result.ok());
  return std::move(result).value();
}

Status ParallelNodeSimulator::WriteSnapshot() const {
  return WriteCheckpointFrame(
      options_.checkpoint, kDriverModeWindowed, processed_,
      options_.num_queries, *cluster_, {workload_}, metrics_,
      [this](persist::Encoder* driver) {
        driver->PutDouble(last_close_);
        driver->PutU64(books_.size());
        for (const NodeBooks& books : books_) {
          driver->PutDouble(books.meter.pending_rent_dollars);
          driver->PutDouble(books.meter.metered_until);
          driver->PutMoney(books.credit);
        }
      });
}

Status ParallelNodeSimulator::RestoreFrom(
    const persist::SnapshotReader& reader) {
  // The fleet comes back with the frame's scheme section; the rent books
  // are index-aligned with it.
  Result<uint64_t> processed = RestoreCheckpointFrame(
      reader, options_, kDriverModeWindowed, cluster_, {workload_},
      &metrics_);
  CLOUDCACHE_RETURN_IF_ERROR(processed.status());

  Result<persist::Decoder> driver = reader.Section("driver");
  CLOUDCACHE_RETURN_IF_ERROR(driver.status());
  CLOUDCACHE_RETURN_IF_ERROR(driver->ReadDouble(&last_close_));
  uint64_t book_count = 0;
  CLOUDCACHE_RETURN_IF_ERROR(driver->ReadLength(&book_count));
  if (book_count != cluster_->num_nodes()) {
    return Status::InvalidArgument(
        "snapshot rent books cover " + std::to_string(book_count) +
        " nodes but the restored fleet has " +
        std::to_string(cluster_->num_nodes()));
  }
  books_.assign(book_count, NodeBooks{});
  for (NodeBooks& books : books_) {
    CLOUDCACHE_RETURN_IF_ERROR(
        driver->ReadDouble(&books.meter.pending_rent_dollars));
    CLOUDCACHE_RETURN_IF_ERROR(
        driver->ReadDouble(&books.meter.metered_until));
    CLOUDCACHE_RETURN_IF_ERROR(driver->ReadMoney(&books.credit));
  }
  CLOUDCACHE_RETURN_IF_ERROR(driver->ExpectEnd());

  processed_ = processed.value();
  restored_ = true;
  return Status::OK();
}

Result<SimMetrics> ParallelNodeSimulator::RunChecked() {
  if (!restored_) {
    metrics_.scheme_name = cluster_->name();
    const SimTime start = workload_->PeekNextArrival();
    last_close_ = start;
    books_.assign(cluster_->num_nodes(), NodeBooks{});
    for (size_t n = 0; n < cluster_->num_nodes(); ++n) {
      books_[n].meter.metered_until = start;
      books_[n].credit = cluster_->node(n).credit();
    }
  }

  // The window IS the elasticity check interval, so full windows land the
  // controller exactly where the serial path's modulo check fires.
  const uint64_t window_size =
      cluster_->options().elasticity.check_interval_queries;

  std::vector<QueryRecord> window;
  std::vector<std::vector<QueryRecord*>> slices;
  std::vector<std::future<void>> futures;
  while (processed_ < options_.num_queries) {
    const uint64_t count =
        std::min<uint64_t>(window_size, options_.num_queries - processed_);
    window.clear();
    window.reserve(count);
    for (uint64_t k = 0; k < count; ++k) {
      QueryRecord rec;
      rec.query = workload_->Next();
      rec.index = processed_ + k;
      window.push_back(std::move(rec));
    }

    // Route the whole window against the window-start residencies (no
    // node has served yet, so every route sees the same frozen fleet).
    slices.assign(cluster_->num_nodes(), {});
    for (QueryRecord& rec : window) {
      rec.node = cluster_->RouteQuery(rec.query);
      slices[rec.node].push_back(&rec);
    }

    // One task per non-empty slice; tasks share no mutable state.
    futures.clear();
    for (size_t n = 0; n < slices.size(); ++n) {
      if (slices[n].empty()) continue;
      futures.push_back(pool_.Submit([this, n, &slices] {
        ServeSlice(n, slices[n].data(), slices[n].size());
      }));
    }
    for (std::future<void>& future : futures) future.get();

    // Merge in global arrival order, then close the window serially.
    for (const QueryRecord& rec : window) MergeRecord(rec);
    const SimTime close = window.back().query.arrival_time;
    last_close_ = close;
    SyncRentTo(close);
    const ClusterScheme::WindowEnd end = cluster_->EndWindow(
        close, window.front().query.arrival_time, close, count);
    ApplyFleetChange(end, close);
    const uint64_t previous = processed_;
    processed_ += count;
    CLOUDCACHE_RETURN_IF_ERROR(CheckpointBoundary(
        options_.checkpoint, options_.num_queries, previous, processed_,
        [this] { return WriteSnapshot(); }));
  }

  // Every meter now stands at last_close_, where the books close.
  for (size_t n = 0; n < books_.size(); ++n) {
    books_[n].meter.Flush(&cluster_->mutable_node(n));
  }
  metrics_.final_credit = cluster_->credit();
  metrics_.final_resident_bytes = cluster_->TotalResidentBytes();
  metrics_.final_extra_nodes = cluster_->TotalExtraCpuNodes();
  cluster_->DescribeCluster(&metrics_.cluster);
  return std::move(metrics_);
}

}  // namespace cloudcache
