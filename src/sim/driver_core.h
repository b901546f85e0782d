#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/baseline/scheme.h"
#include "src/cost/cost_model.h"
#include "src/cost/price_list.h"
#include "src/persist/snapshot.h"
#include "src/sim/metrics.h"
#include "src/util/money.h"
#include "src/util/status.h"
#include "src/workload/generator.h"

// The pieces every query loop shares — the Simulator (one stream or N
// merged tenant streams, internally or externally driven) and
// cloudcached's connection merge: one merge rule, one rent meter, one
// metered bill, one outcome accounting, and one checkpoint frame.

namespace cloudcache {

/// Checkpoint/restore controls (docs/persistence.md). All off by default,
/// leaving every existing run untouched.
struct CheckpointOptions {
  /// Write a snapshot after every N processed queries (0 disables), at
  /// exact multiples of N. The final boundary of a completed run is never
  /// checkpointed — a finished run's deliverable is its metrics, not a
  /// resume point.
  uint64_t every = 0;
  /// Snapshot file. Written atomically (temp file + rename); required
  /// whenever `every` > 0 or a restore is requested.
  std::string path;
  /// Crash injection: abort the run — no finalization, no snapshot write —
  /// at the first checkpoint boundary at or past this many processed
  /// queries (0 disables). The run returns a kResourceExhausted Status;
  /// recovery restores from the last snapshot `every` produced.
  uint64_t crash_after = 0;
  /// Hash of the deterministic experiment configuration, stamped into
  /// every snapshot header and verified on restore.
  uint64_t config_hash = 0;
  /// How to treat `path` at startup. kAuto degrades gracefully — a
  /// missing, corrupt, or mismatched snapshot falls back to a fresh run;
  /// kHard fails the run loudly instead.
  enum class Restore { kNone, kAuto, kHard };
  Restore restore = Restore::kNone;
};

/// Simulation controls.
struct SimulatorOptions {
  /// Queries to drive through the scheme (the paper simulates ~1e6; the
  /// default keeps full four-scheme sweeps interactive).
  uint64_t num_queries = 50'000;
  /// Real infrastructure rates used for metering operating cost,
  /// regardless of what the scheme believes internally.
  PriceList metered_prices = PriceList::AmazonEc2_2009();
  /// Rent of one rented cluster node (Scheme::RentedNodes) as a multiple
  /// of the node-reservation rate. Irrelevant — and never consulted — for
  /// single-node schemes, which rent no cluster nodes.
  double node_rent_multiplier = 1.0;
  /// Checkpoint/restore and crash injection (off by default).
  CheckpointOptions checkpoint;
};

/// Sentinel MergeHead result: no stream is left in the merge.
inline constexpr size_t kNoStream = static_cast<size_t>(-1);

/// The one merge rule: the index of the stream whose next arrival
/// (`PeekNextArrival()`) is earliest, ties going to the lowest index. A
/// null entry has left the merge (cloudcached retires closed connections
/// that way); kNoStream when no stream remains. Each stream offers only its
/// next arrival, so serving the head and drawing from it, repeatedly,
/// yields the union of the streams in (arrival time, stream index) order —
/// a pure function of the streams, which is what keeps the simulator, the
/// server, and their snapshots bit-identical.
template <typename Stream>
size_t MergeHead(const std::vector<Stream*>& streams) {
  size_t head = kNoStream;
  SimTime head_time = 0;
  for (size_t i = 0; i < streams.size(); ++i) {
    if (streams[i] == nullptr) continue;
    const SimTime at = streams[i]->PeekNextArrival();
    if (head == kNoStream || at < head_time) {
      head = i;
      head_time = at;
    }
  }
  return head;
}

/// What one rent accrual metered, split the way the operating-cost
/// breakdown books it.
struct RentAccrual {
  double disk_dollars = 0;
  /// Extra-CPU-node reservations, rented-node surcharge included.
  double reservation_dollars = 0;
  /// The rented cluster nodes' surcharge (part of reservation_dollars).
  double node_dollars = 0;

  /// Books the accrual into the run-wide breakdown. Rent is
  /// shared-infrastructure spending, so it never lands on a tenant slice.
  void AddTo(SimMetrics* metrics) const {
    metrics->cluster.node_rent_dollars += node_dollars;
    metrics->operating_cost.disk_dollars += disk_dollars;
    metrics->operating_cost.cpu_dollars += reservation_dollars;
  }
};

/// The one rent meter: integrates a payer's disk byte-seconds and node
/// reservations (plus the surcharge of rented cluster nodes) between
/// metering instants at the metered prices, and charges the payer's
/// account. The Simulator keeps one for the whole scheme.
struct RentMeter {
  /// Rent is integrated up to here.
  SimTime metered_until = 0;
  /// Rent not yet charged to the account because it rounds below a
  /// micro-dollar. Per-interval amounts on small configurations can be far
  /// below one, and rounding each interval through Money would silently
  /// zero them out.
  double pending_rent_dollars = 0;

  /// Meters [metered_until, now] for `payer` (a no-op when `now` is not
  /// later), advances the meter, and charges every whole micro-dollar
  /// pending to the payer's account. Returns what was metered.
  RentAccrual Accrue(const SimulatorOptions& options, uint32_t rented_nodes,
                     SimTime now, Scheme* payer);

  /// Closes the books at end of run: charges the sub-micro-dollar residue,
  /// rounded UP to a whole micro-dollar, at metered_until. The metered
  /// breakdown already counted the exact fraction; without this flush
  /// final_credit would disagree with the operating-cost totals by the
  /// unbilled remainder.
  void Flush(Scheme* payer);

  /// The snapshot field list: metered_until, then pending_rent_dollars.
  template <typename Codec, typename Self>
  static void Fields(Codec& c, Self& self) {
    c.F64(self.metered_until);
    c.F64(self.pending_rent_dollars);
  }
};

/// One served query's metered execution + build bill.
struct MeteredBill {
  ResourceBreakdown breakdown;
  uint64_t wan_bytes = 0;
  /// The execution part, owed by the serving account. Builds were already
  /// withdrawn from it as investments (economy schemes), so they count in
  /// the breakdown but are not charged again.
  Money charged;
};

/// Prices `served` at the metered rates: the executed plan's raw resource
/// usage re-estimated under `metered` (the estimate in `served` was
/// computed under the scheme's own price list, but its physical quantities
/// are price-independent), plus the builds the query triggered.
MeteredBill MeterServedQuery(const CostModel& metered, const PriceList& prices,
                             const Query& query, const ServedQuery& served);

/// Books one served-query outcome and its metered bill into a counter
/// block — the run-wide aggregates and, on the multi-tenant path, the
/// serving tenant's slice, so the two stay in lockstep.
void AccountOutcome(const ServedQuery& served, const MeteredBill& bill,
                    QueryCounters* c);

/// The cumulative-cost and credit timelines sample every kTimelineStride-th
/// query plus the run's last one...
inline constexpr uint64_t kTimelineStride = 500;
/// ...until they hold kTimelineCap points. Then they keep every other
/// point and sample at twice the stride, so a timeline stays within the
/// cap however long the run. Reports downsample to at most 2000 points, so
/// below the cap the cap changes nothing they print.
inline constexpr size_t kTimelineCap = 4096;

/// Samples the timelines of `metrics` after query `index` (0-based) of a
/// `num_queries` run, at arrival time `now`: cumulative operating dollars
/// from `metrics`, and CR from `credit()`, which is only called on a
/// sampled query. The stride is a pure function of `index`, and halving
/// depends only on the points already taken, which a snapshot carries, so
/// a restored run samples exactly where the uninterrupted one does.
template <typename CreditFn>
void SampleTimelines(uint64_t index, uint64_t num_queries, SimTime now,
                     SimMetrics* metrics, CreditFn&& credit) {
  uint64_t stride = kTimelineStride;
  while (index / stride >= kTimelineCap) stride *= 2;
  if (index % stride != 0 && index + 1 != num_queries) return;
  if (metrics->cost_over_time.size() >= kTimelineCap) {
    metrics->cost_over_time.KeepEveryOther();
    metrics->credit_over_time.KeepEveryOther();
  }
  metrics->cost_over_time.Add(now, metrics->operating_cost.Total());
  metrics->credit_over_time.Add(now, credit().ToDollars());
}

/// Driver-mode tags stamped into a snapshot's "meta" section: restoring a
/// snapshot into a differently-shaped driver (a multi-tenant snapshot into
/// a single-stream run, or a tag this build does not know) is a
/// configuration error, caught before any state is overwritten.
inline constexpr uint8_t kDriverModeSingleStream = 0;
inline constexpr uint8_t kDriverModeMultiTenant = 1;

/// The one checkpoint boundary rule. After the loop served its
/// `processed`-th query, writes a snapshot through `write` when
/// `processed` is a multiple of `cp.every`, then fires the configured
/// crash injection. A completed run does neither.
template <typename WriteFn>
Status CheckpointBoundary(const CheckpointOptions& cp, uint64_t num_queries,
                          uint64_t processed, WriteFn&& write) {
  if (processed >= num_queries) return Status::OK();
  if (cp.every > 0 && processed % cp.every == 0) {
    CLOUDCACHE_RETURN_IF_ERROR(write());
  }
  if (cp.crash_after > 0 && processed >= cp.crash_after) {
    return Status::ResourceExhausted(
        "crash injection stopped the run after " +
        std::to_string(processed) + " queries, before finalization");
  }
  return Status::OK();
}

/// Writes the snapshot frame every driver shares to `cp.path`, atomically:
/// "meta" (driver mode, processed, run length, scheme name), "driver"
/// (filled by `write_driver`), "workload" (every stream's generator),
/// "scheme", and "metrics".
Status WriteCheckpointFrame(
    const CheckpointOptions& cp, uint8_t mode, uint64_t processed,
    uint64_t num_queries, const Scheme& scheme,
    const std::vector<WorkloadGenerator*>& streams, const SimMetrics& metrics,
    const std::function<void(persist::Encoder*)>& write_driver);

/// Reads the shared frame back into a freshly built run: verifies the
/// config hash, checkpoint support, driver mode, run length, progress and
/// scheme name, then restores every stream's generator, the scheme, and
/// `metrics`. Returns the processed count; the caller reads its own
/// "driver" section next. On error the run is unusable; discard it.
Result<uint64_t> RestoreCheckpointFrame(
    const persist::SnapshotReader& reader, const SimulatorOptions& options,
    uint8_t mode, Scheme* scheme,
    const std::vector<WorkloadGenerator*>& streams, SimMetrics* metrics);

}  // namespace cloudcache
