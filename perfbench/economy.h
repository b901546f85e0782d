#pragma once

// The economy object graph the benchmark drives in-process — built from
// the same shared flag surface cloudcached parses, so an in-process twin
// of the served workload is the server's economy bit for bit — plus the
// untraced and traced query loops over it.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/baseline/scheme.h"
#include "src/cluster/cluster.h"
#include "src/sim/experiment.h"
#include "src/sim/simulator.h"
#include "src/util/status.h"
#include "bench.h"
#include "stats.h"
#include "tools/experiment_flags.h"

namespace perfbench {

using namespace cloudcache;

/// Forwards every Scheme virtual to the wrapped scheme and times OnQuery.
class TimedScheme : public Scheme {
 public:
  explicit TimedScheme(Scheme* inner) : inner_(inner) {}

  const std::string& name() const override { return inner_->name(); }
  ServedQuery OnQuery(const Query& query, SimTime now) override {
    const int64_t start = NowNs();
    ServedQuery served = inner_->OnQuery(query, now);
    ns_ += NowNs() - start;
    ++calls_;
    return served;
  }
  const CacheState& cache() const override { return inner_->cache(); }
  Money credit() const override { return inner_->credit(); }
  Money TenantRegret(uint32_t tenant) const override {
    return inner_->TenantRegret(tenant);
  }
  void ChargeExpenditure(Money amount, SimTime now) override {
    inner_->ChargeExpenditure(amount, now);
  }
  uint64_t TotalResidentBytes() const override {
    return inner_->TotalResidentBytes();
  }
  uint32_t TotalExtraCpuNodes() const override {
    return inner_->TotalExtraCpuNodes();
  }
  uint32_t RentedNodes() const override { return inner_->RentedNodes(); }
  Money StandingRegret() const override { return inner_->StandingRegret(); }
  Status AdoptStructure(const StructureKey& key, SimTime now) override {
    return inner_->AdoptStructure(key, now);
  }
  void AbsorbCredit(Money amount, SimTime now) override {
    inner_->AbsorbCredit(amount, now);
  }
  void DescribeCluster(ClusterMetrics* out) const override {
    inner_->DescribeCluster(out);
  }
  void SetEventTracer(obs::EventTracer* tracer,
                      uint32_t node_ordinal) override {
    inner_->SetEventTracer(tracer, node_ordinal);
  }
  bool SupportsCheckpoint() const override {
    return inner_->SupportsCheckpoint();
  }
  void SaveState(persist::Encoder* enc) const override {
    inner_->SaveState(enc);
  }
  Status RestoreState(persist::Decoder* dec) override {
    return inner_->RestoreState(dec);
  }

  uint64_t calls() const { return calls_; }
  int64_t ns() const { return ns_; }

 private:
  Scheme* inner_;
  uint64_t calls_ = 0;
  int64_t ns_ = 0;
};

/// One economy: catalog, templates, index advice, the scheme graph of
/// MakeExperimentScheme, one generator per stream, and a Simulator in
/// external-drive mode over them. Never moves once built (the scheme
/// keeps pointers into the catalog, indexes and config).
struct Economy {
  Catalog catalog;
  std::vector<QueryTemplate> templates;
  std::vector<ResolvedTemplate> resolved;
  std::vector<StructureKey> indexes;
  ExperimentConfig config;
  SimulatorOptions sim_options;
  std::unique_ptr<Scheme> scheme;
  /// `scheme` itself when the flags ask for a cluster, else null.
  ClusterScheme* cluster = nullptr;
  /// Decorator the simulator drives instead of `scheme` (traced builds).
  std::unique_ptr<TimedScheme> timed;
  std::vector<std::unique_ptr<WorkloadGenerator>> generators;
  std::unique_ptr<Simulator> sim;
};

/// Parses `flags` with the shared flag parser and builds the graph.
/// `snapshot_path` is where ExternalCheckpoint writes (may be empty).
Result<std::unique_ptr<Economy>> BuildEconomy(
    const std::vector<std::string>& flags, const std::string& snapshot_path,
    bool timed);

/// The flags of each replay of `spec`: its own flags plus
/// `--seed=MixSeed(options.seed, k)` and `--queries=queries`, for k below
/// the replay count (2 in small mode).
std::vector<std::vector<std::string>> ReplayFlags(const RunOptions& options,
                                                  const WorkloadSpec& spec,
                                                  uint64_t queries);

/// The economic counters every correctness check compares.
struct EconCounters {
  uint64_t queries = 0, served = 0, served_in_cache = 0,
           served_in_backend = 0, investments = 0, evictions = 0,
           throttled = 0, case_a = 0, case_b = 0, case_c = 0, wan_bytes = 0;
  int64_t revenue_micros = 0, profit_micros = 0;
  double operating_cost = 0, mean_response = 0;

  static EconCounters Of(const SimMetrics& metrics);
  bool operator==(const EconCounters& other) const;
  bool operator!=(const EconCounters& other) const {
    return !(*this == other);
  }
  std::string ToString() const;
};

/// Index of the stream whose next query is the merge head (earliest
/// arrival, ties to the lowest stream), skipping streams that already
/// produced `caps[t]` queries; -1 when every stream is capped.
inline int MergeHead(const Economy& economy,
                     const std::vector<uint64_t>& caps) {
  int head = -1;
  SimTime head_time = 0;
  for (size_t t = 0; t < economy.generators.size(); ++t) {
    const WorkloadGenerator& gen = *economy.generators[t];
    if (gen.queries_generated() >= caps[t]) continue;
    if (head < 0 || gen.PeekNextArrival() < head_time) {
      head = static_cast<int>(t);
      head_time = gen.PeekNextArrival();
    }
  }
  return head;
}

/// No per-stream cap: the drive's query count alone bounds the run.
inline std::vector<uint64_t> Uncapped(const Economy& economy) {
  return std::vector<uint64_t>(economy.generators.size(), UINT64_MAX);
}

/// The untraced query loop: draw the merge head, serve it through the
/// simulator's external drive, and read the clock once per query (the
/// per-query loop time lands in `latency_ns` when non-null). Calls
/// `visit(query, served, index)` after each serve. Returns loop wall ns.
template <typename Visit>
int64_t DriveBare(Economy* economy, uint64_t n,
                  const std::vector<uint64_t>& caps,
                  std::vector<uint32_t>* latency_ns, Visit&& visit) {
  Simulator& sim = *economy->sim;
  sim.ExternalBegin();
  const int64_t start = NowNs();
  int64_t previous = start;
  for (uint64_t i = 0; i < n; ++i) {
    const int head = MergeHead(*economy, caps);
    if (head < 0) break;
    const Query query = economy->generators[static_cast<size_t>(head)]->Next();
    const ServedQuery served = sim.ExternalServe(query);
    if (latency_ns != nullptr) {
      const int64_t now = NowNs();
      latency_ns->push_back(static_cast<uint32_t>(now - previous));
      previous = now;
    }
    visit(query, served, i);
  }
  return NowNs() - start;
}

/// A span accumulator: calls and total ns.
struct Span {
  uint64_t calls = 0;
  int64_t ns = 0;
  void Add(int64_t start, int64_t end) {
    ++calls;
    ns += end - start;
  }
  double MeanNs() const {
    return calls == 0 ? 0.0 : static_cast<double>(ns) / calls;
  }
};

/// Per-layer accumulators of traced drives (summed over repetitions).
struct LayerTrace {
  int64_t loop_ns = 0;  // Traced query-loop wall, checkpoints excluded.
  uint64_t queries = 0;
  Span next, route, serve, on_query, estimate, checkpoint, restore;
  Span stages[4];  // obs::Stage order: enumerate, skyline, price, settle.
  uint64_t plan_hits = 0, plan_misses = 0;
  uint64_t snapshot_bytes = 0;
  uint64_t scale_events = 0;
  uint32_t peak_nodes = 0;
  uint64_t investments = 0, evictions = 0, served = 0, served_in_cache = 0;

  /// Named spans cover this many ns of loop_ns.
  int64_t AttributedNs() const {
    return next.ns + route.ns + serve.ns + estimate.ns;
  }
};

/// One snapshot a traced drive wrote, with the counters it must restore.
struct CheckpointRecord {
  std::string path;
  uint64_t processed = 0;
  EconCounters counters;
};

/// The traced query loop: the same merge and serves as DriveBare, with a
/// span around each call into a layer — WorkloadGenerator::Next,
/// ClusterScheme::RouteQuery (clusters only, a pure routing call before
/// the serve), Simulator::ExternalServe, and CostModel::EstimateExecution
/// at the metered prices on each served spec — while the economy's
/// TimedScheme and obs::StageProfiler time OnQuery and its four stages.
/// Every `checkpoint_every` queries it writes a snapshot through
/// Simulator::ExternalCheckpoint to `<snapshot_prefix>.<k>` (timed, and
/// excluded from the loop wall). The economy must be built timed. Returns
/// the first checkpoint failure; the drive itself always completes.
Status DriveTraced(Economy* economy, uint64_t n,
                   const std::vector<uint64_t>& caps,
                   uint64_t checkpoint_every,
                   const std::string& snapshot_prefix, LayerTrace* trace,
                   std::vector<CheckpointRecord>* checkpoints);

/// Restores each checkpoint into a freshly built economy (timing
/// SnapshotReader::FromFile + Simulator::RestoreFrom into `trace`), and
/// checks the restored counters against the recorded ones. Deletes the
/// snapshot files.
Status VerifyRestores(const std::vector<std::string>& flags,
                      const std::vector<CheckpointRecord>& checkpoints,
                      LayerTrace* trace);

/// Appends the per-layer metrics of `trace` (all layers of the economy;
/// server metrics are the served runner's).
void AddLayerMetrics(const LayerTrace& trace, double trace_overhead,
                     Report* report);

}  // namespace perfbench
