#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/server/protocol.h"
#include "src/server/socket_io.h"
#include "src/sim/experiment.h"
#include "src/sim/simulator.h"
#include "src/util/thread_pool.h"

namespace cloudcache {
namespace server {

struct ServerOptions {
  /// Numeric IPv4 listen address.
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port (read it back with port()).
  uint16_t port = kDefaultPort;
  /// Connection-handler pool size; 0 sizes it to the stream count plus
  /// headroom for control connections. Every live connection occupies a
  /// worker for its lifetime, so this must exceed the number of
  /// concurrent connections or late arrivals queue until one closes.
  uint32_t workers = 0;
  /// Log a progress line to stderr every N served queries (0 = quiet).
  uint64_t log_every = 0;
  /// Serve Prometheus text exposition over HTTP on this port: GET
  /// /metrics (or /) answers with the live registry snapshot. -1
  /// disables; 0 binds an ephemeral port (read it back with
  /// metrics_port()). Observability-only — scraping never touches the
  /// economy beyond taking the stats mutex.
  int32_t metrics_port = -1;
};

/// The economy served over TCP (docs/server.md). One process hosts the
/// experiment's own ExperimentGraph — the scheme, one twin
/// WorkloadGenerator per stream, and the serial Simulator, driven through
/// its external surface — and an accept loop hands each connection to a
/// worker-pool handler.
///
/// Persistence is the experiment's: config.sim.checkpoint names the
/// snapshot file written on graceful shutdown, its periodic cadence, and
/// the restore policy applied when the graph is built.
///
/// Determinism discipline: client connection #t claims workload stream t
/// (= tenant t). The server re-derives every stream from the shared
/// config, verifies each received query against its twin generator, and
/// serves queries strictly in the merged arrival order the simulator
/// would use (earliest arrival first, ties by stream id) — a handler
/// whose stream is not at the merge head blocks until it is. The economy
/// the clients observe is therefore bit-identical to `Simulator::Run()`
/// on the same configuration, and snapshots written here restore into
/// `cloudcache_sim --restore` (and vice versa).
///
/// The scheme is driven under one mutex, not sharded: ClusterScheme's
/// cross-node router, the shared account, and the rent meter are all
/// global state, and the paper's economy is defined over a serial order
/// of decisions. The Simulator is the one schedule for every run, served
/// or not: concurrency buys connection fan-in, never decision fan-out.
class CloudCachedServer {
 public:
  /// `catalog`, `templates`, and `config` must outlive the server (the
  /// scheme keeps pointers into `config`). Call Start() next.
  CloudCachedServer(const Catalog* catalog,
                    const std::vector<QueryTemplate>* templates,
                    const ExperimentConfig* config, ServerOptions options);
  ~CloudCachedServer();

  CloudCachedServer(const CloudCachedServer&) = delete;
  CloudCachedServer& operator=(const CloudCachedServer&) = delete;

  /// Builds the economy (restoring from the snapshot when configured),
  /// binds the listen socket, and spawns the accept loop + worker pool.
  /// Refuses crash injection, a simulator-only control: the server is the
  /// economy's external drive.
  Status Start();

  /// The bound port (after Start()).
  uint16_t port() const { return port_; }

  /// The bound metrics port (after Start(); 0 when the endpoint is off).
  uint16_t metrics_port() const { return metrics_port_; }

  /// The Prometheus text exposition the metrics endpoint serves (also
  /// handy for tests that want the body without HTTP).
  std::string RenderMetricsText() const;

  /// Begins a graceful drain: stop accepting, fail in-flight and new
  /// requests with kShuttingDown, kick blocked reads. Idempotent and
  /// callable from any thread (a signal-watching main loop, a kShutdown
  /// handler, a test).
  void RequestShutdown();

  /// True once RequestShutdown has been called (by anyone).
  bool ShutdownRequested() const { return stop_.load(); }

  /// Joins the accept loop and every handler, then writes the shutdown
  /// snapshot. Returns an error if the snapshot cannot be written, if a
  /// periodic checkpoint had failed, or if the run was tainted by a
  /// diverged stream (the snapshot is refused — it would not match any
  /// simulator-reachable state). Blocks until RequestShutdown happens.
  Status Wait();

  /// Served so far, in merged order (thread-safe).
  uint64_t processed() const;

  /// The live metrics block. Only meaningful once Wait() returned —
  /// while handlers run it is being mutated under the internal mutex.
  const SimMetrics& metrics() const { return sim().external_metrics(); }

  uint64_t config_hash() const { return config_hash_; }

 private:
  struct StreamState {
    bool claimed = false;  // A Hello ever claimed this stream.
    bool retired = false;  // Left the merge for good (close/divergence).
  };

  /// The graph's serial driver (after Start()).
  Simulator& sim() const { return *graph_->simulator(); }
  void AcceptLoop();
  void HandleConnection(std::shared_ptr<Socket> conn);
  /// Serves the stream-t data loop after a successful Hello.
  void StreamLoop(const Socket& conn, uint32_t stream);
  /// Stats/Shutdown loop for control connections.
  void ControlLoop(const Socket& conn);
  /// Push loop after a StatsSubscribe: writes a StatsAck immediately,
  /// then every `every` served queries, then a final one at run
  /// completion or drain before returning.
  void SubscriptionLoop(const Socket& conn, uint64_t every);
  /// Accept loop + one-shot HTTP responder for the metrics endpoint.
  void MetricsLoop();
  /// Answers a Shutdown request: raises the drain flags, writes the ack,
  /// then kicks every live connection (RequestShutdown).
  void AckShutdown(const Socket& conn);
  /// True when every stream has claimed and stream t holds the MergeHead
  /// of the streams still in the merge. Requires mu_.
  bool MergeTurnLocked(uint32_t stream) const;
  StatsAckMsg StatsLocked() const;
  void RegisterConnection(const std::shared_ptr<Socket>& conn);
  void UnregisterConnection(const Socket* conn);

  const Catalog* catalog_;
  const std::vector<QueryTemplate>* templates_;
  const ExperimentConfig* config_;
  ServerOptions options_;
  uint64_t config_hash_ = 0;
  uint32_t stream_count_ = 1;
  /// The economy; stream t's generator is its twin.
  std::unique_ptr<ExperimentGraph> graph_;

  Socket listener_;
  uint16_t port_ = 0;
  Socket metrics_listener_;
  uint16_t metrics_port_ = 0;
  std::thread metrics_thread_;
  std::thread accept_thread_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<bool> stop_{false};

  /// Guards the economy (graph_), the stream table, and
  /// the connection registry. merge_cv_ wakes handlers when the merge
  /// head may have moved or a drain began.
  mutable std::mutex mu_;
  std::condition_variable merge_cv_;
  std::vector<StreamState> streams_;
  /// MergeHead's view of the streams: stream t's twin while a connection
  /// feeds it (the stream is connected), null before its claim and once
  /// it retires.
  std::vector<WorkloadGenerator*> merge_;
  bool draining_ = false;
  bool tainted_ = false;
  std::string taint_reason_;
  Status checkpoint_status_ = Status::OK();
  std::vector<std::shared_ptr<Socket>> live_connections_;
};

}  // namespace server
}  // namespace cloudcache
