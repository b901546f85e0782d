#include "src/server/server.h"

#include <poll.h>
#include <sys/socket.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "src/obs/registry.h"
#include "src/util/logging.h"

namespace cloudcache {
namespace server {

namespace {

/// Sends one Error frame; best-effort (the peer may already be gone).
void SendError(const Socket& conn, ErrorCode code,
               const std::string& message) {
  persist::Encoder enc;
  ErrorMsg msg;
  msg.code = code;
  msg.message = message;
  EncodeError(msg, &enc);
  const Status ignored = WriteFrame(conn, enc);
  (void)ignored;
}

}  // namespace

CloudCachedServer::CloudCachedServer(
    const Catalog* catalog, const std::vector<QueryTemplate>* templates,
    const ExperimentConfig* config, ServerOptions options)
    : catalog_(catalog),
      templates_(templates),
      config_(config),
      options_(std::move(options)) {
  config_hash_ = HashExperimentConfig(*config_);
  stream_count_ = config_->tenancy.tenants;
}

CloudCachedServer::~CloudCachedServer() {
  RequestShutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (metrics_thread_.joinable()) metrics_thread_.join();
  pool_.reset();
}

Status CloudCachedServer::Start() {
  if (stream_count_ == 0) {
    return Status::InvalidArgument("config.tenancy.tenants must be >= 1");
  }
  if (config_->sim.checkpoint.crash_after > 0) {
    return Status::InvalidArgument(
        "crash injection is a simulator-only control; crash_after must be "
        "0");
  }
  Result<std::unique_ptr<ExperimentGraph>> graph =
      ExperimentGraph::Build(*catalog_, *templates_, *config_);
  CLOUDCACHE_RETURN_IF_ERROR(graph.status());
  graph_ = std::move(graph).value();
  sim().ExternalBegin();

  Result<Socket> listener = ListenTcp(options_.host, options_.port);
  CLOUDCACHE_RETURN_IF_ERROR(listener.status());
  listener_ = std::move(listener).value();
  Result<uint16_t> port = LocalPort(listener_);
  CLOUDCACHE_RETURN_IF_ERROR(port.status());
  port_ = port.value();

  if (options_.metrics_port >= 0) {
    if (options_.metrics_port > 65535) {
      return Status::InvalidArgument("metrics port out of range");
    }
    Result<Socket> metrics_listener = ListenTcp(
        options_.host, static_cast<uint16_t>(options_.metrics_port));
    CLOUDCACHE_RETURN_IF_ERROR(metrics_listener.status());
    metrics_listener_ = std::move(metrics_listener).value();
    Result<uint16_t> metrics_port = LocalPort(metrics_listener_);
    CLOUDCACHE_RETURN_IF_ERROR(metrics_port.status());
    metrics_port_ = metrics_port.value();
  }

  streams_.assign(stream_count_, StreamState());
  merge_.assign(stream_count_, nullptr);
  const uint32_t workers =
      options_.workers > 0 ? options_.workers : stream_count_ + 4;
  pool_ = std::make_unique<ThreadPool>(workers);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  if (metrics_listener_.valid()) {
    metrics_thread_ = std::thread([this] { MetricsLoop(); });
  }
  return Status::OK();
}

void CloudCachedServer::RequestShutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
    for (const std::shared_ptr<Socket>& conn : live_connections_) {
      conn->ShutdownBoth();
    }
  }
  stop_.store(true);
  merge_cv_.notify_all();
}

void CloudCachedServer::AckShutdown(const Socket& conn) {
  // The flags go up before the ack goes out, so a client that has read
  // the ack always observes ShutdownRequested(); the live connections
  // (this one included) are kicked only after the ack is written.
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  stop_.store(true);
  persist::Encoder enc;
  EncodeShutdownAck(&enc);
  const Status ignored = WriteFrame(conn, enc);
  (void)ignored;
  RequestShutdown();
}

Status CloudCachedServer::Wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  if (metrics_thread_.joinable()) metrics_thread_.join();
  // Runs any still-queued handlers (they see draining_ and bail) and
  // joins the workers; blocked reads were kicked by RequestShutdown.
  pool_.reset();

  std::lock_guard<std::mutex> lock(mu_);
  CLOUDCACHE_RETURN_IF_ERROR(checkpoint_status_);
  if (config_->sim.checkpoint.path.empty()) return Status::OK();
  if (tainted_) {
    return Status::FailedPrecondition(
        "refusing the shutdown snapshot: " + taint_reason_ +
        " (the economy no longer matches any simulator-reachable state)");
  }
  if (sim().external_processed() >= sim().options().num_queries) {
    // Same rule as the drivers: a completed run is never checkpointed.
    std::fprintf(stderr,
                 "cloudcached: run complete (%llu queries); no shutdown "
                 "snapshot (nothing to resume)\n",
                 static_cast<unsigned long long>(sim().external_processed()));
    return Status::OK();
  }
  return sim().ExternalCheckpoint();
}

uint64_t CloudCachedServer::processed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sim().external_processed();
}

void CloudCachedServer::AcceptLoop() {
  while (!stop_.load()) {
    pollfd pfd;
    pfd.fd = listener_.fd();
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (stop_.load()) break;
    if (ready <= 0) continue;
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) continue;
    auto conn = std::make_shared<Socket>(fd);
    EnableNoDelay(*conn);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (draining_) {
        continue;  // conn closes via RAII; the peer sees a reset.
      }
    }
    pool_->Submit([this, conn] { HandleConnection(conn); });
  }
  listener_.Close();
}

void CloudCachedServer::HandleConnection(std::shared_ptr<Socket> conn) {
  RegisterConnection(conn);

  std::vector<uint8_t> payload;
  bool clean_eof = false;
  HelloMsg hello;
  const Status read = ReadFrame(*conn, &payload, &clean_eof);
  if (!read.ok() || clean_eof) {
    UnregisterConnection(conn.get());
    return;
  }
  persist::Decoder dec(payload.data(), payload.size());
  MessageType type = MessageType::kHello;
  Status parsed = PeekType(&dec, &type);
  if (parsed.ok() && type != MessageType::kHello) {
    parsed = Status::InvalidArgument("first message must be Hello");
  }
  if (parsed.ok()) parsed = DecodeHello(&dec, &hello);
  if (!parsed.ok()) {
    SendError(*conn, ErrorCode::kBadFrame, parsed.message());
    UnregisterConnection(conn.get());
    return;
  }

  HelloAckMsg ack;
  ack.config_hash = config_hash_;
  ack.num_queries = sim().options().num_queries;
  if (hello.protocol_version != kProtocolVersion) {
    SendError(*conn, ErrorCode::kVersionMismatch,
              "server speaks protocol version " +
                  std::to_string(kProtocolVersion) + ", client sent " +
                  std::to_string(hello.protocol_version));
    UnregisterConnection(conn.get());
    return;
  }
  if (hello.config_hash != 0 && hello.config_hash != config_hash_) {
    SendError(*conn, ErrorCode::kConfigMismatch,
              "client config hash does not match the server's experiment "
              "configuration");
    UnregisterConnection(conn.get());
    return;
  }

  if (hello.stream_id == kControlStream) {
    ack.stream_id = kControlStream;
    persist::Encoder enc;
    EncodeHelloAck(ack, &enc);
    if (WriteFrame(*conn, enc).ok()) ControlLoop(*conn);
    UnregisterConnection(conn.get());
    return;
  }
  if (hello.stream_id >= stream_count_) {
    SendError(*conn, ErrorCode::kStreamOutOfRange,
              "stream " + std::to_string(hello.stream_id) +
                  " out of range; this server runs " +
                  std::to_string(stream_count_) + " stream(s)");
    UnregisterConnection(conn.get());
    return;
  }

  const uint32_t stream = hello.stream_id;
  {
    // Decide under the lock, reply outside it: mu_ must never be held
    // across socket writes (or the re-lock in UnregisterConnection).
    ErrorCode refusal = ErrorCode::kInternal;
    std::string refusal_message;
    bool refused = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      StreamState& state = streams_[stream];
      if (draining_) {
        refused = true;
        refusal = ErrorCode::kShuttingDown;
        refusal_message = "server is draining";
      } else if (merge_[stream] != nullptr) {
        refused = true;
        refusal = ErrorCode::kStreamClaimed;
        refusal_message = "stream " + std::to_string(stream) +
                          " already has a live connection";
      } else if (state.retired) {
        // Once a stream leaves the merge the global order moved on
        // without it; re-admitting it would diverge from the simulator's
        // schedule.
        refused = true;
        refusal = ErrorCode::kNotAllowed;
        refusal_message = "stream " + std::to_string(stream) +
                          " already left the merge and cannot rejoin";
      } else {
        state.claimed = true;
        merge_[stream] = graph_->stream(stream);
        ack.stream_id = stream;
        ack.next_query_id = graph_->stream(stream)->queries_generated();
      }
    }
    if (refused) {
      SendError(*conn, refusal, refusal_message);
      UnregisterConnection(conn.get());
      return;
    }
  }
  merge_cv_.notify_all();  // The claim may complete the merge gate.

  persist::Encoder enc;
  EncodeHelloAck(ack, &enc);
  if (WriteFrame(*conn, enc).ok()) StreamLoop(*conn, stream);

  {
    std::lock_guard<std::mutex> lock(mu_);
    streams_[stream].retired = true;
    merge_[stream] = nullptr;
  }
  merge_cv_.notify_all();
  UnregisterConnection(conn.get());
}

bool CloudCachedServer::MergeTurnLocked(uint32_t stream) const {
  // Service begins only once every configured stream has claimed: until
  // then the earliest unclaimed stream might hold the merge head, and
  // serving around it would diverge from the simulator's schedule.
  for (const StreamState& state : streams_) {
    if (!state.claimed) return false;
  }
  return MergeHead(merge_) == stream;
}

void CloudCachedServer::StreamLoop(const Socket& conn, uint32_t stream) {
  std::vector<uint8_t> payload;
  bool clean_eof = false;
  while (true) {
    const Status read = ReadFrame(conn, &payload, &clean_eof);
    if (!read.ok() || clean_eof) return;
    persist::Decoder dec(payload.data(), payload.size());
    MessageType type = MessageType::kQuery;
    Status parsed = PeekType(&dec, &type);
    if (!parsed.ok()) {
      SendError(conn, ErrorCode::kBadFrame, parsed.message());
      return;
    }

    if (type == MessageType::kStats) {
      if (!DecodeStats(&dec).ok()) {
        SendError(conn, ErrorCode::kBadFrame, "malformed Stats");
        return;
      }
      persist::Encoder enc;
      {
        std::lock_guard<std::mutex> lock(mu_);
        EncodeStatsAck(StatsLocked(), &enc);
      }
      if (!WriteFrame(conn, enc).ok()) return;
      continue;
    }
    if (type == MessageType::kShutdown) {
      if (!DecodeShutdown(&dec).ok()) {
        SendError(conn, ErrorCode::kBadFrame, "malformed Shutdown");
        return;
      }
      AckShutdown(conn);
      return;
    }
    if (type != MessageType::kQuery) {
      SendError(conn, ErrorCode::kNotAllowed,
                std::string(MessageTypeName(type)) +
                    " not allowed on a stream connection");
      return;
    }

    Query received;
    parsed = DecodeQuery(&dec, &received);
    if (!parsed.ok()) {
      SendError(conn, ErrorCode::kBadFrame, parsed.message());
      return;
    }

    OutcomeMsg outcome;
    ErrorCode error = ErrorCode::kInternal;
    std::string error_message;
    bool serve_failed = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      merge_cv_.wait(lock, [this, stream] {
        return draining_ ||
               sim().external_processed() >= sim().options().num_queries ||
               MergeTurnLocked(stream);
      });
      if (draining_) {
        error = ErrorCode::kShuttingDown;
        error_message = "server is draining";
        serve_failed = true;
      } else if (sim().external_processed() >=
                 sim().options().num_queries) {
        error = ErrorCode::kRunComplete;
        error_message = "the configured run of " +
                        std::to_string(sim().options().num_queries) +
                        " queries is complete";
        serve_failed = true;
      } else {
        // The twin generator is the source of truth: draw its query,
        // verify the client sent the same one, and serve the twin's
        // instance — the economy's evolution is then a pure function of
        // the configuration, never of client-marshalled bytes.
        const Query expected = graph_->stream(stream)->Next();
        if (received.id != expected.id ||
            received.template_id != expected.template_id ||
            received.arrival_time != expected.arrival_time ||
            received.table != expected.table ||
            received.tenant_id != expected.tenant_id) {
          tainted_ = true;
          taint_reason_ = "stream " + std::to_string(stream) +
                          " diverged from its twin generator at query " +
                          std::to_string(expected.id);
          error = ErrorCode::kStreamDiverged;
          error_message = taint_reason_;
          serve_failed = true;
        } else {
          const ServedQuery served = sim().ExternalServe(expected);
          const uint64_t processed = sim().external_processed();
          outcome.query_id = expected.id;
          outcome.global_index = processed - 1;
          outcome.served = served.served;
          outcome.access = static_cast<uint8_t>(served.spec.access);
          outcome.throttled = served.throttled;
          outcome.response_seconds = served.execution.time_seconds;
          outcome.payment_micros = served.payment.micros();
          outcome.profit_micros = served.profit.micros();
          outcome.has_budget_case = served.has_budget_case;
          outcome.budget_case = static_cast<uint8_t>(served.budget_case);
          outcome.investments = served.investments;
          outcome.evictions = served.evictions;
          if (checkpoint_status_.ok() && !tainted_) {
            checkpoint_status_ = CheckpointBoundary(
                sim().options().checkpoint, sim().options().num_queries,
                processed, [this] { return sim().ExternalCheckpoint(); });
            if (!checkpoint_status_.ok()) {
              std::fprintf(stderr, "cloudcached: checkpoint failed: %s\n",
                           checkpoint_status_.ToString().c_str());
            }
          }
          if (options_.log_every > 0 &&
              processed % options_.log_every == 0) {
            std::fprintf(
                stderr, "cloudcached: served %llu/%llu, credit $%.2f\n",
                static_cast<unsigned long long>(processed),
                static_cast<unsigned long long>(
                    sim().options().num_queries),
                graph_->scheme().credit().ToDollars());
          }
        }
      }
    }
    merge_cv_.notify_all();

    if (serve_failed) {
      SendError(conn, error, error_message);
      return;
    }
    persist::Encoder enc;
    EncodeOutcome(outcome, &enc);
    if (!WriteFrame(conn, enc).ok()) return;
  }
}

void CloudCachedServer::ControlLoop(const Socket& conn) {
  std::vector<uint8_t> payload;
  bool clean_eof = false;
  while (true) {
    const Status read = ReadFrame(conn, &payload, &clean_eof);
    if (!read.ok() || clean_eof) return;
    persist::Decoder dec(payload.data(), payload.size());
    MessageType type = MessageType::kStats;
    if (!PeekType(&dec, &type).ok()) {
      SendError(conn, ErrorCode::kBadFrame, "unknown message type");
      return;
    }
    if (type == MessageType::kStats && DecodeStats(&dec).ok()) {
      persist::Encoder enc;
      {
        std::lock_guard<std::mutex> lock(mu_);
        EncodeStatsAck(StatsLocked(), &enc);
      }
      if (!WriteFrame(conn, enc).ok()) return;
      continue;
    }
    if (type == MessageType::kStatsSubscribe) {
      StatsSubscribeMsg sub;
      if (!DecodeStatsSubscribe(&dec, &sub).ok()) {
        SendError(conn, ErrorCode::kBadFrame, "malformed StatsSubscribe");
        return;
      }
      SubscriptionLoop(conn, sub.every);
      return;
    }
    if (type == MessageType::kShutdown && DecodeShutdown(&dec).ok()) {
      AckShutdown(conn);
      return;
    }
    SendError(conn, ErrorCode::kNotAllowed,
              "control connections speak Stats, StatsSubscribe, and "
              "Shutdown only");
    return;
  }
}

void CloudCachedServer::SubscriptionLoop(const Socket& conn,
                                         uint64_t every) {
  uint64_t next_at = 0;  // The first ack goes out immediately.
  while (true) {
    StatsAckMsg stats;
    bool final_ack = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      merge_cv_.wait(lock, [this, next_at] {
        return draining_ || stop_.load() ||
               sim().external_processed() >= next_at ||
               sim().external_processed() >= sim().options().num_queries;
      });
      stats = StatsLocked();
      final_ack = draining_ || stop_.load() ||
                  stats.processed >= stats.num_queries;
    }
    // Saturating: an `every` past the run's end means "final ack only".
    next_at = every > UINT64_MAX - stats.processed ? UINT64_MAX
                                                   : stats.processed + every;
    // The frame goes out without mu_: a slow or stalled watcher must
    // never hold up the merge.
    persist::Encoder enc;
    EncodeStatsAck(stats, &enc);
    if (!WriteFrame(conn, enc).ok()) return;
    if (final_ack) return;
  }
}

StatsAckMsg CloudCachedServer::StatsLocked() const {
  StatsAckMsg stats;
  const SimMetrics& metrics = sim().external_metrics();
  stats.processed = sim().external_processed();
  stats.num_queries = sim().options().num_queries;
  stats.served = metrics.served;
  stats.credit_micros = graph_->scheme().credit().micros();
  for (const WorkloadGenerator* twin : merge_) {
    if (twin != nullptr) ++stats.active_streams;
  }
  stats.served_in_cache = metrics.served_in_cache;
  stats.throttled = metrics.throttled;
  stats.investments = metrics.investments;
  stats.evictions = metrics.evictions;
  if (!metrics.tenants.empty()) {
    stats.streams.reserve(metrics.tenants.size());
    for (const TenantMetrics& tenant : metrics.tenants) {
      StreamStatsMsg slice;
      slice.stream = tenant.tenant_id;
      slice.queries = tenant.queries;
      slice.served = tenant.served;
      slice.throttled = tenant.throttled;
      stats.streams.push_back(slice);
    }
  } else {
    // Single-tenant runs keep no per-tenant block; synthesize the one
    // slice from the aggregates so watchers see a uniform shape.
    StreamStatsMsg slice;
    slice.stream = 0;
    slice.queries = metrics.queries;
    slice.served = metrics.served;
    slice.throttled = metrics.throttled;
    stats.streams.push_back(slice);
  }
  return stats;
}

std::string CloudCachedServer::RenderMetricsText() const {
  obs::Registry registry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    obs::FillFromSimMetrics(sim().external_metrics(), &registry);
    // Server-side liveness gauges, beyond what SimMetrics carries.
    registry.Counter("cloudcache_server_processed_total",
                     "Queries served so far, in merged order.",
                     static_cast<double>(sim().external_processed()));
    registry.Gauge("cloudcache_server_run_queries",
                   "Configured merged run length.",
                   static_cast<double>(sim().options().num_queries));
    uint32_t active = 0;
    for (const WorkloadGenerator* twin : merge_) {
      if (twin != nullptr) ++active;
    }
    registry.Gauge("cloudcache_server_active_streams",
                   "Workload streams with a live connection.",
                   static_cast<double>(active));
    registry.Gauge("cloudcache_server_credit_dollars",
                   "Live cloud credit CR.",
                   graph_->scheme().credit().ToDollars());
  }
  // Rendering is pure string work — do it off the economy's mutex.
  return registry.RenderPrometheus();
}

void CloudCachedServer::MetricsLoop() {
  while (!stop_.load()) {
    pollfd pfd;
    pfd.fd = metrics_listener_.fd();
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (stop_.load()) break;
    if (ready <= 0) continue;
    const int fd = ::accept(metrics_listener_.fd(), nullptr, nullptr);
    if (fd < 0) continue;
    Socket conn(fd);
    // One-shot HTTP/1.0 exchange: read the request head, answer, close.
    // Only the request line matters; headers are skipped.
    std::string request;
    char buf[1024];
    while (request.find("\r\n\r\n") == std::string::npos &&
           request.size() < 8192) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      request.append(buf, static_cast<size_t>(n));
    }
    std::string status_line = "200 OK";
    std::string body;
    std::string content_type = "text/plain; charset=utf-8";
    if (request.rfind("GET ", 0) != 0) {
      status_line = "405 Method Not Allowed";
      body = "only GET is served\n";
    } else {
      const size_t path_end = request.find(' ', 4);
      const std::string path = path_end == std::string::npos
                                   ? std::string()
                                   : request.substr(4, path_end - 4);
      if (path == "/metrics" || path == "/") {
        body = RenderMetricsText();
        content_type = "text/plain; version=0.0.4; charset=utf-8";
      } else {
        status_line = "404 Not Found";
        body = "try /metrics\n";
      }
    }
    const std::string response =
        "HTTP/1.0 " + status_line + "\r\nContent-Type: " + content_type +
        "\r\nContent-Length: " + std::to_string(body.size()) +
        "\r\nConnection: close\r\n\r\n" + body;
    const Status ignored =
        WriteAll(conn, reinterpret_cast<const uint8_t*>(response.data()),
                 response.size());
    (void)ignored;
  }
  metrics_listener_.Close();
}

void CloudCachedServer::RegisterConnection(
    const std::shared_ptr<Socket>& conn) {
  std::lock_guard<std::mutex> lock(mu_);
  live_connections_.push_back(conn);
  if (draining_) conn->ShutdownBoth();
}

void CloudCachedServer::UnregisterConnection(const Socket* conn) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < live_connections_.size(); ++i) {
    if (live_connections_[i].get() == conn) {
      live_connections_.erase(
          live_connections_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

}  // namespace server
}  // namespace cloudcache
