// cloudcached is the simulator served over sockets, and the tests pin
// exactly that claim:
//
//  1. Per-query equivalence: the outcome of every query served over a
//     real TCP connection equals what the external drive of a second
//     ExperimentGraph — the server's own builder — produces for it.
//  2. Concurrency is fan-in, not reordering: N racing connections
//     produce metrics bit-identical to serially merge-driving the same
//     streams — the merge gate serializes service into simulator order.
//  3. Persistence is the experiment's: the snapshot a draining server
//     writes resumes the classic driver bit-identically to an
//     uninterrupted run, the periodic cadence writes the simulator's
//     exact bytes, and restore follows RunExperimentChecked's policy.
//  4. Protocol discipline: the Hello gate rejects version, config-hash,
//     duplicate-claim, and out-of-range errors; a diverged stream taints
//     the run and shutdown refuses to write its snapshot; a stats
//     subscription never outruns its cadence.

#include "src/server/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/catalog/tpch.h"
#include "src/server/protocol.h"
#include "src/server/socket_io.h"
#include "src/sim/experiment.h"
#include "tests/testing/metrics_equal.h"

namespace cloudcache::server {
namespace {

using cloudcache::testing::ExpectBitIdenticalMetrics;
using cloudcache::testing::ExpectBitIdenticalTenants;

class ServerIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog(MakeTpchCatalog(100.0));
    templates_ = new std::vector<QueryTemplate>(MakeTpchTemplates());
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
    delete templates_;
    templates_ = nullptr;
  }

  /// An economically active short run (investments and evictions happen)
  /// so the served outcomes actually exercise the economy.
  static ExperimentConfig ActiveConfig(uint64_t num_queries,
                                       uint32_t tenants) {
    ExperimentConfig config;
    config.scheme = SchemeKind::kEconCheap;
    config.workload.interarrival_seconds = 5.0;
    config.workload.seed = 29;
    config.seed = 30;
    config.sim.num_queries = num_queries;
    config.tenancy.tenants = tenants;
    config.tenancy.traffic_skew = tenants > 1 ? 1.0 : 0.0;
    config.customize_econ = [](EconScheme::Config& econ) {
      econ.economy.regret_fraction_a = 0.001;
      econ.economy.initial_credit = Money::FromDollars(20);
      econ.economy.model_build_latency = false;
    };
    return config;
  }

  /// The server's own graph, built once more and begun for external
  /// drive — the reference the socket path must match.
  static std::unique_ptr<ExperimentGraph> MakeReference(
      const ExperimentConfig& config) {
    std::unique_ptr<ExperimentGraph> ref =
        ExperimentGraph::Build(*catalog_, *templates_, config).value();
    ref->simulator()->ExternalBegin();
    return ref;
  }

  /// Pre-draws each stream's share of the next `count` merged queries
  /// (earliest arrival, ties to the lowest stream — the simulator rule).
  static std::vector<std::vector<Query>> DrawPlans(ExperimentConfig config,
                                                   uint64_t count) {
    config.sim.checkpoint = CheckpointOptions{};  // Streams only.
    const std::unique_ptr<ExperimentGraph> graph =
        ExperimentGraph::Build(*catalog_, *templates_, config).value();
    std::vector<WorkloadGenerator*> streams;
    for (uint32_t t = 0; t < config.tenancy.tenants; ++t) {
      streams.push_back(graph->stream(t));
    }
    std::vector<std::vector<Query>> plans(streams.size());
    for (uint64_t i = 0; i < count; ++i) {
      const size_t head = MergeHead(streams);
      plans[head].push_back(streams[head]->Next());
    }
    return plans;
  }

  static Catalog* catalog_;
  static std::vector<QueryTemplate>* templates_;
};

Catalog* ServerIntegrationTest::catalog_ = nullptr;
std::vector<QueryTemplate>* ServerIntegrationTest::templates_ = nullptr;

/// A Hello exchange's reply: exactly one of ack/error is meaningful.
struct HelloReply {
  bool acked = false;
  HelloAckMsg ack;
  ErrorMsg error;
};

Status DoHello(Socket* conn, uint16_t port, uint32_t stream, uint64_t hash,
               HelloReply* reply, uint32_t version = kProtocolVersion) {
  Result<Socket> connected = ConnectTcp("127.0.0.1", port);
  CLOUDCACHE_RETURN_IF_ERROR(connected.status());
  *conn = std::move(connected).value();
  HelloMsg hello;
  hello.protocol_version = version;
  hello.stream_id = stream;
  hello.config_hash = hash;
  persist::Encoder enc;
  EncodeHello(hello, &enc);
  CLOUDCACHE_RETURN_IF_ERROR(WriteFrame(*conn, enc));
  std::vector<uint8_t> payload;
  bool clean_eof = false;
  CLOUDCACHE_RETURN_IF_ERROR(ReadFrame(*conn, &payload, &clean_eof));
  if (clean_eof) return Status::IoError("closed during Hello");
  persist::Decoder dec(payload.data(), payload.size());
  MessageType type = MessageType::kHelloAck;
  CLOUDCACHE_RETURN_IF_ERROR(PeekType(&dec, &type));
  if (type == MessageType::kError) {
    reply->acked = false;
    return DecodeError(&dec, &reply->error);
  }
  if (type != MessageType::kHelloAck) {
    return Status::Internal("unexpected Hello reply");
  }
  reply->acked = true;
  return DecodeHelloAck(&dec, &reply->ack);
}

/// A Query exchange's reply: an outcome or a protocol error.
struct QueryReply {
  bool has_outcome = false;
  OutcomeMsg outcome;
  ErrorMsg error;
};

Status ExchangeQuery(const Socket& conn, const Query& query,
                     QueryReply* reply) {
  persist::Encoder enc;
  EncodeQuery(query, &enc);
  CLOUDCACHE_RETURN_IF_ERROR(WriteFrame(conn, enc));
  std::vector<uint8_t> payload;
  bool clean_eof = false;
  CLOUDCACHE_RETURN_IF_ERROR(ReadFrame(conn, &payload, &clean_eof));
  if (clean_eof) return Status::IoError("closed mid-stream");
  persist::Decoder dec(payload.data(), payload.size());
  MessageType type = MessageType::kOutcome;
  CLOUDCACHE_RETURN_IF_ERROR(PeekType(&dec, &type));
  if (type == MessageType::kError) {
    reply->has_outcome = false;
    return DecodeError(&dec, &reply->error);
  }
  if (type != MessageType::kOutcome) {
    return Status::Internal("unexpected Query reply");
  }
  reply->has_outcome = true;
  return DecodeOutcome(&dec, &reply->outcome);
}

/// Claims stream t for every plans[t] on (*conns)[t], then races one
/// replay thread per stream; the server's merge gate must serialize
/// service into simulator order. The caller owns the connections, so it
/// decides whether they are still open at shutdown. Returns each stream's
/// first failure ("" = claimed and every query served).
std::vector<std::string> ServePlans(
    const CloudCachedServer& server,
    const std::vector<std::vector<Query>>& plans,
    std::vector<Socket>* conns) {
  conns->resize(plans.size());
  std::vector<std::string> failures(plans.size());
  for (uint32_t t = 0; t < plans.size(); ++t) {
    HelloReply hello;
    const Status status = DoHello(&(*conns)[t], server.port(), t,
                                  server.config_hash(), &hello);
    if (!status.ok() || !hello.acked) {
      failures[t] = !status.ok() ? status.ToString()
                                 : "Hello refused: " + hello.error.message;
      return failures;
    }
  }
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < plans.size(); ++t) {
    threads.emplace_back([conns, &plans, &failures, t] {
      for (const Query& query : plans[t]) {
        QueryReply reply;
        const Status status = ExchangeQuery((*conns)[t], query, &reply);
        if (!status.ok() || !reply.has_outcome) {
          failures[t] = !status.ok() ? status.ToString()
                                     : reply.error.message;
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return failures;
}

/// Reads one frame that must be a StatsAck; `*closed` reports a clean EOF
/// instead.
Status ReadStatsAck(const Socket& conn, StatsAckMsg* stats, bool* closed) {
  std::vector<uint8_t> payload;
  CLOUDCACHE_RETURN_IF_ERROR(ReadFrame(conn, &payload, closed));
  if (*closed) return Status::OK();
  persist::Decoder dec(payload.data(), payload.size());
  MessageType type = MessageType::kStatsAck;
  CLOUDCACHE_RETURN_IF_ERROR(PeekType(&dec, &type));
  if (type != MessageType::kStatsAck) {
    return Status::Internal("expected a StatsAck");
  }
  return DecodeStatsAck(&dec, stats);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST_F(ServerIntegrationTest, SocketOutcomesMatchExternalDriveReference) {
  const uint64_t kQueries = 400;
  const ExperimentConfig config = ActiveConfig(kQueries, /*tenants=*/1);
  ServerOptions options;
  options.port = 0;
  CloudCachedServer server(catalog_, templates_, &config, options);
  ASSERT_TRUE(server.Start().ok());

  const std::unique_ptr<ExperimentGraph> ref = MakeReference(config);
  // The reference's stream 0 plays the client, as the server's twin does:
  // the external drive serves what it is handed and never draws itself.
  WorkloadGenerator& client_stream = *ref->stream(0);

  Socket conn;
  HelloReply hello;
  ASSERT_TRUE(
      DoHello(&conn, server.port(), 0, server.config_hash(), &hello).ok());
  ASSERT_TRUE(hello.acked);
  EXPECT_EQ(hello.ack.num_queries, kQueries);
  EXPECT_EQ(hello.ack.next_query_id, 0u);

  for (uint64_t i = 0; i < kQueries; ++i) {
    const Query query = client_stream.Next();
    QueryReply reply;
    ASSERT_TRUE(ExchangeQuery(conn, query, &reply).ok()) << "query " << i;
    ASSERT_TRUE(reply.has_outcome) << "query " << i << ": "
                                   << reply.error.message;
    const ServedQuery expected = ref->simulator()->ExternalServe(query);
    EXPECT_EQ(reply.outcome.query_id, query.id);
    EXPECT_EQ(reply.outcome.global_index, i);
    EXPECT_EQ(reply.outcome.served, expected.served);
    EXPECT_EQ(reply.outcome.access,
              static_cast<uint8_t>(expected.spec.access));
    EXPECT_EQ(reply.outcome.throttled, expected.throttled);
    EXPECT_EQ(reply.outcome.response_seconds,
              expected.execution.time_seconds);
    EXPECT_EQ(reply.outcome.payment_micros, expected.payment.micros());
    EXPECT_EQ(reply.outcome.profit_micros, expected.profit.micros());
    EXPECT_EQ(reply.outcome.has_budget_case, expected.has_budget_case);
    EXPECT_EQ(reply.outcome.investments, expected.investments);
    EXPECT_EQ(reply.outcome.evictions, expected.evictions);
  }

  // The configured run is now complete: one more query is refused.
  QueryReply over;
  ASSERT_TRUE(ExchangeQuery(conn, client_stream.Next(), &over).ok());
  ASSERT_FALSE(over.has_outcome);
  EXPECT_EQ(over.error.code, ErrorCode::kRunComplete);

  conn.Close();
  server.RequestShutdown();
  ASSERT_TRUE(server.Wait().ok());
  EXPECT_EQ(server.processed(), kQueries);
  ExpectBitIdenticalMetrics(ref->simulator()->external_metrics(),
                            server.metrics());
}

TEST_F(ServerIntegrationTest, ConcurrentStreamsMatchSerialMergeReference) {
  const uint64_t kQueries = 600;
  const uint32_t kStreams = 3;
  const ExperimentConfig config = ActiveConfig(kQueries, kStreams);
  ServerOptions options;
  options.port = 0;
  CloudCachedServer server(catalog_, templates_, &config, options);
  ASSERT_TRUE(server.Start().ok());

  const std::vector<std::vector<Query>> plans = DrawPlans(config, kQueries);
  std::vector<Socket> conns;
  const std::vector<std::string> failures =
      ServePlans(server, plans, &conns);
  for (uint32_t t = 0; t < kStreams; ++t) {
    EXPECT_EQ(failures[t], "") << "stream " << t;
  }
  for (Socket& conn : conns) conn.Close();
  server.RequestShutdown();
  ASSERT_TRUE(server.Wait().ok());
  EXPECT_EQ(server.processed(), kQueries);

  // Serial reference: merge-drive the identical streams one by one.
  const std::unique_ptr<ExperimentGraph> ref = MakeReference(config);
  {
    std::vector<size_t> cursor(kStreams, 0);
    for (uint64_t i = 0; i < kQueries; ++i) {
      size_t head = kStreams;
      for (size_t u = 0; u < kStreams; ++u) {
        if (cursor[u] >= plans[u].size()) continue;
        if (head == kStreams ||
            plans[u][cursor[u]].arrival_time <
                plans[head][cursor[head]].arrival_time) {
          head = u;
        }
      }
      ASSERT_LT(head, kStreams);
      ref->simulator()->ExternalServe(plans[head][cursor[head]]);
      ++cursor[head];
    }
  }
  ExpectBitIdenticalMetrics(ref->simulator()->external_metrics(),
                            server.metrics());
  ExpectBitIdenticalTenants(ref->simulator()->external_metrics(),
                            server.metrics());
}

TEST_F(ServerIntegrationTest, ShutdownSnapshotResumesClassicDriver) {
  const uint64_t kQueries = 1'000;
  const uint64_t kServe = 500;
  const uint32_t kStreams = 2;
  ExperimentConfig config = ActiveConfig(kQueries, kStreams);
  const std::string snapshot =
      ::testing::TempDir() + "/cloudcached_shutdown.snap";

  {
    ExperimentConfig served = config;
    served.sim.checkpoint.path = snapshot;
    ServerOptions options;
    options.port = 0;
    CloudCachedServer server(catalog_, templates_, &served, options);
    ASSERT_TRUE(server.Start().ok());
    // Both claimed streams stay open through shutdown: the snapshot is
    // written by a draining server whose handlers idle in ReadFrame.
    std::vector<Socket> conns;
    const std::vector<std::string> failures =
        ServePlans(server, DrawPlans(config, kServe), &conns);
    for (uint32_t t = 0; t < kStreams; ++t) {
      ASSERT_EQ(failures[t], "") << "stream " << t;
    }
    EXPECT_EQ(server.processed(), kServe);
    server.RequestShutdown();
    ASSERT_TRUE(server.Wait().ok());
  }

  // The drained snapshot resumes the classic driver, and the completed
  // run is bit-identical to never having been interrupted.
  const SimMetrics uninterrupted =
      RunExperiment(*catalog_, *templates_, config);
  config.sim.checkpoint.path = snapshot;
  config.sim.checkpoint.restore = CheckpointOptions::Restore::kHard;
  Result<SimMetrics> resumed =
      RunExperimentChecked(*catalog_, *templates_, config);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectBitIdenticalMetrics(uninterrupted, *resumed);
  ExpectBitIdenticalTenants(uninterrupted, *resumed);
  std::remove(snapshot.c_str());
}

TEST_F(ServerIntegrationTest, PeriodicSnapshotIsTheSimulatorsSnapshot) {
  // The server's cadence goes through the simulator's CheckpointBoundary:
  // at the same `every`, its last periodic snapshot is the one
  // RunExperimentChecked leaves behind, byte for byte.
  const uint64_t kQueries = 500;
  const uint32_t kStreams = 2;
  ExperimentConfig config = ActiveConfig(kQueries, kStreams);
  config.sim.checkpoint.every = 150;
  const std::string served_path =
      ::testing::TempDir() + "/cloudcached_periodic.snap";
  const std::string simulated_path =
      ::testing::TempDir() + "/cloudcached_periodic_sim.snap";

  ExperimentConfig served = config;
  served.sim.checkpoint.path = served_path;
  ServerOptions options;
  options.port = 0;
  CloudCachedServer server(catalog_, templates_, &served, options);
  ASSERT_TRUE(server.Start().ok());
  std::vector<Socket> conns;
  for (const std::string& failure :
       ServePlans(server, DrawPlans(config, kQueries), &conns)) {
    EXPECT_EQ(failure, "");
  }
  for (Socket& conn : conns) conn.Close();
  server.RequestShutdown();
  ASSERT_TRUE(server.Wait().ok());  // Complete: no shutdown snapshot.

  ExperimentConfig simulated = config;
  simulated.sim.checkpoint.path = simulated_path;
  ASSERT_TRUE(RunExperimentChecked(*catalog_, *templates_, simulated).ok());
  const std::string bytes = ReadFileBytes(simulated_path);
  EXPECT_FALSE(bytes.empty());
  EXPECT_TRUE(ReadFileBytes(served_path) == bytes)
      << "the server's snapshot at " << config.sim.checkpoint.every
      << "-query cadence differs from the simulator's";
  std::remove(served_path.c_str());
  std::remove(simulated_path.c_str());
}

TEST_F(ServerIntegrationTest, RestoreFollowsTheExperimentsPolicy) {
  const std::string foreign =
      ::testing::TempDir() + "/cloudcached_foreign.snap";
  const std::string corrupt =
      ::testing::TempDir() + "/cloudcached_corrupt.snap";
  {
    // A snapshot of a single-stream run...
    ExperimentConfig writer = ActiveConfig(300, /*tenants=*/1);
    writer.sim.checkpoint.every = 100;
    writer.sim.checkpoint.path = foreign;
    ASSERT_TRUE(RunExperimentChecked(*catalog_, *templates_, writer).ok());
    std::ofstream out(corrupt, std::ios::binary | std::ios::trunc);
    out << "not a snapshot";
  }

  // ...refused under kHard by a 2-stream server with the simulator's code.
  ExperimentConfig config = ActiveConfig(300, /*tenants=*/2);
  config.sim.checkpoint.path = foreign;
  config.sim.checkpoint.restore = CheckpointOptions::Restore::kHard;
  const Result<SimMetrics> simulated =
      RunExperimentChecked(*catalog_, *templates_, config);
  ASSERT_FALSE(simulated.ok());
  EXPECT_EQ(simulated.status().code(), StatusCode::kFailedPrecondition);
  {
    ServerOptions options;
    options.port = 0;
    CloudCachedServer server(catalog_, templates_, &config, options);
    const Status started = server.Start();
    ASSERT_FALSE(started.ok());
    EXPECT_EQ(started.code(), simulated.status().code())
        << started.ToString();
  }

  // Under kAuto an unreadable file starts a fresh economy.
  config.sim.checkpoint.path = corrupt;
  config.sim.checkpoint.restore = CheckpointOptions::Restore::kAuto;
  ServerOptions options;
  options.port = 0;
  CloudCachedServer server(catalog_, templates_, &config, options);
  ASSERT_TRUE(server.Start().ok());
  const uint64_t kServe = 200;
  const std::vector<std::vector<Query>> plans = DrawPlans(config, kServe);
  std::vector<Socket> conns;
  for (const std::string& failure : ServePlans(server, plans, &conns)) {
    EXPECT_EQ(failure, "");
  }
  for (Socket& conn : conns) conn.Close();
  server.RequestShutdown();
  ASSERT_TRUE(server.Wait().ok());

  ExperimentConfig fresh = config;
  fresh.sim.checkpoint = CheckpointOptions{};
  const std::unique_ptr<ExperimentGraph> ref = MakeReference(fresh);
  std::vector<WorkloadGenerator*> streams = {ref->stream(0),
                                             ref->stream(1)};
  for (uint64_t i = 0; i < kServe; ++i) {
    ref->simulator()->ExternalServe(streams[MergeHead(streams)]->Next());
  }
  ExpectBitIdenticalMetrics(ref->simulator()->external_metrics(),
                            server.metrics());
  ExpectBitIdenticalTenants(ref->simulator()->external_metrics(),
                            server.metrics());
  std::remove(foreign.c_str());
  std::remove(corrupt.c_str());
}

TEST_F(ServerIntegrationTest, StartRefusesSimulatorOnlyControls) {
  // Crash injection belongs to the simulator and is refused at Start().
  ExperimentConfig crashing = ActiveConfig(100, /*tenants=*/1);
  crashing.sim.checkpoint.path =
      ::testing::TempDir() + "/cloudcached_crash.snap";
  crashing.sim.checkpoint.crash_after = 1;
  ServerOptions options;
  options.port = 0;
  CloudCachedServer server(catalog_, templates_, &crashing, options);
  const Status started = server.Start();
  EXPECT_EQ(started.code(), StatusCode::kInvalidArgument)
      << started.ToString();
}

TEST_F(ServerIntegrationTest, HelloGateRejectsProtocolViolations) {
  const ExperimentConfig config = ActiveConfig(100, /*tenants=*/1);
  ServerOptions options;
  options.port = 0;
  CloudCachedServer server(catalog_, templates_, &config, options);
  ASSERT_TRUE(server.Start().ok());
  const uint64_t hash = server.config_hash();

  {
    Socket conn;
    HelloReply reply;
    ASSERT_TRUE(DoHello(&conn, server.port(), 0, hash, &reply,
                        /*version=*/kProtocolVersion + 7)
                    .ok());
    ASSERT_FALSE(reply.acked);
    EXPECT_EQ(reply.error.code, ErrorCode::kVersionMismatch);
  }
  {
    Socket conn;
    HelloReply reply;
    ASSERT_TRUE(DoHello(&conn, server.port(), 0, hash ^ 1, &reply).ok());
    ASSERT_FALSE(reply.acked);
    EXPECT_EQ(reply.error.code, ErrorCode::kConfigMismatch);
  }
  {
    Socket conn;
    HelloReply reply;
    ASSERT_TRUE(DoHello(&conn, server.port(), 5, hash, &reply).ok());
    ASSERT_FALSE(reply.acked);
    EXPECT_EQ(reply.error.code, ErrorCode::kStreamOutOfRange);
  }
  {
    // First claim holds; a second claim of the same stream is refused,
    // and after the first connection closes the stream is retired — not
    // reclaimable (the merge moved on without it).
    Socket first;
    HelloReply reply;
    ASSERT_TRUE(DoHello(&first, server.port(), 0, hash, &reply).ok());
    ASSERT_TRUE(reply.acked);
    Socket second;
    HelloReply dup;
    ASSERT_TRUE(DoHello(&second, server.port(), 0, hash, &dup).ok());
    ASSERT_FALSE(dup.acked);
    EXPECT_EQ(dup.error.code, ErrorCode::kStreamClaimed);
    first.Close();
    // Wait for the server to observe the close and retire the stream;
    // until its handler finishes cleanup the reply is kStreamClaimed.
    bool retired = false;
    for (int i = 0; i < 100 && !retired; ++i) {
      Socket retry;
      HelloReply again;
      ASSERT_TRUE(DoHello(&retry, server.port(), 0, hash, &again).ok());
      ASSERT_FALSE(again.acked) << "a closed stream was reclaimed";
      if (again.error.code == ErrorCode::kNotAllowed) {
        retired = true;
      } else {
        ASSERT_EQ(again.error.code, ErrorCode::kStreamClaimed);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    EXPECT_TRUE(retired) << "stream 0 never retired after close";
  }
  server.RequestShutdown();
  EXPECT_TRUE(server.Wait().ok());
}

TEST_F(ServerIntegrationTest, DivergedStreamTaintsRunAndRefusesSnapshot) {
  ExperimentConfig config = ActiveConfig(100, /*tenants=*/1);
  config.sim.checkpoint.path =
      ::testing::TempDir() + "/cloudcached_tainted.snap";
  ServerOptions options;
  options.port = 0;
  CloudCachedServer server(catalog_, templates_, &config, options);
  ASSERT_TRUE(server.Start().ok());

  Socket conn;
  HelloReply hello;
  ASSERT_TRUE(
      DoHello(&conn, server.port(), 0, server.config_hash(), &hello).ok());
  ASSERT_TRUE(hello.acked);

  Query tampered = DrawPlans(config, 1)[0][0];
  tampered.id += 1'000'000;  // Not the twin's next query.
  QueryReply reply;
  ASSERT_TRUE(ExchangeQuery(conn, tampered, &reply).ok());
  ASSERT_FALSE(reply.has_outcome);
  EXPECT_EQ(reply.error.code, ErrorCode::kStreamDiverged);

  server.RequestShutdown();
  const Status drained = server.Wait();
  EXPECT_FALSE(drained.ok());
  EXPECT_EQ(drained.code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServerIntegrationTest, ControlConnectionServesStatsAndShutdown) {
  const ExperimentConfig config = ActiveConfig(100, /*tenants=*/1);
  ServerOptions options;
  options.port = 0;
  CloudCachedServer server(catalog_, templates_, &config, options);
  ASSERT_TRUE(server.Start().ok());

  Socket conn;
  HelloReply hello;
  ASSERT_TRUE(DoHello(&conn, server.port(), kControlStream,
                      server.config_hash(), &hello)
                  .ok());
  ASSERT_TRUE(hello.acked);
  EXPECT_EQ(hello.ack.stream_id, kControlStream);

  persist::Encoder enc;
  EncodeStats(&enc);
  ASSERT_TRUE(WriteFrame(conn, enc).ok());
  StatsAckMsg stats;
  bool clean_eof = false;
  ASSERT_TRUE(ReadStatsAck(conn, &stats, &clean_eof).ok());
  ASSERT_FALSE(clean_eof);
  EXPECT_EQ(stats.processed, 0u);
  EXPECT_EQ(stats.num_queries, 100u);
  EXPECT_EQ(stats.active_streams, 0u);

  enc.Clear();
  EncodeShutdown(&enc);
  ASSERT_TRUE(WriteFrame(conn, enc).ok());
  std::vector<uint8_t> payload;
  ASSERT_TRUE(ReadFrame(conn, &payload, &clean_eof).ok());
  ASSERT_FALSE(clean_eof);
  {
    persist::Decoder dec(payload.data(), payload.size());
    MessageType type = MessageType::kShutdownAck;
    ASSERT_TRUE(PeekType(&dec, &type).ok());
    EXPECT_EQ(type, MessageType::kShutdownAck);
    ASSERT_TRUE(DecodeShutdownAck(&dec).ok());
  }
  EXPECT_TRUE(server.ShutdownRequested());
  EXPECT_TRUE(server.Wait().ok());
}

TEST_F(ServerIntegrationTest, SubscriptionWithHugeCadenceSendsOnlyFinalAck) {
  // every = 2^64-1 after queries were served: the next ack is due past
  // the end of the run, so the watcher gets the immediate ack and then
  // the final one — never a flood of repeats.
  const uint64_t kQueries = 40;
  const uint64_t kFirst = 20;
  const ExperimentConfig config = ActiveConfig(kQueries, /*tenants=*/1);
  ServerOptions options;
  options.port = 0;
  CloudCachedServer server(catalog_, templates_, &config, options);
  ASSERT_TRUE(server.Start().ok());

  const std::vector<Query> plan = DrawPlans(config, kQueries)[0];
  Socket stream;
  HelloReply hello;
  ASSERT_TRUE(
      DoHello(&stream, server.port(), 0, server.config_hash(), &hello).ok());
  ASSERT_TRUE(hello.acked);
  for (uint64_t i = 0; i < kFirst; ++i) {
    QueryReply reply;
    ASSERT_TRUE(ExchangeQuery(stream, plan[i], &reply).ok());
    ASSERT_TRUE(reply.has_outcome) << reply.error.message;
  }

  Socket watcher;
  ASSERT_TRUE(DoHello(&watcher, server.port(), kControlStream,
                      server.config_hash(), &hello)
                  .ok());
  ASSERT_TRUE(hello.acked);
  StatsSubscribeMsg sub;
  sub.every = UINT64_MAX;
  persist::Encoder enc;
  EncodeStatsSubscribe(sub, &enc);
  ASSERT_TRUE(WriteFrame(watcher, enc).ok());
  StatsAckMsg stats;
  bool closed = false;
  ASSERT_TRUE(ReadStatsAck(watcher, &stats, &closed).ok());
  ASSERT_FALSE(closed);
  EXPECT_EQ(stats.processed, kFirst);

  for (uint64_t i = kFirst; i < kQueries; ++i) {
    QueryReply reply;
    ASSERT_TRUE(ExchangeQuery(stream, plan[i], &reply).ok());
    ASSERT_TRUE(reply.has_outcome) << reply.error.message;
  }
  ASSERT_TRUE(ReadStatsAck(watcher, &stats, &closed).ok());
  ASSERT_FALSE(closed);
  EXPECT_EQ(stats.processed, kQueries) << "a repeat ack, not the final one";
  ASSERT_TRUE(ReadStatsAck(watcher, &stats, &closed).ok());
  EXPECT_TRUE(closed) << "the subscription outlived its final ack";

  stream.Close();
  server.RequestShutdown();
  EXPECT_TRUE(server.Wait().ok());
}

}  // namespace
}  // namespace cloudcache::server
