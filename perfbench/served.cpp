// The served workload: cloudcached runs as a child process and the
// benchmark drives it closed-loop over the wire protocol — one connection
// and one client thread per stream, one outstanding query per connection —
// then checks the server against an in-process twin of the same config.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "economy.h"
#include "src/server/protocol.h"
#include "src/server/socket_io.h"
#include "stats.h"

namespace perfbench {

namespace {

/// No client read waits longer than this for the server.
constexpr int kReadTimeoutSeconds = 30;
constexpr int64_t kStartTimeoutNs = 60'000'000'000;
constexpr int64_t kExitTimeoutNs = 60'000'000'000;

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// A cloudcached child process. The destructor kills and reaps it if it is
/// still running, so no exit path leaves it behind; the child also gets
/// SIGTERM if the benchmark dies first.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  Status Spawn(const std::string& binary,
               const std::vector<std::string>& args,
               const std::string& log_path) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    const pid_t parent = getpid();
    const pid_t pid = fork();
    if (pid < 0) {
      return Status::IoError("fork: " + std::string(strerror(errno)));
    }
    if (pid == 0) {
      prctl(PR_SET_PDEATHSIG, SIGTERM);
      if (getppid() != parent) _exit(127);
      const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                           0644);
      if (log >= 0) {
        dup2(log, STDOUT_FILENO);
        dup2(log, STDERR_FILENO);
        close(log);
      }
      execv(binary.c_str(), argv.data());
      _exit(127);
    }
    pid_ = pid;
    std::fprintf(stderr, "perfbench: spawned cloudcached pid %d\n",
                 static_cast<int>(pid));
    return Status::OK();
  }

  /// Polls until the server wrote its port file (or exited).
  Result<uint16_t> WaitForPort(const std::string& port_file) {
    const int64_t deadline = NowNs() + kStartTimeoutNs;
    while (NowNs() < deadline) {
      std::ifstream in(port_file);
      std::string text((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      if (!text.empty() && text.back() == '\n') {
        const unsigned long port = std::strtoul(text.c_str(), nullptr, 10);
        if (port == 0 || port > 65535) {
          return Status::Internal("bad port file: " + text);
        }
        return static_cast<uint16_t>(port);
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return Status::Internal("cloudcached exited before listening");
      }
      usleep(100);
    }
    return Status::Internal("cloudcached did not write its port file");
  }

  /// Waits for the server to exit on its own; returns its exit code and
  /// resource usage.
  Status Reap(int* exit_code, struct rusage* usage) {
    const int64_t deadline = NowNs() + kExitTimeoutNs;
    while (NowNs() < deadline) {
      int status = 0;
      const pid_t done = wait4(pid_, &status, WNOHANG, usage);
      if (done == pid_) {
        pid_ = -1;
        *exit_code = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : 128 + WTERMSIG(status);
        return Status::OK();
      }
      usleep(1000);
    }
    Kill();
    return Status::Internal("cloudcached did not exit after Shutdown");
  }

  int pid() const { return pid_; }

  void Kill() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

/// Reads one frame of type `expected` and hands its body to
/// `decode(persist::Decoder*)`; an Error frame becomes a Status.
template <typename Decode>
Status ReadMessage(const server::Socket& conn, std::vector<uint8_t>* payload,
                   server::MessageType expected, Decode&& decode) {
  bool clean_eof = false;
  CLOUDCACHE_RETURN_IF_ERROR(server::ReadFrame(conn, payload, &clean_eof));
  if (clean_eof) return Status::IoError("server closed the connection");
  persist::Decoder dec(payload->data(), payload->size());
  server::MessageType type = expected;
  CLOUDCACHE_RETURN_IF_ERROR(server::PeekType(&dec, &type));
  if (type == server::MessageType::kError) {
    server::ErrorMsg error;
    CLOUDCACHE_RETURN_IF_ERROR(server::DecodeError(&dec, &error));
    return Status::FailedPrecondition(
        std::string("server error ") + server::ErrorCodeName(error.code) +
        ": " + error.message);
  }
  if (type != expected) {
    return Status::Internal(std::string("expected ") +
                            server::MessageTypeName(expected) + ", got " +
                            server::MessageTypeName(type));
  }
  return decode(&dec);
}

/// Connect + Hello + HelloAck on stream `stream`.
Result<server::Socket> Handshake(uint16_t port, uint32_t stream,
                                 uint64_t config_hash) {
  Result<server::Socket> connected = server::ConnectTcp("127.0.0.1", port);
  CLOUDCACHE_RETURN_IF_ERROR(connected.status());
  server::Socket conn = std::move(connected).value();
  struct timeval timeout {};
  timeout.tv_sec = kReadTimeoutSeconds;
  setsockopt(conn.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  server::HelloMsg hello;
  hello.stream_id = stream;
  hello.config_hash = config_hash;
  persist::Encoder enc;
  server::EncodeHello(hello, &enc);
  CLOUDCACHE_RETURN_IF_ERROR(server::WriteFrame(conn, enc));
  std::vector<uint8_t> payload;
  server::HelloAckMsg ack;
  CLOUDCACHE_RETURN_IF_ERROR(ReadMessage(
      conn, &payload, server::MessageType::kHelloAck,
      [&ack](persist::Decoder* dec) {
        return server::DecodeHelloAck(dec, &ack);
      }));
  if (ack.config_hash != config_hash || ack.next_query_id != 0) {
    return Status::Internal("HelloAck does not match a fresh economy");
  }
  return conn;
}

/// Stats, then Shutdown, on one control connection.
Status StatsAndShutdown(uint16_t port, uint64_t config_hash,
                        server::StatsAckMsg* stats) {
  Result<server::Socket> control =
      Handshake(port, server::kControlStream, config_hash);
  CLOUDCACHE_RETURN_IF_ERROR(control.status());
  std::vector<uint8_t> payload;
  persist::Encoder stats_request;
  server::EncodeStats(&stats_request);
  CLOUDCACHE_RETURN_IF_ERROR(
      server::WriteFrame(control.value(), stats_request));
  CLOUDCACHE_RETURN_IF_ERROR(ReadMessage(
      control.value(), &payload, server::MessageType::kStatsAck,
      [stats](persist::Decoder* dec) {
        return server::DecodeStatsAck(dec, stats);
      }));
  persist::Encoder enc;
  server::EncodeShutdown(&enc);
  CLOUDCACHE_RETURN_IF_ERROR(server::WriteFrame(control.value(), enc));
  return ReadMessage(
      control.value(), &payload, server::MessageType::kShutdownAck,
      [](persist::Decoder* dec) { return server::DecodeShutdownAck(dec); });
}

/// One stream's client: its share of the round's queries, closed-loop.
struct StreamClient {
  server::Socket conn;
  WorkloadGenerator* generator = nullptr;
  uint64_t quota = 0;
  uint64_t sent = 0;
  std::vector<server::OutcomeMsg> outcomes;
  std::vector<uint32_t> latency_ns;
  int64_t end_ns = 0;
  Status status = Status::OK();

  void Drive() {
    std::vector<uint8_t> payload;
    outcomes.reserve(quota);
    latency_ns.reserve(quota);
    while (sent < quota) {
      const Query query = generator->Next();
      persist::Encoder enc;
      server::EncodeQuery(query, &enc);
      server::OutcomeMsg outcome;
      const int64_t start = NowNs();
      ++sent;
      status = server::WriteFrame(conn, enc);
      if (status.ok()) {
        status = ReadMessage(conn, &payload, server::MessageType::kOutcome,
                             [&outcome](persist::Decoder* dec) {
                               return server::DecodeOutcome(dec, &outcome);
                             });
      }
      const int64_t end = NowNs();
      if (status.ok() && outcome.query_id != query.id) {
        status = Status::Internal("outcome answers query " +
                                  std::to_string(outcome.query_id) +
                                  ", sent " + std::to_string(query.id));
      }
      if (!status.ok()) break;
      latency_ns.push_back(static_cast<uint32_t>(end - start));
      outcomes.push_back(outcome);
    }
    end_ns = NowNs();
    conn.Close();  // Retires the stream from the server's merge.
  }
};

bool SameOutcome(const server::OutcomeMsg& a, const server::OutcomeMsg& b) {
  return a.query_id == b.query_id && a.global_index == b.global_index &&
         a.served == b.served && a.access == b.access &&
         a.throttled == b.throttled &&
         a.response_seconds == b.response_seconds &&
         a.payment_micros == b.payment_micros &&
         a.profit_micros == b.profit_micros &&
         a.has_budget_case == b.has_budget_case &&
         a.budget_case == b.budget_case && a.investments == b.investments &&
         a.evictions == b.evictions;
}

bool SameStats(const server::StatsAckMsg& a, const server::StatsAckMsg& b) {
  if (a.processed != b.processed || a.served != b.served ||
      a.served_in_cache != b.served_in_cache || a.throttled != b.throttled ||
      a.investments != b.investments || a.evictions != b.evictions ||
      a.credit_micros != b.credit_micros ||
      a.streams.size() != b.streams.size()) {
    return false;
  }
  for (size_t t = 0; t < a.streams.size(); ++t) {
    if (a.streams[t].queries != b.streams[t].queries ||
        a.streams[t].served != b.streams[t].served ||
        a.streams[t].throttled != b.streams[t].throttled) {
      return false;
    }
  }
  return true;
}

/// First difference between a served outcome and the twin's, or "".
std::string OutcomeDiff(const server::OutcomeMsg& got, const ServedQuery& want,
                        uint64_t index) {
  std::ostringstream why;
  if (got.global_index != index) {
    why << "merge index " << got.global_index << " vs " << index;
  } else if (got.served != want.served) {
    why << "served " << got.served << " vs " << want.served;
  } else if (got.response_seconds != want.execution.time_seconds) {
    why << "response " << got.response_seconds << " vs "
        << want.execution.time_seconds;
  } else if (got.payment_micros != want.payment.micros() ||
             got.profit_micros != want.profit.micros()) {
    why << "payment/profit differ";
  } else if (got.investments != want.investments ||
             got.evictions != want.evictions) {
    why << "investments/evictions differ";
  } else if (got.throttled != want.throttled ||
             got.has_budget_case != want.has_budget_case ||
             (want.has_budget_case &&
              got.budget_case != static_cast<uint8_t>(want.budget_case))) {
    why << "throttle/budget case differ";
  }
  return why.str();
}

std::string StatsDiff(const server::StatsAckMsg& stats, const Economy& twin) {
  const SimMetrics& m = twin.sim->external_metrics();
  std::ostringstream why;
  if (stats.processed != twin.sim->external_processed() ||
      stats.served != m.served || stats.served_in_cache != m.served_in_cache ||
      stats.throttled != m.throttled || stats.investments != m.investments ||
      stats.evictions != m.evictions ||
      stats.credit_micros != twin.scheme->credit().micros() ||
      stats.streams.size() != m.tenants.size()) {
    why << "StatsAck processed=" << stats.processed
        << " served=" << stats.served << " in_cache=" << stats.served_in_cache
        << " investments=" << stats.investments
        << " evictions=" << stats.evictions
        << " credit=" << stats.credit_micros << "; twin processed="
        << twin.sim->external_processed() << " served=" << m.served
        << " in_cache=" << m.served_in_cache
        << " investments=" << m.investments << " evictions=" << m.evictions
        << " credit=" << twin.scheme->credit().micros();
    return why.str();
  }
  for (size_t t = 0; t < m.tenants.size(); ++t) {
    const server::StreamStatsMsg& s = stats.streams[t];
    const TenantMetrics& tm = m.tenants[t];
    if (s.queries != tm.queries || s.served != tm.served ||
        s.throttled != tm.throttled) {
      why << "stream " << t << " slice differs";
      return why.str();
    }
  }
  return "";
}

/// One input variant of the served workload: the flags for one stream seed
/// and how a round's merged queries split over the streams.
struct Variant {
  std::vector<std::string> flags;
  std::vector<std::string> server_args;
  uint64_t config_hash = 0;
  /// Each stream's share of a round's merged queries, by the merge rule
  /// (earliest arrival, ties to the lowest stream).
  std::vector<uint64_t> quotas;
};

/// One served round: a fresh cloudcached, `queries` merged queries over
/// one connection per stream, Stats, Shutdown.
struct Round {
  size_t variant = 0;
  double setup_s = 0;
  std::vector<double> handshake_ms;
  std::vector<StreamClient> clients;
  int64_t start_ns = 0, end_ns = 0;
  server::StatsAckMsg stats;
  struct rusage usage {};
  double peak_rss_mb = 0;

  double LoopSeconds() const { return Seconds(end_ns - start_ns); }
};

class ServedRunner {
 public:
  ServedRunner(const RunOptions& options, const WorkloadSpec& spec,
               Report* report)
      : options_(options), report_(report) {
    queries_ = options.small ? spec.small_queries : spec.queries;
    port_file_ = options.work_dir + "/port.txt";
    log_file_ = options.work_dir + "/cloudcached.log";
    for (std::vector<std::string>& flags :
         ReplayFlags(options, spec, queries_)) {
      Variant v;
      v.flags = std::move(flags);
      v.server_args = v.flags;
      v.server_args.push_back("--port=0");
      v.server_args.push_back("--port-file=" + port_file_);
      v.server_args.push_back("--snapshot-path=" + options.work_dir +
                              "/served.snap");
      v.server_args.push_back("--checkpoint-every=" +
                              std::to_string(queries_ / 4));
      variants_.push_back(std::move(v));
    }
  }

  void Run();

 private:
  Status Plan(Variant* variant);
  /// Spawns a server and claims every stream; the set-up time is spawn →
  /// port file → the last HelloAck.
  Status Start(ServerProcess* server, Round* round);
  Status RunRound(Round* round);
  /// Server ≡ simulator: the in-process external drive of the same config
  /// must reproduce every outcome and the final StatsAck. Returns the
  /// twin's loop wall.
  int64_t CheckAgainstTwin(const Round& round, Economy* twin);
  void Fail(const std::string& why) {
    std::ifstream log(log_file_);
    std::string text((std::istreambuf_iterator<char>(log)),
                     std::istreambuf_iterator<char>());
    report_->Fail(why + (text.empty() ? "" : " (server log: " + text + ")"));
  }

  const RunOptions& options_;
  Report* report_;
  uint64_t queries_ = 0;
  std::vector<Variant> variants_;
  std::string port_file_, log_file_;
  uint16_t port_ = 0;
};

Status ServedRunner::Plan(Variant* v) {
  Result<std::unique_ptr<Economy>> planner = BuildEconomy(v->flags, "", false);
  CLOUDCACHE_RETURN_IF_ERROR(planner.status());
  Economy& p = *planner.value();
  v->config_hash = HashExperimentConfig(p.config);
  v->quotas.assign(p.generators.size(), 0);
  const std::vector<uint64_t> caps = Uncapped(p);
  for (uint64_t i = 0; i < queries_; ++i) {
    const int head = MergeHead(p, caps);
    p.generators[static_cast<size_t>(head)]->Next();
    ++v->quotas[static_cast<size_t>(head)];
  }
  return Status::OK();
}

Status ServedRunner::Start(ServerProcess* server, Round* round) {
  const Variant& v = variants_[round->variant];
  std::remove(port_file_.c_str());
  const int64_t start = NowNs();
  CLOUDCACHE_RETURN_IF_ERROR(
      server->Spawn(options_.server_binary, v.server_args, log_file_));
  Result<uint16_t> bound = server->WaitForPort(port_file_);
  CLOUDCACHE_RETURN_IF_ERROR(bound.status());
  port_ = bound.value();
  round->clients.resize(v.quotas.size());
  for (uint32_t t = 0; t < v.quotas.size(); ++t) {
    const int64_t hello = NowNs();
    Result<server::Socket> conn = Handshake(port_, t, v.config_hash);
    CLOUDCACHE_RETURN_IF_ERROR(conn.status());
    round->handshake_ms.push_back(static_cast<double>(NowNs() - hello) /
                                  1e6);
    round->clients[t].conn = std::move(conn).value();
  }
  round->setup_s = Seconds(NowNs() - start);
  return Status::OK();
}

Status ServedRunner::RunRound(Round* round) {
  const Variant& v = variants_[round->variant];
  // Fresh client generators: every round of a variant replays its streams.
  Result<std::unique_ptr<Economy>> client = BuildEconomy(v.flags, "", false);
  CLOUDCACHE_RETURN_IF_ERROR(client.status());
  ServerProcess server;
  CLOUDCACHE_RETURN_IF_ERROR(Start(&server, round));
  for (size_t t = 0; t < v.quotas.size(); ++t) {
    round->clients[t].generator = client.value()->generators[t].get();
    round->clients[t].quota = v.quotas[t];
  }
  std::vector<std::thread> threads;
  round->start_ns = NowNs();
  for (StreamClient& c : round->clients) {
    threads.emplace_back([&c] { c.Drive(); });
  }
  for (std::thread& thread : threads) thread.join();
  round->end_ns = round->start_ns;
  Status status = Status::OK();
  for (size_t t = 0; t < round->clients.size(); ++t) {
    const StreamClient& c = round->clients[t];
    round->end_ns = std::max(round->end_ns, c.end_ns);
    report_->attempted += c.sent;
    report_->failed += c.sent - c.outcomes.size();
    if (!c.status.ok() && status.ok()) {
      status = Status::Internal("stream " + std::to_string(t) + ": " +
                                c.status.ToString());
    }
  }
  round->peak_rss_mb = PeakRssMb(server.pid());
  const Status stopped =
      StatsAndShutdown(port_, v.config_hash, &round->stats);
  int exit_code = 0;
  Status reaped = server.Reap(&exit_code, &round->usage);
  CLOUDCACHE_RETURN_IF_ERROR(status);
  CLOUDCACHE_RETURN_IF_ERROR(stopped);
  CLOUDCACHE_RETURN_IF_ERROR(reaped);
  if (exit_code != 0) {
    return Status::Internal("cloudcached exited with " +
                            std::to_string(exit_code));
  }
  return Status::OK();
}

int64_t ServedRunner::CheckAgainstTwin(const Round& round, Economy* twin) {
  const Variant& v = variants_[round.variant];
  std::vector<size_t> next(v.quotas.size(), 0);
  std::string outcome_error;
  const int64_t wall = DriveBare(
      twin, queries_, v.quotas, nullptr,
      [&](const Query& query, const ServedQuery& served, uint64_t index) {
        const size_t t = query.tenant_id;
        const std::string diff =
            OutcomeDiff(round.clients[t].outcomes[next[t]++], served, index);
        if (!diff.empty() && outcome_error.empty()) {
          outcome_error = "query " + std::to_string(index) + ": " + diff;
        }
      });
  if (!outcome_error.empty()) {
    report_->Fail("server outcome differs from the simulator's at " +
                  outcome_error);
  }
  const std::string stats_error = StatsDiff(round.stats, *twin);
  if (!stats_error.empty()) {
    report_->Fail("server != simulator: " + stats_error);
  }
  return wall;
}

void ServedRunner::Run() {
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(options_.seconds * 1e9);
  for (Variant& v : variants_) {
    const Status planned = Plan(&v);
    if (!planned.ok()) {
      report_->Fail("set-up: " + planned.ToString());
      return;
    }
  }

  // Rounds cycle over the variants until the time is up; every round must
  // reproduce its variant's first round, outcome for outcome.
  std::vector<Round> rounds;
  while (rounds.size() < variants_.size() || NowNs() < deadline) {
    const size_t variant = rounds.size() % variants_.size();
    rounds.emplace_back();
    Round& round = rounds.back();
    round.variant = variant;
    const Status ran = RunRound(&round);
    if (!ran.ok()) {
      Fail("round " + std::to_string(rounds.size() - 1) + ": " +
           ran.ToString());
      report_->failed = report_->attempted;
      return;
    }
    if (rounds.size() <= variants_.size()) continue;
    const Round& first = rounds[variant];
    bool same = SameStats(first.stats, round.stats);
    for (size_t t = 0; same && t < round.clients.size(); ++t) {
      const auto& a = first.clients[t].outcomes;
      const auto& b = round.clients[t].outcomes;
      same = a.size() == b.size() &&
             std::equal(a.begin(), a.end(), b.begin(), SameOutcome);
    }
    if (!same) {
      report_->Fail("round " + std::to_string(rounds.size() - 1) +
                    " diverged from round " + std::to_string(variant));
    }
    for (StreamClient& c : round.clients) {
      c.outcomes = std::vector<server::OutcomeMsg>();  // Checked; free them.
    }
  }

  // Each variant's first round against its in-process twin.
  std::vector<EconCounters> twin_counters;
  std::vector<double> twin_ns;  // Twin wall per query, per variant.
  for (size_t k = 0; k < variants_.size(); ++k) {
    Result<std::unique_ptr<Economy>> twin =
        BuildEconomy(variants_[k].flags, "", false);
    if (!twin.ok()) {
      report_->Fail("twin set-up: " + twin.status().ToString());
      return;
    }
    const int64_t wall = CheckAgainstTwin(rounds[k], twin.value().get());
    twin_ns.push_back(static_cast<double>(wall) /
                      static_cast<double>(queries_));
    twin_counters.push_back(
        EconCounters::Of(twin.value()->sim->external_metrics()));
  }

  // Rounds run closed-loop threads in two processes, so host load moves
  // them as a whole: throughput and latency are medians over the rounds.
  std::vector<double> qps, wall_ns, p50_us, p99_us, rss_mb, setup_s, spread,
      cpu, handshake_ms;
  uint64_t samples = 0;
  for (Round& round : rounds) {
    const double loop_s = round.LoopSeconds();
    qps.push_back(static_cast<double>(queries_) / loop_s);
    wall_ns.push_back(loop_s * 1e9 / static_cast<double>(queries_));
    std::vector<uint32_t> latency;
    double fastest = 0, slowest = 0;
    for (size_t t = 0; t < round.clients.size(); ++t) {
      const StreamClient& c = round.clients[t];
      latency.insert(latency.end(), c.latency_ns.begin(), c.latency_ns.end());
      const double stream_qps =
          static_cast<double>(c.quota) / Seconds(c.end_ns - round.start_ns);
      fastest = t == 0 ? stream_qps : std::max(fastest, stream_qps);
      slowest = t == 0 ? stream_qps : std::min(slowest, stream_qps);
    }
    samples += latency.size();
    p50_us.push_back(Percentile(&latency, 0.50) / 1e3);
    p99_us.push_back(Percentile(&latency, 0.99) / 1e3);
    rss_mb.push_back(round.peak_rss_mb);
    setup_s.push_back(round.setup_s);
    spread.push_back(slowest > 0 ? fastest / slowest : 0);
    const struct rusage& u = round.usage;
    const double cpu_s =
        static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
        static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
    cpu.push_back(cpu_s / loop_s);
    handshake_ms.insert(handshake_ms.end(), round.handshake_ms.begin(),
                        round.handshake_ms.end());
  }

  if (!options_.trace) {
    double cost = 0, response_sum = 0;
    uint64_t served = 0;
    for (const EconCounters& c : twin_counters) {
      cost += c.operating_cost;
      response_sum += c.mean_response * static_cast<double>(c.served);
      served += c.served;
    }
    report_->Add("qps", Median(qps), "queries/s", rounds.size());
    report_->Add("latency_p50_us", Median(p50_us), "us", samples);
    report_->Add("latency_p99_us", Median(p99_us), "us", samples);
    report_->Add("setup_s", Median(setup_s), "s", setup_s.size());
    report_->Add("peak_rss_mb", Median(rss_mb), "MB", rss_mb.size());
    report_->Add("cost_usd_per_kquery",
                 cost * 1000.0 /
                     static_cast<double>(queries_ * variants_.size()),
                 "USD/kquery");
    report_->Add("sim_response_mean_s",
                 served == 0 ? 0.0 : response_sum / static_cast<double>(served),
                 "sim_s", served);
    return;
  }

  // Traced twin of variant 0: per-layer times of the same economy, checked
  // against the untraced twin, with its checkpoints restored and compared.
  const Variant& v = variants_[0];
  const std::string live_snapshot = options_.work_dir + "/twin.snap";
  Result<std::unique_ptr<Economy>> traced_built =
      BuildEconomy(v.flags, live_snapshot, true);
  if (!traced_built.ok()) {
    report_->Fail("traced set-up: " + traced_built.status().ToString());
    return;
  }
  Economy& traced = *traced_built.value();
  LayerTrace trace;
  std::vector<CheckpointRecord> checkpoints;
  const Status drove = DriveTraced(&traced, queries_, v.quotas, queries_ / 4,
                                   live_snapshot, &trace, &checkpoints);
  if (!drove.ok()) report_->Fail("checkpoint: " + drove.ToString());
  report_->attempted += queries_;
  const EconCounters traced_counters =
      EconCounters::Of(traced.sim->external_metrics());
  if (traced_counters != twin_counters[0]) {
    report_->Fail("traced twin diverged from the untraced twin: " +
                  traced_counters.ToString() + " vs " +
                  twin_counters[0].ToString());
  }
  const Status restored = VerifyRestores(v.flags, checkpoints, &trace);
  if (!restored.ok()) report_->Fail("restore: " + restored.ToString());

  AddLayerMetrics(trace,
                  static_cast<double>(trace.loop_ns) /
                          static_cast<double>(queries_) / twin_ns[0] - 1.0,
                  report_);
  double hello_sum = 0;
  for (double ms : handshake_ms) hello_sum += ms;
  report_->Add("server.handshake_ms",
               hello_sum / static_cast<double>(handshake_ms.size()), "ms",
               handshake_ms.size());
  report_->Add("server.stream_qps_spread", Median(spread), "ratio",
               rounds.size());
  report_->Add("server.cpu_util", Median(cpu), "cpu_s/s", rounds.size());
  report_->Add("server.wire_us_per_query",
               (Median(wall_ns) - Median(twin_ns)) / 1e3,
               "us", rounds.size());
}

}  // namespace

void RunServed(const RunOptions& options, const WorkloadSpec& spec,
               Report* report) {
  ServedRunner(options, spec, report).Run();
}

}  // namespace perfbench
