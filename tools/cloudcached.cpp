// cloudcached — the cache economy served over TCP (docs/server.md).
//
// Hosts the exact object graph cloudcache_sim drives — same flags, same
// config hash — behind the length-prefixed wire protocol, with graceful
// shutdown into a snapshot that `cloudcache_sim --restore` accepts.
//
// Exit codes: 0 = clean shutdown (snapshot written when configured);
// 1 = runtime error (bind failure, hard-restore failure, snapshot
// failure, tainted run); 2 = flag errors.
//
// Examples:
//   cloudcached --port=4909 --queries=100000 --snapshot-path=econ.snap
//   cloudcached --port=0 --port-file=port.txt --tenants=4
//   cloudcached --snapshot-path=econ.snap --restore   (resume a drain)

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/server/server.h"
#include "src/util/status.h"
#include "tools/experiment_flags.h"

namespace {

using namespace cloudcache;
using tools::ExperimentFlags;
using tools::FlagParse;
using tools::FlagValue;

std::sig_atomic_t g_signal = 0;

void OnSignal(int) { g_signal = 1; }

struct Args {
  ExperimentFlags exp;  // Shared experiment surface (config-hash parity).
  std::string host = "127.0.0.1";
  uint16_t port = server::kDefaultPort;  // 0 = ephemeral.
  std::string port_file;  // Write the bound port here after startup.
  uint32_t workers = 0;   // 0 = streams + headroom.
  CheckpointOptions checkpoint;  // Snapshot file, cadence, restore.
  uint64_t log_every = 0;
  int32_t metrics_port = -1;  // -1 = off, 0 = ephemeral.
  std::string metrics_port_file;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [flags]\n"
      "%s"
      "  --host=ADDR           numeric IPv4 listen address (127.0.0.1)\n"
      "  --port=N              TCP port; 0 binds an ephemeral port (4909)\n"
      "  --port-file=PATH      write the bound port here once listening\n"
      "  --workers=N           handler threads (0 = streams + headroom)\n"
      "  --snapshot-path=P     snapshot file for shutdown + checkpoints\n"
      "  --checkpoint-every=N  also snapshot every N served queries\n"
      "  --restore[=auto]      resume from the snapshot; bare --restore\n"
      "                        fails loudly on a missing/corrupt/mismatched\n"
      "                        snapshot, =auto falls back to a fresh economy\n"
      "  --log-every=N         progress line to stderr every N queries\n"
      "  --metrics-port=N      serve Prometheus text on GET /metrics; 0\n"
      "                        binds an ephemeral port (default: off)\n"
      "  --metrics-port-file=P write the bound metrics port here\n",
      argv0, tools::ExperimentFlagsUsage());
}

std::optional<Args> Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const FlagParse shared = tools::ParseExperimentFlag(argv[i], &args.exp);
    if (shared == FlagParse::kConsumed) continue;
    if (shared == FlagParse::kError) return std::nullopt;
    const FlagParse restore =
        tools::ParseRestoreFlag(argv[i], &args.checkpoint.restore);
    if (restore == FlagParse::kConsumed) continue;
    if (restore == FlagParse::kError) return std::nullopt;
    uint16_t metrics_port = 0;
    const FlagParse metrics_flag =
        tools::ParseNumberFlag(argv[i], "--metrics-port", &metrics_port);
    if (metrics_flag == FlagParse::kConsumed) args.metrics_port = metrics_port;
    const FlagParse numeric = tools::FirstMatch(
        {metrics_flag, tools::ParseNumberFlag(argv[i], "--port", &args.port),
         tools::ParseNumberFlag(argv[i], "--workers", &args.workers),
         tools::ParseNumberFlag(argv[i], "--checkpoint-every",
                                &args.checkpoint.every),
         tools::ParseNumberFlag(argv[i], "--log-every", &args.log_every)});
    if (numeric == FlagParse::kConsumed) continue;
    if (numeric == FlagParse::kError) return std::nullopt;
    std::string v;
    if (FlagValue(argv[i], "--host", &v)) args.host = v;
    else if (FlagValue(argv[i], "--port-file", &v)) args.port_file = v;
    else if (FlagValue(argv[i], "--snapshot-path", &v))
      args.checkpoint.path = v;
    else if (FlagValue(argv[i], "--metrics-port-file", &v))
      args.metrics_port_file = v;
    else {
      Usage(argv[0]);
      return std::nullopt;
    }
  }
  return args;
}

Status ValidateArgs(const Args& args) {
  CLOUDCACHE_RETURN_IF_ERROR(tools::ValidateExperimentFlags(args.exp));
  if ((args.checkpoint.every > 0 ||
       args.checkpoint.restore != CheckpointOptions::Restore::kNone) &&
      args.checkpoint.path.empty()) {
    return Status::InvalidArgument(
        "--checkpoint-every/--restore need a snapshot file; add "
        "--snapshot-path=PATH");
  }
  if (!args.metrics_port_file.empty() && args.metrics_port < 0) {
    return Status::InvalidArgument(
        "--metrics-port-file needs --metrics-port");
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = Parse(argc, argv);
  if (!parsed) return 2;
  const Args& args = *parsed;
  const Status valid = ValidateArgs(args);
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 2;
  }

  Catalog catalog;
  std::vector<QueryTemplate> templates;
  const Status made =
      tools::MakeExperimentCatalog(args.exp, &catalog, &templates);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.ToString().c_str());
    return 2;
  }
  Result<ExperimentConfig> built =
      tools::MakeExperimentFlagsConfig(args.exp);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return 2;
  }
  ExperimentConfig config = std::move(built).value();
  config.sim.checkpoint = args.checkpoint;  // Persistence is the run's.

  server::ServerOptions options;
  options.host = args.host;
  options.port = args.port;
  options.workers = args.workers;
  options.log_every = args.log_every;
  options.metrics_port = args.metrics_port;

  server::CloudCachedServer server(&catalog, &templates, &config, options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cloudcached: %s\n", started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "cloudcached: serving %s:%u, %u stream(s), config hash "
               "%016llx\n",
               args.host.c_str(), server.port(), args.exp.tenants,
               static_cast<unsigned long long>(server.config_hash()));
  if (args.metrics_port >= 0) {
    std::fprintf(stderr, "cloudcached: metrics on http://%s:%u/metrics\n",
                 args.host.c_str(), server.metrics_port());
  }
  if (!args.metrics_port_file.empty()) {
    std::FILE* f = std::fopen(args.metrics_port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cloudcached: cannot write %s\n",
                   args.metrics_port_file.c_str());
      server.RequestShutdown();
      const Status ignored = server.Wait();
      (void)ignored;
      return 1;
    }
    std::fprintf(f, "%u\n", server.metrics_port());
    std::fclose(f);
  }
  if (!args.port_file.empty()) {
    std::FILE* f = std::fopen(args.port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cloudcached: cannot write %s\n",
                   args.port_file.c_str());
      server.RequestShutdown();
      const Status ignored = server.Wait();
      (void)ignored;
      return 1;
    }
    std::fprintf(f, "%u\n", server.port());
    std::fclose(f);
  }

  // SIGINT/SIGTERM begin the graceful drain; a client Shutdown message
  // does the same through RequestShutdown.
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnSignal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);

  while (!server.ShutdownRequested() && g_signal == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.RequestShutdown();
  const Status finished = server.Wait();
  if (!finished.ok()) {
    std::fprintf(stderr, "cloudcached: %s\n", finished.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "cloudcached: drained after %llu served; shutdown clean\n",
               static_cast<unsigned long long>(server.processed()));
  return 0;
}
