// graft_router — score-consistent scatter-gather front end over N
// graft_server shards.
//
//   graft_router --shard PORT[,PORT...] [--shard ...] [--port N]
//                [--policy fail|partial] [--max-attempts N]
//                [--hedge-ms N] [--deadline-ms N] [--threads N]
//                [--max-inflight N] [--eject-after N] [--probe-ms N]
//
//   --shard P[,P...]  one shard per flag, in global doc-id order (the
//                     corpus split is contiguous: shard 0's documents come
//                     first). Comma-separated ports are replicas of the
//                     same shard (required, at least one)
//   --port N          listen port on 127.0.0.1 (default 8090; 0 =
//                     ephemeral, printed on startup)
//   --policy P        partial-result policy when shards fail: "partial"
//                     (default) serves a degraded 200 with per-shard
//                     outcomes; "fail" answers 502 instead
//   --max-attempts N  attempts per shard request across replicas
//                     (default 3)
//   --hedge-ms N      send a hedged second request to a shard that has not
//                     answered after N ms (default 0 = disabled)
//   --deadline-ms N   default per-request budget (default 2000)
//   --threads N       handler pool workers (default 0 = hardware
//                     concurrency)
//   --max-inflight N  admission cap; requests beyond it get 503
//                     (default 64)
//   --eject-after N   consecutive failures that eject a replica
//                     (default 3)
//   --probe-ms N      ejected-replica readmission probe cadence
//                     (default 200)
//
// Endpoints: GET /search, /stats, /metrics, /healthz — see
// docs/distributed.md for the stats-epoch protocol and the partial-result
// policy table.
//
// SIGINT/SIGTERM drain and exit 0. GRAFT_FAILPOINTS is honored (the
// router.client.* failpoints inject wire faults into the shard client).

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "core/request.h"
#include "router/router_service.h"
#include "text/structure.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: graft_router --shard PORT[,PORT...] [--shard ...]\n"
      "                    [--port N] [--policy fail|partial]\n"
      "                    [--max-attempts N] [--hedge-ms N]\n"
      "                    [--deadline-ms N] [--threads N]\n"
      "                    [--max-inflight N] [--eject-after N]\n"
      "                    [--probe-ms N]\n");
  return 2;
}

int Fail(const graft::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// "8081,8082" -> replica port list for one shard.
graft::StatusOr<std::vector<uint16_t>> ParseShardSpec(
    const std::string& spec) {
  std::vector<uint16_t> ports;
  size_t begin = 0;
  while (begin <= spec.size()) {
    const size_t comma = spec.find(',', begin);
    const std::string piece =
        spec.substr(begin, comma == std::string::npos ? std::string::npos
                                                      : comma - begin);
    GRAFT_ASSIGN_OR_RETURN(const size_t port,
                           graft::core::ParseCount(piece, "--shard port"));
    if (port == 0 || port > 65535) {
      return graft::Status::InvalidArgument(
          "--shard ports must be in [1, 65535]");
    }
    ports.push_back(static_cast<uint16_t>(port));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return ports;
}

}  // namespace

int main(int argc, char** argv) {
  (void)graft::text::RegisterStructuralPredicates();
  {
    const graft::Status activated =
        graft::common::FailpointRegistry::Global().ActivateFromEnv();
    if (!activated.ok()) return Fail(activated);
  }

  size_t port = 8090;
  std::vector<std::vector<uint16_t>> shard_replicas;
  graft::router::RouterOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--shard") {
      auto ports = ParseShardSpec(value);
      if (!ports.ok()) return Fail(ports.status());
      shard_replicas.push_back(std::move(*ports));
      continue;
    }
    if (arg == "--policy") {
      if (value == "fail") {
        options.gather.partial_policy = graft::router::PartialPolicy::kFail;
      } else if (value == "partial") {
        options.gather.partial_policy =
            graft::router::PartialPolicy::kPartial;
      } else {
        return Fail(graft::Status::InvalidArgument(
            "--policy must be \"fail\" or \"partial\""));
      }
      continue;
    }
    auto parsed = graft::core::ParseCount(value, arg);
    if (!parsed.ok()) return Fail(parsed.status());
    if (arg == "--port") {
      if (*parsed > 65535) {
        return Fail(
            graft::Status::InvalidArgument("--port must be <= 65535"));
      }
      port = *parsed;
    } else if (arg == "--max-attempts") {
      if (*parsed == 0) {
        return Fail(graft::Status::InvalidArgument(
            "--max-attempts must be > 0"));
      }
      options.gather.client.max_attempts = *parsed;
    } else if (arg == "--hedge-ms") {
      options.gather.hedge_ms = *parsed;
    } else if (arg == "--deadline-ms") {
      options.default_deadline_ms = *parsed;
    } else if (arg == "--threads") {
      options.handler_threads = *parsed;
    } else if (arg == "--max-inflight") {
      if (*parsed == 0) {
        return Fail(graft::Status::InvalidArgument(
            "--max-inflight must be > 0"));
      }
      options.max_inflight = *parsed;
    } else if (arg == "--eject-after") {
      if (*parsed == 0) {
        return Fail(graft::Status::InvalidArgument(
            "--eject-after must be > 0"));
      }
      options.gather.client.eject_after = static_cast<uint32_t>(*parsed);
    } else if (arg == "--probe-ms") {
      if (*parsed == 0) {
        return Fail(
            graft::Status::InvalidArgument("--probe-ms must be > 0"));
      }
      options.gather.probe_interval_ms = *parsed;
    } else {
      return Usage();
    }
  }
  if (shard_replicas.empty()) return Usage();
  options.port = static_cast<uint16_t>(port);

  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  if (pthread_sigmask(SIG_BLOCK, &mask, nullptr) != 0) {
    return Fail(graft::Status::Internal("pthread_sigmask failed"));
  }

  graft::router::RouterService service(std::move(shard_replicas), options);
  const graft::Status started = service.Start();
  if (!started.ok()) return Fail(started);
  std::fprintf(
      stderr,
      "graft_router listening on 127.0.0.1:%u (%zu shard(s), policy=%s, "
      "hedge_ms=%llu, max_inflight=%zu)\n",
      service.port(), service.gather().shard_count(),
      options.gather.partial_policy == graft::router::PartialPolicy::kFail
          ? "fail"
          : "partial",
      static_cast<unsigned long long>(options.gather.hedge_ms),
      options.max_inflight);
  std::fflush(stderr);

  int signal_number = 0;
  if (sigwait(&mask, &signal_number) != 0) {
    return Fail(graft::Status::Internal("sigwait failed"));
  }
  std::fprintf(stderr, "received %s; draining...\n",
               strsignal(signal_number));
  service.Shutdown();
  std::fprintf(stderr, "drained; bye\n");
  return 0;
}
