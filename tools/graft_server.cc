// graft_server — serve a GRAFT index over HTTP.
//
//   graft_server --index FILE [--port N] [--segments N] [--threads N]
//                [--max-inflight N] [--deadline-ms N] [--default-k N]
//                [--slow-query-ms N] [--trace-ring N]
//                [--mmap-index] [--block-cache-mb N]
//
//   --index FILE      index built with `graft_cli index` (required)
//   --port N          listen port on 127.0.0.1 (default 8080; 0 = ephemeral,
//                     printed on startup)
//   --segments N      partition the index into N segments at load time and
//                     execute queries segment-parallel (default 1)
//   --threads N       handler pool workers (default 0 = hardware concurrency)
//   --max-inflight N  admission cap; requests beyond it get 503
//                     (default 64)
//   --deadline-ms N   default per-request deadline (default 2000)
//   --default-k N     k when the client sends none (default 10)
//   --slow-query-ms N log any /search slower than N ms to stderr with its
//                     measured operator counters (default 0 = disabled)
//   --trace-ring N    keep the last N query traces in the in-process ring
//                     (common::Tracer) for post-hoc debugging (default 0 =
//                     tracing gated off, one relaxed atomic per query)
//   --mmap-index      map a v5 index instead of materializing it: postings
//                     stay on disk and decode on demand through a metered
//                     block cache (reported on /stats + /metrics). v3/v4
//                     files fall back to the eager load. Hot reloads share
//                     one cache across generations.
//   --block-cache-mb N  decoded-block cache capacity for --mmap-index,
//                     in MiB (default 64)
//
// Endpoints:
//   GET /search?q=...&scheme=MeanSum&k=10[&threads=N][&segments=N]
//              [&explain=1]
//   GET /stats
//   GET /metrics      Prometheus text exposition
//   GET /healthz
//   GET /admin/reload
//
// SIGHUP triggers a hot reload: the index file is reloaded and swapped in
// under load (generation + 1); if the reload fails the old index keeps
// serving and /stats reports degraded=true. SIGINT/SIGTERM trigger a
// draining shutdown: the listener closes, every admitted request is
// answered, then the process exits 0.
//
// GRAFT_FAILPOINTS (environment) accepts ';'-separated failpoint specs
// ("name=action[@N]") for fault-injection testing; see
// src/common/failpoint.h. Ignored in builds configured with
// -DGRAFT_FAILPOINTS=OFF.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "common/failpoint.h"
#include "common/trace.h"
#include "core/request.h"
#include "server/search_service.h"
#include "text/structure.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: graft_server --index FILE [--port N] [--segments N]\n"
      "                    [--threads N] [--max-inflight N]\n"
      "                    [--deadline-ms N] [--default-k N]\n"
      "                    [--slow-query-ms N] [--trace-ring N]\n"
      "                    [--mmap-index] [--block-cache-mb N]\n");
  return 2;
}

int Fail(const graft::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  (void)graft::text::RegisterStructuralPredicates();
  {
    // A bad spec is a startup error, not something to discover mid-chaos.
    // Runs in failpoints-off builds too: named sites are then NotFound,
    // never silently inert.
    const graft::Status activated =
        graft::common::FailpointRegistry::Global().ActivateFromEnv();
    if (!activated.ok()) return Fail(activated);
  }

  std::string index_path;
  size_t port = 8080;
  size_t segments = 1;
  size_t threads = 0;
  graft::server::ServiceOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--mmap-index") {  // value-less flag
      options.mmap_index = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--index") {
      index_path = value;
      continue;
    }
    auto parsed = graft::core::ParseCount(value, arg);
    if (!parsed.ok()) return Fail(parsed.status());
    if (arg == "--port") {
      if (*parsed > 65535) return Fail(graft::Status::InvalidArgument(
          "--port must be <= 65535"));
      port = *parsed;
    } else if (arg == "--segments") {
      segments = *parsed;
    } else if (arg == "--threads") {
      threads = *parsed;
    } else if (arg == "--max-inflight") {
      if (*parsed == 0) return Fail(graft::Status::InvalidArgument(
          "--max-inflight must be > 0"));
      options.max_inflight = *parsed;
    } else if (arg == "--deadline-ms") {
      options.default_deadline_ms = *parsed;
    } else if (arg == "--default-k") {
      options.default_top_k = *parsed;
    } else if (arg == "--slow-query-ms") {
      options.slow_query_ms = *parsed;
    } else if (arg == "--block-cache-mb") {
      if (*parsed == 0 || *parsed > (size_t{1} << 24)) {
        return Fail(graft::Status::InvalidArgument(
            "--block-cache-mb must be in [1, 2^24]"));
      }
      options.block_cache_bytes = *parsed << 20;
    } else if (arg == "--trace-ring") {
      if (*parsed > 0) {
        graft::common::Tracer::Global().Enable(*parsed);
      }
    } else {
      return Usage();
    }
  }
  if (index_path.empty()) return Usage();
  options.port = static_cast<uint16_t>(port);
  options.handler_threads = threads;
  // Wire up hot reload: /admin/reload and SIGHUP re-run LoadEngineBundle
  // with exactly the startup partitioning.
  options.index_path = index_path;
  options.segments = segments;
  options.engine_threads = threads;

  // Block the handled signals before any thread spawns, so every service
  // thread inherits the mask and delivery goes only to sigwait below.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  sigaddset(&mask, SIGHUP);
  if (pthread_sigmask(SIG_BLOCK, &mask, nullptr) != 0) {
    return Fail(graft::Status::Internal("pthread_sigmask failed"));
  }

  graft::core::BundleLoadOptions load;
  load.mmap_index = options.mmap_index;
  load.block_cache_bytes = options.block_cache_bytes;
  auto loaded =
      graft::core::LoadEngineBundle(index_path, segments, threads, load);
  if (!loaded.ok()) return Fail(loaded.status());
  auto bundle = std::make_shared<const graft::core::EngineBundle>(
      std::move(loaded).value());
  std::fprintf(stderr, "loaded %s: %llu docs, %zu terms, %zu segment(s)%s\n",
               index_path.c_str(),
               static_cast<unsigned long long>(bundle->index->doc_count()),
               bundle->index->term_count(),
               bundle->engine->segmented() == nullptr
                   ? size_t{1}
                   : bundle->engine->segmented()->segment_count(),
               bundle->index->is_packed() ? ", mmap (packed postings)" : "");

  graft::server::SearchService service(std::move(bundle), options);
  const graft::Status started = service.Start();
  if (!started.ok()) return Fail(started);
  std::fprintf(stderr,
               "graft_server listening on 127.0.0.1:%u "
               "(max_inflight=%zu, deadline=%llums)\n",
               service.port(), options.max_inflight,
               static_cast<unsigned long long>(options.default_deadline_ms));
  std::fflush(stderr);

  for (;;) {
    int signal_number = 0;
    if (sigwait(&mask, &signal_number) != 0) {
      return Fail(graft::Status::Internal("sigwait failed"));
    }
    if (signal_number == SIGHUP) {
      std::fprintf(stderr, "received SIGHUP; reloading %s...\n",
                   index_path.c_str());
      const graft::Status reloaded = service.Reload();
      if (reloaded.ok()) {
        std::fprintf(stderr, "reload ok; now serving generation %llu\n",
                     static_cast<unsigned long long>(service.generation()));
      } else {
        std::fprintf(stderr,
                     "reload FAILED (%s); still serving generation %llu "
                     "(degraded)\n",
                     reloaded.ToString().c_str(),
                     static_cast<unsigned long long>(service.generation()));
      }
      std::fflush(stderr);
      continue;
    }
    std::fprintf(stderr, "received %s; draining...\n",
                 strsignal(signal_number));
    break;
  }
  service.Shutdown();
  std::fprintf(stderr, "drained; bye\n");
  return 0;
}
