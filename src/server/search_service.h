// The embedded HTTP search service: a long-lived server process around a
// loaded Engine, exposing
//
//   GET /search?q=<query>&scheme=<name>&k=<n>&threads=<n>&segments=<n>
//              [&deadline_ms=<n>]
//       -> 200 JSON: ranked results with scores, timings, and
//          segments_searched; 400/404 on any malformed input.
//       Adding &explain=1 appends an "explain" JSON block: the pinned
//       engine generation, every attempted rewrite with its gate verdict,
//       the full per-operator counters, and the span trace.
//       Router extras: &gstats=<encoded PinnedStats> installs the
//       router-pinned global collection statistics as a per-request
//       overlay (collection-level only, so segment fan-out and block-max
//       pruning still serve), so this shard scores bit-identically to a
//       single-process run over the whole corpus;
//       &expect_gen=<g> answers 409 Conflict when this server's engine
//       generation differs (a reload raced the router's stats exchange),
//       so the router re-collects instead of merging mixed-stat scores.
//   GET /shard/stats?terms=<t1,t2,...> -> 200 JSON: this server's engine
//       generation, corpus doc/word counts, and per-term df/cf for the
//       requested terms — phase 1 of the router's two-phase stats
//       exchange (src/server/pinned_stats.h). Unknown terms report df=0.
//   GET /stats   -> 200 JSON: cumulative counters + latency percentiles
//                   + reload generation / degraded state.
//   GET /metrics -> 200 Prometheus text exposition of the same counters.
//   GET /healthz -> 200 {"status":"ok"|"degraded",...} — used by probes.
//   GET /admin/reload -> swap in a freshly loaded engine (see below).
//
// Concurrency model (DESIGN.md §2c): the service sits behind the /search
// front it shares with the router (server/search_front.h), which parses
// the shared parameters, applies the deadline (measured from admission:
// a request whose deadline elapsed while queued is answered 504 without
// touching the engine, one that exceeds it during execution 504 after the
// fact — the engine is not preemptible mid-query) and records latency,
// over the connection layer server::HttpServer (server/http_server.h):
// epoll reactor, handler pool, per-request admission with a fast 503,
// keep-alive, and a Shutdown() that drains every admitted request
// (SIGINT/SIGTERM in graft_server map to exactly this).
//
// Hot reload (DESIGN.md §2d): the engine is held behind a mutex-guarded
// shared_ptr snapshot (one uncontended pointer copy per request — noise
// next to parsing and execution, and clean under TSan, unlike
// std::atomic<shared_ptr>'s lock-bit protocol).
// Every request pins the generation it started on, so
// Reload() — driven by GET /admin/reload or SIGHUP in graft_server — swaps
// in a freshly loaded EngineBundle under full load with zero dropped
// requests; the old generation is destroyed when its last in-flight
// request finishes. Scores are bit-identical across the swap because the
// index file defines them. A FAILED reload (missing/corrupt/torn file, or
// an injected failpoint) leaves the current generation serving and flips
// the service into a visible "degraded" state on /stats + /healthz — the
// process never dies and never serves wrong data.

#ifndef GRAFT_SERVER_SEARCH_SERVICE_H_
#define GRAFT_SERVER_SEARCH_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/status.h"
#include "core/engine.h"
#include "core/request.h"
#include "ma/match_table.h"
#include "server/http.h"
#include "server/http_server.h"
#include "server/search_front.h"
#include "server/server_stats.h"

namespace graft::server {

// The shared connection fields and /search limits (FrontOptions), plus the
// server's own.
struct ServiceOptions : FrontOptions {
  // Reload source: when non-empty, /admin/reload (and SIGHUP in
  // graft_server) reloads the bundle from this file with the partitioning
  // below. Empty = reload unsupported (e.g. in-memory test engines).
  std::string index_path;
  size_t segments = 1;        // reload partitioning (LoadEngineBundle arg)
  size_t engine_threads = 0;  // reload engine pool workers
  // Map the index (v5) instead of materializing it on load and reload.
  // The service keeps one BlockCache of block_cache_bytes across all
  // reload generations (old generations are erased from it on swap).
  bool mmap_index = false;
  size_t block_cache_bytes = size_t{64} << 20;
  // Slow-query log: a /search whose total latency (queued + handled)
  // reaches this many milliseconds is logged to stderr with its query,
  // scheme, and measured operator counters, and counted in
  // stats.slow_queries / graft_slow_queries_total. 0 disables the log.
  uint64_t slow_query_ms = 0;
  // Test hook: artificial delay (before the engine call) per /search, so
  // overload and deadline paths are deterministic to test. 0 in
  // production.
  uint64_t test_search_delay_ms = 0;
};

class SearchService {
 public:
  // Non-owning: `engine` must outlive the service. Reload is unsupported
  // in this mode regardless of options.index_path.
  SearchService(const core::Engine* engine, ServiceOptions options);

  // Owning: the service keeps the bundle (and every predecessor still
  // pinned by in-flight requests) alive via shared_ptr. Reload swaps it
  // for a fresh LoadEngineBundle(options.index_path, ...) product.
  SearchService(std::shared_ptr<const core::EngineBundle> bundle,
                ServiceOptions options);

  ~SearchService();

  SearchService(const SearchService&) = delete;
  SearchService& operator=(const SearchService&) = delete;

  // Binds the listener and starts the connection layer.
  Status Start();

  // Stops accepting, closes idle connections, drains all admitted
  // requests, joins every thread. Idempotent; called by the destructor if
  // still running.
  void Shutdown();

  // Loads a new EngineBundle from options.index_path and atomically swaps
  // it in (generation + 1). On failure the current generation keeps
  // serving, the degraded flag is raised, and the error is returned (and
  // surfaced on /stats). Thread-safe; concurrent reloads serialize. The
  // replaced generation is freed outside every service lock: here, after
  // the swap, or by the last in-flight request that still pins it.
  Status Reload();

  // Valid after Start(); the actual bound port.
  uint16_t port() const { return front_.port(); }

  const ServerStats& stats() const { return stats_; }

  // Monotonic engine generation: 1 after construction, +1 per successful
  // reload.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  // True while the most recent reload attempt failed (old generation still
  // serving).
  bool degraded() const { return degraded_.load(std::memory_order_acquire); }

  // Routes one parsed request to a response through the shared front.
  // Pure apart from stats recording; exposed so tests can drive the
  // handler without sockets. `queued_micros` is how long the request
  // waited for a handler; it counts against the request's deadline.
  Response Handle(const HttpRequest& request, uint64_t queued_micros) {
    return front_.Handle(request, queued_micros);
  }

  // The exact `"results":[...]` JSON fragment for a result list — scores
  // rendered with %.17g round-trip precision. Tests compare this against
  // direct Engine calls byte-for-byte.
  static std::string FormatResultsFragment(
      const std::vector<ma::ScoredDoc>& results);

  // Appends the full per-operator counter object of ?explain=1's "exec"
  // key. (Every /search body's own "exec" block keeps its original three
  // fields.)
  static void AppendFullExecJson(std::string* out,
                                 const exec::ExecStats& stats);

 private:
  // The front over this service's handlers (constructed in place).
  SearchFront MakeFront();
  Response HandleSearch(const SearchCall& call);
  // Every path but /search; nullopt for an unknown one.
  std::optional<Response> HandleEndpoint(const HttpRequest& request);
  Response HandleShardStats(const HttpRequest& request);
  Response HandleStats() const;
  Response HandleMetrics() const;
  Response HandleHealthz() const;
  Response HandleReload();

  // The engine generation a request executes against: pinned once at the
  // top of the handler so a mid-request reload cannot mix generations.
  std::shared_ptr<const core::Engine> SnapshotEngine() const {
    std::lock_guard<std::mutex> lock(engine_mu_);
    return engine_;
  }

  const ServiceOptions options_;

  // Current engine, possibly aliasing into owned (reloadable) bundle
  // storage; the shared_ptr's control block keeps the whole bundle alive
  // for as long as any request still holds the snapshot. engine_mu_ covers
  // only the pointer copy/swap, never a load or a search.
  mutable std::mutex engine_mu_;
  std::shared_ptr<const core::Engine> engine_;

  mutable std::mutex reload_mu_;    // serializes Reload(); guards the below
  std::string last_reload_error_;   // empty unless degraded
  const bool reloadable_;           // owning ctor + non-empty index_path

  // Shared decoded-block cache for mmap_index mode: one cache across all
  // reload generations (created lazily on the first mapped load), so the
  // decoded working set stays bounded through hot reloads. Also the /stats
  // + /metrics source for cache counters.
  std::shared_ptr<index::BlockCache> block_cache_;

  std::atomic<uint64_t> generation_{1};
  std::atomic<bool> degraded_{false};

  ServerStats stats_;
  // Declared last: shut down (by the destructor) while everything its
  // handlers use is still alive.
  SearchFront front_;
};

}  // namespace graft::server

#endif  // GRAFT_SERVER_SEARCH_SERVICE_H_
