// The scatter-gather front end: an HTTP router process that fans /search
// out to N shard servers through ScatterGather and serves the merged,
// score-consistent ranking.
//
//   GET /search?q=<query>&scheme=<name>&k=<n>[&deadline_ms=<n>][&explain=1]
//       -> 200 JSON: the merged top-k over every shard, bit-identical to a
//          single-process run over the whole corpus when all shards
//          answer. The response always carries the degradation contract:
//          "degraded" (true when any shard did not contribute),
//          "shards_total"/"shards_ok" coverage, and a per-shard "shards"
//          outcome array (outcome, replica port, attempts, hedged,
//          results contributed, latency). &explain=1 adds the stats epoch
//          and the pinned statistics summary.
//       -> 502 Bad Gateway when every shard failed, or when any shard
//          failed under --policy fail (a partial answer is never silently
//          presented as complete).
//   GET /stats   -> 200 JSON cumulative router counters + percentiles.
//   GET /metrics -> 200 Prometheus exposition: router counters, gather
//                   counters (hedges, refreshes, partials), and per-shard
//                   wire counters + ejected-replica gauges.
//   GET /healthz -> 200 while any shard is reachable; reports per-shard
//                   healthy replica counts.
//
// Runs on the same connection layer as server::SearchService
// (server::HttpServer: epoll reactor + handler pool, keep-alive,
// per-request admission cap, Retry-After on 503/504, draining shutdown);
// the request deadline budget is handed to ScatterGather, which spends it
// across stats collection, retries, backoff, and hedges. Shard legs travel
// over ShardClient's pooled keep-alive connections.

#ifndef GRAFT_ROUTER_ROUTER_SERVICE_H_
#define GRAFT_ROUTER_ROUTER_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/status.h"
#include "router/scatter_gather.h"
#include "server/http.h"
#include "server/http_server.h"
#include "server/search_service.h"
#include "server/server_stats.h"

namespace graft::router {

struct RouterOptions {
  // 0 = kernel-assigned ephemeral port (tests; read back via port()).
  uint16_t port = 0;
  // Handler pool workers. 0 = hardware concurrency.
  size_t handler_threads = 0;
  // Admission cap, as in server::ServiceOptions.
  size_t max_inflight = 64;
  // Deadline budget applied when the client sends no deadline_ms; client
  // values are clamped to max_deadline_ms.
  uint64_t default_deadline_ms = 2000;
  uint64_t max_deadline_ms = 30000;
  size_t default_top_k = 10;
  size_t max_top_k = 10000;
  int io_timeout_ms = 5000;
  unsigned retry_after_s = 1;
  // Fan-out behavior (shard client retry discipline, hedging, partial
  // policy, probe cadence).
  ScatterGatherOptions gather;
};

// Cumulative router request counters. Same outcome identity as
// server::ServerStats: responses_ok + client_errors + bad_gateway +
// rejected_overload + deadline_exceeded (+ the malformed subset of 4xx)
// partitions requests_total once drained.
struct RouterStats final : server::RequestCounters {
  std::atomic<uint64_t> responses_ok{0};        // 2xx (incl. degraded 200s)
  std::atomic<uint64_t> client_errors{0};       // 4xx
  std::atomic<uint64_t> bad_gateway{0};         // 502 (shard failures)
  std::atomic<uint64_t> rejected_overload{0};   // 503
  std::atomic<uint64_t> deadline_exceeded{0};   // 504
  // Degraded 200s: a partial merge was served under --policy partial.
  // Subset of responses_ok.
  std::atomic<uint64_t> partial_responses{0};
  server::LatencyHistogram search_latency;
  server::SchemeCounters scheme_counts;

  void RecordResponseCode(int status_code) override;
};

// Every RouterStats counter, in /stats and /metrics order.
inline constexpr common::CounterRow<RouterStats, std::atomic<uint64_t>>
    kRouterCounters[] = {
        {&RouterStats::requests_total, "requests_total",
         "graft_router_requests_total", "Requests received by the router."},
        {&RouterStats::connections_accepted, "connections_accepted",
         "graft_router_connections_accepted_total",
         "TCP connections accepted by the router."},
        {&RouterStats::responses_ok, "responses_ok",
         "graft_router_responses_ok_total",
         "2xx responses (including degraded partials)."},
        {&RouterStats::client_errors, "client_errors",
         "graft_router_client_errors_total", "4xx responses."},
        {&RouterStats::bad_gateway, "bad_gateway",
         "graft_router_bad_gateway_total",
         "502s: shard failures the policy would not degrade."},
        {&RouterStats::rejected_overload, "rejected_overload",
         "graft_router_rejected_overload_total",
         "503s from the admission cap or shutdown."},
        {&RouterStats::deadline_exceeded, "deadline_exceeded",
         "graft_router_deadline_exceeded_total", "504s."},
        {&RouterStats::malformed_requests, "malformed_requests"},
        {&RouterStats::partial_responses, "partial_responses",
         "graft_router_partial_responses_total",
         "Degraded 200s: some shard did not contribute."},
};

class RouterService {
 public:
  // `shard_replicas[i]` lists replica ports of shard i, in global doc-id
  // order (the contiguous corpus split).
  RouterService(std::vector<std::vector<uint16_t>> shard_replicas,
                RouterOptions options);
  ~RouterService();

  RouterService(const RouterService&) = delete;
  RouterService& operator=(const RouterService&) = delete;

  // Binds the listener, starts the connection layer + the replica
  // readmission probe thread.
  Status Start();

  // Stops accepting, closes idle connections, drains admitted requests,
  // joins everything.
  void Shutdown();

  uint16_t port() const { return http_.port(); }
  const RouterStats& stats() const { return stats_; }
  ScatterGather& gather() { return *gather_; }
  const ScatterGather& gather() const { return *gather_; }

  // Routes one parsed request; exposed so tests can drive the handler
  // without sockets (mirrors SearchService::Handle).
  server::Response Handle(const server::HttpRequest& request,
                          uint64_t queued_micros);

 private:
  server::Response HandleSearch(const server::HttpRequest& request,
                                uint64_t queued_micros);
  server::Response HandleStats() const;
  server::Response HandleMetrics() const;
  server::Response HandleHealthz() const;

  const RouterOptions options_;
  std::unique_ptr<ScatterGather> gather_;
  RouterStats stats_;
  std::chrono::steady_clock::time_point started_at_;
  // Declared last: shut down (by the destructor) while everything its
  // handlers use is still alive.
  server::HttpServer http_;
};

}  // namespace graft::router

#endif  // GRAFT_ROUTER_ROUTER_SERVICE_H_
