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
// Runs behind the same /search front as server::SearchService
// (server/search_front.h: shared parameters, limits, deadline, latency,
// and the connection layer). The router adds its k >= 1 rule and checks
// the query and scheme itself; what is left of the request deadline is
// handed to ScatterGather, which spends it across stats collection,
// retries, backoff, and hedges. Shard legs travel over ShardClient's
// pooled keep-alive connections.

#ifndef GRAFT_ROUTER_ROUTER_SERVICE_H_
#define GRAFT_ROUTER_ROUTER_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/status.h"
#include "router/scatter_gather.h"
#include "server/http.h"
#include "server/http_server.h"
#include "server/search_front.h"
#include "server/search_service.h"
#include "server/server_stats.h"

namespace graft::router {

// The shared connection fields and /search limits (server::FrontOptions;
// the deadline is the budget handed to ScatterGather), plus the router's
// own.
struct RouterOptions : server::FrontOptions {
  // Fan-out behavior (shard client retry discipline, hedging, partial
  // policy, probe cadence).
  ScatterGatherOptions gather;
};

// Cumulative router request counters: the shared ones, with the same
// outcome identity as the server's (server_errors is rendered as
// bad_gateway: the router's 5xx are the 502s of failed shards), plus
// degraded answers.
struct RouterStats final : server::RequestCounters {
  // Degraded 200s: a partial merge was served under --policy partial.
  // Subset of responses_ok.
  std::atomic<uint64_t> partial_responses{0};
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
        {&RouterStats::server_errors, "bad_gateway",
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

  uint16_t port() const { return front_.port(); }
  const RouterStats& stats() const { return stats_; }
  ScatterGather& gather() { return *gather_; }
  const ScatterGather& gather() const { return *gather_; }

  // Routes one parsed request through the shared front; exposed so tests
  // can drive the handler without sockets (mirrors SearchService::Handle).
  server::Response Handle(const server::HttpRequest& request,
                          uint64_t queued_micros) {
    return front_.Handle(request, queued_micros);
  }

 private:
  server::Response HandleSearch(const server::SearchCall& call);
  // /stats, /metrics and /healthz; nullopt for any other path.
  std::optional<server::Response> HandleEndpoint(
      const server::HttpRequest& request) const;
  server::Response HandleStats() const;
  server::Response HandleMetrics() const;
  server::Response HandleHealthz() const;

  const RouterOptions options_;
  std::unique_ptr<ScatterGather> gather_;
  RouterStats stats_;
  // Declared last: shut down (by the destructor) while everything its
  // handlers use is still alive.
  server::SearchFront front_;
};

}  // namespace graft::router

#endif  // GRAFT_ROUTER_ROUTER_SERVICE_H_
