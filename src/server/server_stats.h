// Cumulative request statistics for the search service.
//
// Everything on the hot path is a relaxed atomic: handlers on different
// pool workers record concurrently with readers rendering /stats, and no
// counter needs to be consistent with any other — /stats is an
// observability snapshot, not an invariant. Latencies go into a
// log-bucketed histogram (one power-of-two bucket per microsecond bit
// width), whose percentile read-out interpolates within the winning
// bucket; error vs. true value is bounded by the bucket width (< 2x),
// which is plenty for p50/p95/p99 dashboards.
//
// Per-scheme counts use a fixed slot table keyed by the global scheme
// registry (schemes register at startup, before the server accepts
// traffic), so recording a scheme hit is one relaxed fetch_add, no lock.

#ifndef GRAFT_SERVER_SERVER_STATS_H_
#define GRAFT_SERVER_SERVER_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/counters.h"

namespace graft::server {

// Log-bucketed latency histogram over microseconds. Thread-safe.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 40;  // covers up to ~2^39 us (~6 days)

  void Record(uint64_t micros);

  // Returns the approximate q-quantile (q in [0,1]) in microseconds, by
  // linear interpolation inside the bucket containing the target rank.
  // 0 when empty.
  double PercentileMicros(double q) const;

  uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  uint64_t sum_micros() const {
    return sum_micros_.load(std::memory_order_relaxed);
  }

  // Renders {"count":n,"p50_ms":...,"p95_ms":...,"p99_ms":...,"max_ms":...}
  std::string ToJson() const;

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_micros_{0};
  std::atomic<uint64_t> max_micros_{0};
};

// One slot per registered scoring scheme plus a catch-all.
class SchemeCounters {
 public:
  SchemeCounters();

  void Record(std::string_view scheme_name);

  // Renders {"MeanSum":12,...} (only non-zero slots).
  std::string ToJson() const;

  // Non-zero (name, count) slots — the /metrics label values.
  std::vector<std::pair<std::string, uint64_t>> NonZero() const;

 private:
  std::vector<std::string> names_;
  std::vector<std::atomic<uint64_t>> counts_;
};

// The counters every HTTP service keeps. The connection layer
// (server/http_server.h) counts each request it admits or rejects once in
// requests_total and once, by status code, in RecordResponseCode — before
// its response is written, so a client that has read a response (and then
// /stats) always finds it counted. The /search front
// (server/search_front.h) records every /search response's latency.
//
// The outcome counters are disjoint: responses_ok + client_errors +
// server_errors + rejected_overload + deadline_exceeded == requests_total
// (once all in-flight requests have drained).
struct RequestCounters {
  std::atomic<uint64_t> connections_accepted{0};  // TCP connections
  std::atomic<uint64_t> requests_total{0};        // requests received
  std::atomic<uint64_t> malformed_requests{0};    // unparsable HTTP (4xx)
  std::atomic<uint64_t> responses_ok{0};          // 2xx
  std::atomic<uint64_t> client_errors{0};         // 4xx
  // 5xx except 503/504 (and any non-2xx/4xx code); the router renders it
  // as bad_gateway, since its 5xx are the 502s of failed shards.
  std::atomic<uint64_t> server_errors{0};
  std::atomic<uint64_t> rejected_overload{0};     // 503 (admission/shutdown)
  std::atomic<uint64_t> deadline_exceeded{0};     // 504
  LatencyHistogram search_latency;                // /search only, all codes
  SchemeCounters scheme_counts;

  // Classifies a response code into exactly one outcome counter:
  // 2xx -> responses_ok, 4xx -> client_errors, 503 -> rejected_overload,
  // 504 -> deadline_exceeded, any other code -> server_errors.
  void RecordResponseCode(int status_code);
};

// SearchService's counters: the shared ones plus reload, router-fence and
// pruning outcomes.
struct ServerStats final : RequestCounters {
  // Hot-reload outcomes (/admin/reload + SIGHUP); not part of the
  // request-outcome identity above.
  std::atomic<uint64_t> reloads_ok{0};
  std::atomic<uint64_t> reloads_failed{0};
  // /search responses whose total latency crossed the configured
  // slow-query threshold (0 while the slow-query log is disabled).
  std::atomic<uint64_t> slow_queries{0};
  // 409s answered to a router whose expect_gen no longer matches this
  // server's engine generation (a reload landed between the router's stats
  // collection and this search). Subset of client_errors — the outcome
  // identity above is untouched; this counter exists so a dashboard can
  // tell "router racing reloads" apart from plain bad requests.
  std::atomic<uint64_t> generation_conflicts{0};
  // /shard/stats requests served (phase 1 of the router's two-phase
  // stats exchange).
  std::atomic<uint64_t> shard_stats_requests{0};
  // Block-max top-k pruning on the search path: searches whose plan ran
  // the pruned operator, and the cumulative posting blocks it skipped.
  // Both stay 0 when pruning does not run (an unlicensed scheme or query
  // shape, an overlay overriding a per-document statistic, or a request
  // that disables it) — a dashboard on these shows whether pruning is
  // earning rent.
  std::atomic<uint64_t> pruned_searches{0};
  std::atomic<uint64_t> topk_blocks_skipped{0};
  // Rewrite-rule fire counts, slot-indexed by the declarative catalog
  // (core/rewrite_rules.h registry order); exported as
  // graft_rewrite_rule_fired_total{rule="<id>"}. Sized to match
  // exec::ExecStats::kMaxRules (static_assert in the .cc).
  static constexpr size_t kMaxRules = 16;
  std::atomic<uint64_t> rule_fired[kMaxRules] = {};

  // Full /stats JSON document.
  std::string ToJson() const;

  // Prometheus text exposition (version 0.0.4) of every counter above:
  // graft_-prefixed counters, a summary for search latency (quantile
  // labels + _sum/_count), and one graft_search_by_scheme_total sample
  // per scheme label. The /metrics handler appends its own gauges
  // (in-flight, generation, uptime) after this.
  std::string ToPrometheus() const;
};

// Every ServerStats counter, in the order ToJson and ToPrometheus render
// them (both loop over this table).
inline constexpr common::CounterRow<ServerStats, std::atomic<uint64_t>>
    kServerCounters[] = {
        {&ServerStats::requests_total, "requests_total",
         "graft_requests_total", "HTTP requests received."},
        {&ServerStats::connections_accepted, "connections_accepted",
         "graft_connections_accepted_total",
         "TCP connections accepted (requests_total over this is the "
         "keep-alive reuse)."},
        {&ServerStats::responses_ok, "responses_ok",
         "graft_responses_ok_total", "2xx responses."},
        {&ServerStats::client_errors, "client_errors",
         "graft_client_errors_total", "4xx responses."},
        {&ServerStats::server_errors, "server_errors",
         "graft_server_errors_total", "5xx responses other than 503/504."},
        {&ServerStats::rejected_overload, "rejected_overload",
         "graft_rejected_overload_total", "503 admission rejections."},
        {&ServerStats::deadline_exceeded, "deadline_exceeded",
         "graft_deadline_exceeded_total", "504 responses."},
        {&ServerStats::malformed_requests, "malformed_requests",
         "graft_malformed_requests_total", "Unparsable HTTP requests."},
        {&ServerStats::reloads_ok, "reloads_ok", "graft_reloads_ok_total",
         "Successful hot reloads."},
        {&ServerStats::reloads_failed, "reloads_failed",
         "graft_reloads_failed_total", "Failed hot reloads."},
        {&ServerStats::slow_queries, "slow_queries",
         "graft_slow_queries_total",
         "Searches over the slow-query threshold."},
        {&ServerStats::generation_conflicts, "generation_conflicts",
         "graft_generation_conflicts_total",
         "409s: router expect_gen stale after a reload."},
        {&ServerStats::shard_stats_requests, "shard_stats_requests",
         "graft_shard_stats_requests_total",
         "/shard/stats requests (router stats exchange phase 1)."},
        {&ServerStats::pruned_searches, "pruned_searches",
         "graft_pruned_searches_total",
         "Searches served by the block-max pruned top-k operator."},
        {&ServerStats::topk_blocks_skipped, "topk_blocks_skipped",
         "graft_topk_blocks_skipped_total",
         "Posting blocks skipped via block-max ceilings."},
};

}  // namespace graft::server

#endif  // GRAFT_SERVER_SERVER_STATS_H_
