// Score-consistent scatter-gather over N GRAFT shard servers.
//
// The distributed analogue of Engine's segmented path (DESIGN.md §2b): the
// corpus is partitioned contiguously across shards in shard order (shard
// i's documents come before shard i+1's, exactly like segments of a
// SegmentedIndex), each shard server holds an independently built index
// over its slice, and the router reproduces the single-process ranking:
//
//   phase 1 (collect)   GET /shard/stats?terms=... on every shard; sum
//                       doc_count / total_words / per-term df+cf into the
//                       whole-corpus statistics, and record each shard's
//                       engine generation and doc base (prefix sums of the
//                       shard doc counts — global doc id = base + local).
//   phase 2 (broadcast) GET /search?...&gstats=<pinned>&expect_gen=<g> on
//                       every shard in parallel; each shard scores its
//                       local top-k against the pinned global statistics,
//                       so per-document scores are bit-identical to a
//                       single-process run (GRAFT scores = f(match rows,
//                       collection stats)).
//   merge               ma::MergeRanked: k-way merge by (score desc,
//                       global doc asc), the same merge the engine runs
//                       over its segments.
//
// The stats-epoch protocol: phase-1 results are cached under a
// monotonically increasing epoch. The cached per-shard generation vector
// is the epoch's validity condition. A /shard/stats reply with a new
// generation (e.g. after a hot reload) invalidates the epoch, flushes the
// term cache and re-primes it from that same round's replies; a shard
// answering 409 Conflict (its generation moved after the exchange) does
// the same through a fresh collection before the request retries. So
// merged rankings never mix statistics from different index generations.
// Terms missing from the cache are fetched on demand and folded in under
// the same epoch.
//
// Robustness (the ISSUE 8 headline):
//   * per-shard deadline = the request's remaining budget; every retry,
//     backoff sleep, and hedge fits inside it (ShardClient enforces);
//   * bounded retries + exponential backoff + jitter per shard
//     (ShardClient), rotating over replicas, with ejection + background
//     readmission probes (StartProbes);
//   * optional hedging: when a shard has not answered after hedge_ms and
//     has a spare healthy replica, a second identical request races the
//     first; the winner's reply is used, the loser is abandoned;
//   * partial-result policy: kFail turns any shard failure into an error
//     (no silent truncation); kPartial merges the shards that answered and
//     marks the result degraded with per-shard outcomes + coverage — the
//     response never pretends to be complete.

#ifndef GRAFT_ROUTER_SCATTER_GATHER_H_
#define GRAFT_ROUTER_SCATTER_GATHER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/counters.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "ma/match_table.h"
#include "router/shard_client.h"
#include "server/pinned_stats.h"

namespace graft::router {

enum class PartialPolicy {
  kFail,     // any shard failure fails the whole request
  kPartial,  // merge what answered; mark degraded + per-shard outcomes
};

struct ScatterGatherOptions {
  ShardClientOptions client;
  PartialPolicy partial_policy = PartialPolicy::kPartial;
  // 0 disables hedging; otherwise a straggler shard gets a second racing
  // request after this many milliseconds (if a healthy replica remains).
  uint64_t hedge_ms = 0;
  // Bound on Search's rounds when a shard answers 409 (its generation
  // moved after the stats exchange): the first round plus this many
  // re-collects.
  size_t max_stats_refreshes = 2;
  // Background readmission probe cadence (StartProbes).
  uint64_t probe_interval_ms = 200;
  // Fan-out worker threads (0 = one per shard).
  size_t fanout_threads = 0;
  // Deterministic jitter seed for the shard clients.
  uint64_t jitter_seed = 0x5bd1e995u;
};

// One shard's outcome within one gathered search — surfaced verbatim in
// the response JSON, EXPLAIN, and aggregated into /metrics.
struct ShardOutcome {
  size_t shard = 0;
  uint16_t port = 0;        // replica that produced the final verdict
  std::string outcome;      // "ok" | "failed" | "conflict" | "skipped"
  std::string error;        // failure detail ("" when ok)
  size_t attempts = 0;      // attempts consumed (incl. hedge leg)
  bool hedged = false;      // a hedge leg was launched
  size_t results = 0;       // hits contributed before the merge
  double latency_ms = 0.0;
};

struct GatherResult {
  std::vector<ma::ScoredDoc> results;  // global doc ids, merged order
  bool degraded = false;               // some shard did not contribute
  size_t shards_total = 0;
  size_t shards_ok = 0;
  uint64_t stats_epoch = 0;
  std::vector<ShardOutcome> outcomes;  // one per shard, in shard order
};

// Cumulative router-side counters (relaxed atomics; /metrics).
struct GatherCounters {
  std::atomic<uint64_t> gathers_total{0};
  std::atomic<uint64_t> gathers_ok{0};        // all shards contributed
  std::atomic<uint64_t> gathers_partial{0};   // degraded 200s (kPartial)
  std::atomic<uint64_t> gathers_failed{0};    // error returned to caller
  std::atomic<uint64_t> hedges_launched{0};
  std::atomic<uint64_t> hedges_won{0};        // hedge leg answered first
  std::atomic<uint64_t> stats_refreshes{0};   // epoch invalidations
  std::atomic<uint64_t> gen_conflicts{0};     // 409s observed from shards
};

// Every GatherCounters counter: the router's /stats "gathers" object and
// its graft_router_* /metrics rows, in order.
inline constexpr common::CounterRow<GatherCounters, std::atomic<uint64_t>>
    kGatherCounters[] = {
        {&GatherCounters::gathers_total, "total", "graft_router_gathers_total",
         "Scatter-gather rounds started."},
        {&GatherCounters::gathers_ok, "ok"},
        {&GatherCounters::gathers_partial, "partial",
         "graft_router_gathers_partial_total",
         "Gathers merged from a strict subset of shards."},
        {&GatherCounters::gathers_failed, "failed",
         "graft_router_gathers_failed_total",
         "Gathers that returned an error to the caller."},
        {&GatherCounters::hedges_launched, "hedges_launched",
         "graft_router_hedges_launched_total",
         "Hedged second requests sent to straggler shards."},
        {&GatherCounters::hedges_won, "hedges_won",
         "graft_router_hedges_won_total",
         "Hedged requests that beat the primary."},
        {&GatherCounters::stats_refreshes, "stats_refreshes",
         "graft_router_stats_refreshes_total",
         "Stats-epoch invalidations (generation moved)."},
        {&GatherCounters::gen_conflicts, "gen_conflicts",
         "graft_router_gen_conflicts_total",
         "409 Conflict replies observed from shards."},
};
static_assert(sizeof(GatherCounters) ==
                  std::size(kGatherCounters) * sizeof(std::atomic<uint64_t>),
              "every GatherCounters field needs a kGatherCounters row");

class ScatterGather {
 public:
  // `shard_replicas[i]` lists the replica ports of shard i (>= 1 each).
  // Shard order defines the global doc-id order (contiguous corpus split).
  ScatterGather(std::vector<std::vector<uint16_t>> shard_replicas,
                ScatterGatherOptions options);
  ~ScatterGather();

  ScatterGather(const ScatterGather&) = delete;
  ScatterGather& operator=(const ScatterGather&) = delete;

  // Runs the two-phase protocol + merge for one query. `terms` are the
  // query's keywords (duplicates fine); `raw_search_params` is the
  // URL-encoded parameter tail forwarded to every shard (q, scheme,
  // explain, ... — everything but k/gstats/expect_gen/deadline_ms, which
  // this call owns). `k` must be > 0: distributed top-∞ would need full
  // result exchange. Spends at most `budget_ms`.
  StatusOr<GatherResult> Search(const std::vector<std::string>& terms,
                                const std::string& raw_search_params,
                                size_t k, uint64_t budget_ms);

  // Background replica readmission probes. Start is idempotent.
  void StartProbes();
  void StopProbes();

  size_t shard_count() const { return shards_.size(); }
  const ShardClient& shard(size_t i) const { return *shards_[i]; }
  const GatherCounters& counters() const { return counters_; }
  uint64_t stats_epoch() const {
    return stats_epoch_.load(std::memory_order_acquire);
  }

  // The whole-corpus statistics pinned for `terms` at the current epoch,
  // collecting from the shards as needed. Exposed for tests; Search uses
  // it internally. On success also returns the per-shard doc-id bases and
  // generations via the out parameters (sized shard_count()).
  StatusOr<server::PinnedStats> CollectStats(
      const std::vector<std::string>& terms, uint64_t budget_ms,
      std::vector<uint64_t>* bases, std::vector<uint64_t>* generations);

 private:
  struct TermStats {
    uint64_t df = 0;
    uint64_t cf = 0;
  };

  // Epoch-guarded cache of summed statistics. All fields under mu_.
  struct StatsCache {
    bool primed = false;                 // corpus totals + bases valid
    uint64_t doc_count = 0;
    uint64_t total_words = 0;
    std::vector<uint64_t> bases;         // per shard, prefix sums
    std::vector<uint64_t> generations;   // per shard, as of this epoch
    std::unordered_map<std::string, TermStats> terms;
  };

  // Invalidate the cache and bump the epoch (a generation moved).
  void InvalidateStats();

  // The cached statistics of `terms` (sorted, unique) and the cache's
  // bases and generations. Caller holds stats_mu_.
  StatusOr<server::PinnedStats> PinnedFromCacheLocked(
      const std::set<std::string>& terms, std::vector<uint64_t>* bases,
      std::vector<uint64_t>* generations) const;

  // One shard's phase-2 leg: primary request plus optional hedge race.
  // Returns the winning response (or the primary's failure).
  StatusOr<server::HttpClientResponse> FanOne(size_t shard,
                                              const std::string& target,
                                              uint64_t budget_ms,
                                              ShardOutcome* outcome);

  void ProbeLoop();

  const ScatterGatherOptions options_;
  std::vector<std::unique_ptr<ShardClient>> shards_;
  std::unique_ptr<common::ThreadPool> pool_;

  std::mutex stats_mu_;
  StatsCache stats_cache_;
  std::atomic<uint64_t> stats_epoch_{1};

  GatherCounters counters_;

  std::thread probe_thread_;
  std::mutex probe_mu_;
  std::condition_variable probe_cv_;
  bool probe_stop_ = false;
  bool probes_running_ = false;
};

// Parses `"results":[{"doc":u,"score":g},...]` out of a shard's /search
// reply body. Strict: any structural mismatch (garbled or cut body) is
// DataLoss, so corrupted replies count as shard failures instead of
// merging garbage. Exposed for tests.
StatusOr<std::vector<ma::ScoredDoc>> ParseResultsFragment(
    std::string_view body);

// Parses a /shard/stats reply body. Strict like ParseResultsFragment.
struct ShardStatsReply {
  uint64_t generation = 0;
  uint64_t doc_count = 0;
  uint64_t total_words = 0;
  std::vector<server::PinnedTermStats> terms;
};
StatusOr<ShardStatsReply> ParseShardStatsReply(std::string_view body);

}  // namespace graft::router

#endif  // GRAFT_ROUTER_SCATTER_GATHER_H_
