// Byte-exact pins of every rendered counter surface: ServerStats' /stats
// JSON and /metrics exposition, the router's /stats and /metrics (per-shard
// series included), the decoded-block cache's /stats object and /metrics
// rows, EXPLAIN ANALYZE's counter block, and ?explain=1's "exec" object.
//
// Every counter is set to a distinct value, so a renderer that swaps two
// counters, drops one, renames one or reorders them fails here. These
// strings are the wire contract dashboards and scrapers read; a change to
// one is a deliberate, documented format change.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/request.h"
#include "index/block_cache.h"
#include "index/index_io.h"
#include "index/inverted_index.h"
#include "router/router_service.h"
#include "server/search_service.h"
#include "server/server_stats.h"

namespace graft {
namespace {

server::HttpRequest Get(const std::string& path) {
  server::HttpRequest request;
  request.method = "GET";
  request.path = path;
  return request;
}

// The lines of `text` that contain `needle`, newline-terminated.
std::string LinesContaining(const std::string& text,
                            const std::string& needle) {
  std::istringstream in(text);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.find(needle) != std::string::npos) out += line + "\n";
  }
  return out;
}

TEST(CounterBytesTest, ServerStatsJsonAndPrometheus) {
  server::ServerStats stats;
  stats.requests_total = 101;
  stats.connections_accepted = 102;
  stats.responses_ok = 103;
  stats.client_errors = 104;
  stats.server_errors = 105;
  stats.rejected_overload = 106;
  stats.deadline_exceeded = 107;
  stats.malformed_requests = 108;
  stats.reloads_ok = 109;
  stats.reloads_failed = 110;
  stats.slow_queries = 111;
  stats.generation_conflicts = 112;
  stats.shard_stats_requests = 113;
  stats.pruned_searches = 114;
  stats.topk_blocks_skipped = 115;

  EXPECT_EQ(stats.ToJson(),
            "{\"requests_total\":101,\"connections_accepted\":102,"
            "\"responses_ok\":103,\"client_errors\":104,"
            "\"server_errors\":105,\"rejected_overload\":106,"
            "\"deadline_exceeded\":107,\"malformed_requests\":108,"
            "\"reloads_ok\":109,\"reloads_failed\":110,"
            "\"slow_queries\":111,\"generation_conflicts\":112,"
            "\"shard_stats_requests\":113,\"pruned_searches\":114,"
            "\"topk_blocks_skipped\":115,\"rule_fired\":{},"
            "\"search_latency\":{\"count\":0,\"mean_ms\":0.000,"
            "\"p50_ms\":0.000,\"p95_ms\":0.000,\"p99_ms\":0.000,"
            "\"max_ms\":0.000},\"scheme_counts\":{}}");

  EXPECT_EQ(
      stats.ToPrometheus(),
      "# HELP graft_requests_total HTTP requests received.\n"
      "# TYPE graft_requests_total counter\n"
      "graft_requests_total 101\n"
      "# HELP graft_connections_accepted_total TCP connections accepted "
      "(requests_total over this is the keep-alive reuse).\n"
      "# TYPE graft_connections_accepted_total counter\n"
      "graft_connections_accepted_total 102\n"
      "# HELP graft_responses_ok_total 2xx responses.\n"
      "# TYPE graft_responses_ok_total counter\n"
      "graft_responses_ok_total 103\n"
      "# HELP graft_client_errors_total 4xx responses.\n"
      "# TYPE graft_client_errors_total counter\n"
      "graft_client_errors_total 104\n"
      "# HELP graft_server_errors_total 5xx responses other than 503/504.\n"
      "# TYPE graft_server_errors_total counter\n"
      "graft_server_errors_total 105\n"
      "# HELP graft_rejected_overload_total 503 admission rejections.\n"
      "# TYPE graft_rejected_overload_total counter\n"
      "graft_rejected_overload_total 106\n"
      "# HELP graft_deadline_exceeded_total 504 responses.\n"
      "# TYPE graft_deadline_exceeded_total counter\n"
      "graft_deadline_exceeded_total 107\n"
      "# HELP graft_malformed_requests_total Unparsable HTTP requests.\n"
      "# TYPE graft_malformed_requests_total counter\n"
      "graft_malformed_requests_total 108\n"
      "# HELP graft_reloads_ok_total Successful hot reloads.\n"
      "# TYPE graft_reloads_ok_total counter\n"
      "graft_reloads_ok_total 109\n"
      "# HELP graft_reloads_failed_total Failed hot reloads.\n"
      "# TYPE graft_reloads_failed_total counter\n"
      "graft_reloads_failed_total 110\n"
      "# HELP graft_slow_queries_total Searches over the slow-query "
      "threshold.\n"
      "# TYPE graft_slow_queries_total counter\n"
      "graft_slow_queries_total 111\n"
      "# HELP graft_generation_conflicts_total 409s: router expect_gen stale "
      "after a reload.\n"
      "# TYPE graft_generation_conflicts_total counter\n"
      "graft_generation_conflicts_total 112\n"
      "# HELP graft_shard_stats_requests_total /shard/stats requests (router "
      "stats exchange phase 1).\n"
      "# TYPE graft_shard_stats_requests_total counter\n"
      "graft_shard_stats_requests_total 113\n"
      "# HELP graft_pruned_searches_total Searches served by the block-max "
      "pruned top-k operator.\n"
      "# TYPE graft_pruned_searches_total counter\n"
      "graft_pruned_searches_total 114\n"
      "# HELP graft_topk_blocks_skipped_total Posting blocks skipped via "
      "block-max ceilings.\n"
      "# TYPE graft_topk_blocks_skipped_total counter\n"
      "graft_topk_blocks_skipped_total 115\n"
      "# HELP graft_search_latency_microseconds /search latency (queued + "
      "handled).\n"
      "# TYPE graft_search_latency_microseconds summary\n"
      "graft_search_latency_microseconds{quantile=\"0.5\"} 0\n"
      "graft_search_latency_microseconds{quantile=\"0.95\"} 0\n"
      "graft_search_latency_microseconds{quantile=\"0.99\"} 0\n"
      "graft_search_latency_microseconds_sum 0\n"
      "graft_search_latency_microseconds_count 0\n");
}

TEST(CounterBytesTest, RouterStatsAndMetrics) {
  // Never started: Handle() renders the counters without any socket.
  router::RouterService router({{1}, {2, 3}}, router::RouterOptions());
  auto& stats = const_cast<router::RouterStats&>(router.stats());
  stats.requests_total = 201;
  stats.connections_accepted = 202;
  stats.responses_ok = 203;
  stats.client_errors = 204;
  stats.server_errors = 205;  // rendered as bad_gateway
  stats.rejected_overload = 206;
  stats.deadline_exceeded = 207;
  stats.malformed_requests = 208;
  stats.partial_responses = 209;
  auto& gather = const_cast<router::GatherCounters&>(
      router.gather().counters());
  gather.gathers_total = 211;
  gather.gathers_ok = 212;
  gather.gathers_partial = 213;
  gather.gathers_failed = 214;
  gather.hedges_launched = 215;
  gather.hedges_won = 216;
  gather.stats_refreshes = 217;
  gather.gen_conflicts = 218;
  for (size_t i = 0; i < 2; ++i) {
    auto& shard = const_cast<router::ShardClientCounters&>(
        router.gather().shard(i).counters());
    const uint64_t base = 300 + 10 * i;
    shard.attempts = base + 1;
    shard.failures = base + 2;
    shard.retries = base + 3;
    shard.ejections = base + 4;
    shard.readmissions = base + 5;
    shard.probes = base + 6;
  }

  // uptime_s is wall-clock: pin everything before it.
  const std::string body = router.Handle(Get("/stats"), 0).body;
  const size_t uptime = body.find(",\"uptime_s\":");
  ASSERT_NE(uptime, std::string::npos) << body;
  EXPECT_EQ(
      body.substr(0, uptime),
      "{\"requests_total\":201,\"connections_accepted\":202,"
      "\"responses_ok\":203,\"client_errors\":204,\"bad_gateway\":205,"
      "\"rejected_overload\":206,\"deadline_exceeded\":207,"
      "\"malformed_requests\":208,\"partial_responses\":209,"
      "\"gathers\":{\"total\":211,\"ok\":212,\"partial\":213,\"failed\":214,"
      "\"hedges_launched\":215,\"hedges_won\":216,\"stats_refreshes\":217,"
      "\"gen_conflicts\":218},\"stats_epoch\":1,"
      "\"shards\":[{\"shard\":0,\"replicas\":1,\"healthy\":1,"
      "\"attempts\":301,\"failures\":302,\"retries\":303,\"ejections\":304,"
      "\"readmissions\":305,\"probes\":306},"
      "{\"shard\":1,\"replicas\":2,\"healthy\":2,"
      "\"attempts\":311,\"failures\":312,\"retries\":313,\"ejections\":314,"
      "\"readmissions\":315,\"probes\":316}],"
      "\"search_latency\":{\"count\":0,\"mean_ms\":0.000,\"p50_ms\":0.000,"
      "\"p95_ms\":0.000,\"p99_ms\":0.000,\"max_ms\":0.000},\"by_scheme\":{}");

  const std::string metrics = router.Handle(Get("/metrics"), 0).body;
  const size_t uptime_help = metrics.find("# HELP graft_router_uptime_seconds");
  ASSERT_NE(uptime_help, std::string::npos) << metrics;
  EXPECT_EQ(
      metrics.substr(0, uptime_help),
      "# HELP graft_router_requests_total Requests received by the router.\n"
      "# TYPE graft_router_requests_total counter\n"
      "graft_router_requests_total 201\n"
      "# HELP graft_router_connections_accepted_total TCP connections "
      "accepted by the router.\n"
      "# TYPE graft_router_connections_accepted_total counter\n"
      "graft_router_connections_accepted_total 202\n"
      "# HELP graft_router_responses_ok_total 2xx responses (including "
      "degraded partials).\n"
      "# TYPE graft_router_responses_ok_total counter\n"
      "graft_router_responses_ok_total 203\n"
      "# HELP graft_router_client_errors_total 4xx responses.\n"
      "# TYPE graft_router_client_errors_total counter\n"
      "graft_router_client_errors_total 204\n"
      "# HELP graft_router_bad_gateway_total 502s: shard failures the policy "
      "would not degrade.\n"
      "# TYPE graft_router_bad_gateway_total counter\n"
      "graft_router_bad_gateway_total 205\n"
      "# HELP graft_router_rejected_overload_total 503s from the admission "
      "cap or shutdown.\n"
      "# TYPE graft_router_rejected_overload_total counter\n"
      "graft_router_rejected_overload_total 206\n"
      "# HELP graft_router_deadline_exceeded_total 504s.\n"
      "# TYPE graft_router_deadline_exceeded_total counter\n"
      "graft_router_deadline_exceeded_total 207\n"
      "# HELP graft_router_partial_responses_total Degraded 200s: some shard "
      "did not contribute.\n"
      "# TYPE graft_router_partial_responses_total counter\n"
      "graft_router_partial_responses_total 209\n"
      "# HELP graft_router_gathers_total Scatter-gather rounds started.\n"
      "# TYPE graft_router_gathers_total counter\n"
      "graft_router_gathers_total 211\n"
      "# HELP graft_router_gathers_partial_total Gathers merged from a strict "
      "subset of shards.\n"
      "# TYPE graft_router_gathers_partial_total counter\n"
      "graft_router_gathers_partial_total 213\n"
      "# HELP graft_router_gathers_failed_total Gathers that returned an "
      "error to the caller.\n"
      "# TYPE graft_router_gathers_failed_total counter\n"
      "graft_router_gathers_failed_total 214\n"
      "# HELP graft_router_hedges_launched_total Hedged second requests sent "
      "to straggler shards.\n"
      "# TYPE graft_router_hedges_launched_total counter\n"
      "graft_router_hedges_launched_total 215\n"
      "# HELP graft_router_hedges_won_total Hedged requests that beat the "
      "primary.\n"
      "# TYPE graft_router_hedges_won_total counter\n"
      "graft_router_hedges_won_total 216\n"
      "# HELP graft_router_stats_refreshes_total Stats-epoch invalidations "
      "(generation moved).\n"
      "# TYPE graft_router_stats_refreshes_total counter\n"
      "graft_router_stats_refreshes_total 217\n"
      "# HELP graft_router_gen_conflicts_total 409 Conflict replies observed "
      "from shards.\n"
      "# TYPE graft_router_gen_conflicts_total counter\n"
      "graft_router_gen_conflicts_total 218\n"
      "# HELP graft_router_stats_epoch Current pinned-stats epoch.\n"
      "# TYPE graft_router_stats_epoch gauge\n"
      "graft_router_stats_epoch 1\n"
      "# HELP graft_router_shard_attempts_total Wire attempts per shard.\n"
      "# TYPE graft_router_shard_attempts_total counter\n"
      "graft_router_shard_attempts_total{shard=\"0\"} 301\n"
      "graft_router_shard_attempts_total{shard=\"1\"} 311\n"
      "# HELP graft_router_shard_failures_total Failed attempts (transport or "
      "5xx) per shard.\n"
      "# TYPE graft_router_shard_failures_total counter\n"
      "graft_router_shard_failures_total{shard=\"0\"} 302\n"
      "graft_router_shard_failures_total{shard=\"1\"} 312\n"
      "# HELP graft_router_shard_ejections_total Replica ejections per "
      "shard.\n"
      "# TYPE graft_router_shard_ejections_total counter\n"
      "graft_router_shard_ejections_total{shard=\"0\"} 304\n"
      "graft_router_shard_ejections_total{shard=\"1\"} 314\n"
      "# HELP graft_router_shard_readmissions_total Probe-driven replica "
      "readmissions per shard.\n"
      "# TYPE graft_router_shard_readmissions_total counter\n"
      "graft_router_shard_readmissions_total{shard=\"0\"} 305\n"
      "graft_router_shard_readmissions_total{shard=\"1\"} 315\n"
      "# HELP graft_router_shard_healthy_replicas Non-ejected replicas per "
      "shard.\n"
      "# TYPE graft_router_shard_healthy_replicas gauge\n"
      "graft_router_shard_healthy_replicas{shard=\"0\"} 1\n"
      "graft_router_shard_healthy_replicas{shard=\"1\"} 2\n"
      "# HELP graft_router_search_latency_seconds /search latency.\n"
      "# TYPE graft_router_search_latency_seconds summary\n"
      "graft_router_search_latency_seconds{quantile=\"0.5\"} 0.000000\n"
      "graft_router_search_latency_seconds{quantile=\"0.95\"} 0.000000\n"
      "graft_router_search_latency_seconds{quantile=\"0.99\"} 0.000000\n"
      "graft_router_search_latency_seconds_sum 0.000000\n"
      "graft_router_search_latency_seconds_count 0\n");
}

TEST(CounterBytesTest, BlockCacheStatsObjectAndMetricsRows) {
  index::IndexBuilder builder;
  builder.AddDocumentStrings({"free", "software", "windows"});
  builder.AddDocumentStrings({"windows", "emulator", "free", "free"});
  const std::string path = ::testing::TempDir() + "/graft_" +
                           std::to_string(::getpid()) + "_counter_bytes.idx";
  ASSERT_TRUE(index::SaveIndexV5(builder.Build(), path).ok());
  // Room for exactly three resident entries.
  auto cache =
      std::make_shared<index::BlockCache>(3 * index::BlockCache::kEntryCharge +
                                          1);
  core::BundleLoadOptions load;
  load.mmap_index = true;
  load.block_cache = cache;
  auto bundle = core::LoadEngineBundle(path, /*segments=*/1,
                                       /*pool_threads=*/1, load);
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  ASSERT_EQ(bundle->index->block_cache(), cache);
  server::SearchService service(bundle->engine.get(), server::ServiceOptions());

  // Drive the cache to distinct counts under a generation no index uses:
  // 9 inserts (7 full-payload), 6 evicted by capacity, 3 resident;
  // 4 hits on resident blocks, 5 misses.
  const uint64_t generation = ~uint64_t{0};
  auto block = std::make_shared<const index::DecodedBlock>();
  for (uint32_t b = 0; b < 9; ++b) {
    cache->Insert(generation, 0, b,
                  b < 7 ? index::BlockKind::kFull : index::BlockKind::kDocs,
                  block);
  }
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_NE(cache->Lookup(generation, 0, 8, index::BlockKind::kDocs),
              nullptr);
  }
  for (uint32_t i = 0; i < 5; ++i) {
    ASSERT_EQ(cache->Lookup(generation, 0, 0, index::BlockKind::kFull),
              nullptr);
  }
  const std::string bytes =
      std::to_string(3 * index::BlockCache::kEntryCharge);
  const std::string capacity =
      std::to_string(3 * index::BlockCache::kEntryCharge + 1);

  const std::string stats = service.Handle(Get("/stats"), 0).body;
  const size_t begin = stats.find("\"block_cache\":{");
  ASSERT_NE(begin, std::string::npos) << stats;
  EXPECT_EQ(stats.substr(begin, stats.find('}', begin) + 1 - begin),
            "\"block_cache\":{\"hits\":4,\"misses\":5,\"evictions\":6,"
            "\"inserts\":9,\"payload_decodes\":7,\"bytes\":" +
                bytes + ",\"capacity_bytes\":" + capacity +
                ",\"entries\":3}");

  EXPECT_EQ(
      LinesContaining(service.Handle(Get("/metrics"), 0).body,
                      "graft_block_cache_"),
      "# HELP graft_block_cache_hits_total Decoded-block cache lookups "
      "served from cache.\n"
      "# TYPE graft_block_cache_hits_total counter\n"
      "graft_block_cache_hits_total 4\n"
      "# HELP graft_block_cache_misses_total Decoded-block cache lookups "
      "that decoded from the mapped file.\n"
      "# TYPE graft_block_cache_misses_total counter\n"
      "graft_block_cache_misses_total 5\n"
      "# HELP graft_block_cache_evictions_total Decoded blocks evicted by LRU "
      "capacity pressure.\n"
      "# TYPE graft_block_cache_evictions_total counter\n"
      "graft_block_cache_evictions_total 6\n"
      "# HELP graft_block_cache_inserts_total Decoded blocks inserted into "
      "the cache.\n"
      "# TYPE graft_block_cache_inserts_total counter\n"
      "graft_block_cache_inserts_total 9\n"
      "# HELP graft_block_cache_payload_decodes_total Full-payload "
      "(docs+tfs+offsets) block decodes.\n"
      "# TYPE graft_block_cache_payload_decodes_total counter\n"
      "graft_block_cache_payload_decodes_total 7\n"
      "# HELP graft_block_cache_bytes Resident decoded bytes in the cache.\n"
      "# TYPE graft_block_cache_bytes gauge\n"
      "graft_block_cache_bytes " +
          bytes +
          "\n"
          "# HELP graft_block_cache_capacity_bytes Configured decoded-block "
          "cache capacity.\n"
          "# TYPE graft_block_cache_capacity_bytes gauge\n"
          "graft_block_cache_capacity_bytes " +
          capacity +
          "\n"
          "# HELP graft_block_cache_entries Decoded blocks resident in the "
          "cache.\n"
          "# TYPE graft_block_cache_entries gauge\n"
          "graft_block_cache_entries 3\n");
  std::remove(path.c_str());
}

// Every ExecStats counter at a distinct value, plus two fired rules.
exec::ExecStats DistinctExecStats() {
  exec::ExecStats s;
  s.positions_scanned = 1;
  s.count_entries_scanned = 2;
  s.rows_built = 3;
  s.docs_visited = 4;
  s.blocks_decoded = 5;
  s.gallop_probes = 6;
  s.skip_calls = 7;
  s.skip_hits = 8;
  s.rank_heap_ops = 9;
  s.docs_scored = 10;
  s.docs_pruned = 11;
  s.topk_sorted_accesses = 12;
  s.topk_blocks_skipped = 13;
  s.topk_blocks_decoded = 14;
  s.topk_ceiling_probes = 15;
  s.topk_threshold_updates = 16;
  s.block_cache_hits = 17;
  s.block_cache_misses = 18;
  s.block_cache_evictions = 19;
  s.packed_payload_decodes = 20;
  return s;
}

TEST(CounterBytesTest, ExplainAnalyzeCounterBlock) {
  EXPECT_EQ(core::FormatExecStats(DistinctExecStats()),
            "  docs_visited=4 rows_built=3 positions_scanned=1 "
            "count_entries_scanned=2\n"
            "  blocks_decoded=5 gallop_probes=6 skip_calls=7 skip_hits=8\n"
            "  rank: heap_ops=9 sorted_accesses=12 docs_scored=10 "
            "docs_pruned=11\n"
            "  pruning: blocks_skipped=13 blocks_decoded=14 ceiling_probes=15 "
            "threshold_updates=16\n"
            "  block_cache: hits=17 misses=18 evictions=19 "
            "payload_decodes=20\n");

  // The optional lines print only when one of their counters is non-zero,
  // and any one of them is enough.
  exec::ExecStats sparse;
  sparse.topk_sorted_accesses = 21;
  sparse.topk_threshold_updates = 22;
  sparse.packed_payload_decodes = 23;
  EXPECT_EQ(core::FormatExecStats(sparse),
            "  docs_visited=0 rows_built=0 positions_scanned=0 "
            "count_entries_scanned=0\n"
            "  blocks_decoded=0 gallop_probes=0 skip_calls=0 skip_hits=0\n"
            "  rank: heap_ops=0 sorted_accesses=21 docs_scored=0 "
            "docs_pruned=0\n"
            "  pruning: blocks_skipped=0 blocks_decoded=0 ceiling_probes=0 "
            "threshold_updates=22\n"
            "  block_cache: hits=0 misses=0 evictions=0 "
            "payload_decodes=23\n");
  EXPECT_EQ(core::FormatExecStats(exec::ExecStats()),
            "  docs_visited=0 rows_built=0 positions_scanned=0 "
            "count_entries_scanned=0\n"
            "  blocks_decoded=0 gallop_probes=0 skip_calls=0 skip_hits=0\n");
}

// Same keys and order as EXPLAIN ANALYZE: topk_sorted_accesses sits next
// to rank_heap_ops, as it does on EXPLAIN ANALYZE's "rank:" line.
TEST(CounterBytesTest, ExplainExecObject) {
  std::string out;
  server::SearchService::AppendFullExecJson(&out, DistinctExecStats());
  EXPECT_EQ(out,
            "{\"docs_visited\":4,\"rows_built\":3,\"positions_scanned\":1,"
            "\"count_entries_scanned\":2,\"blocks_decoded\":5,"
            "\"gallop_probes\":6,\"skip_calls\":7,\"skip_hits\":8,"
            "\"rank_heap_ops\":9,\"topk_sorted_accesses\":12,"
            "\"docs_scored\":10,\"docs_pruned\":11,"
            "\"topk_blocks_skipped\":13,\"topk_blocks_decoded\":14,"
            "\"topk_ceiling_probes\":15,\"topk_threshold_updates\":16,"
            "\"block_cache_hits\":17,"
            "\"block_cache_misses\":18,\"block_cache_evictions\":19,"
            "\"packed_payload_decodes\":20}");
}

// Every /search body carries the original three-field "exec" block, with
// or without explain.
TEST(CounterBytesTest, SearchBodyExecBlockKeepsThreeFields) {
  index::IndexBuilder builder;
  builder.AddDocumentStrings({"free", "software", "windows"});
  builder.AddDocumentStrings({"windows", "emulator", "free", "free"});
  auto bundle = core::MakeEngineBundle(builder.Build(), /*segments=*/1,
                                       /*pool_threads=*/1);
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  server::SearchService service(bundle->engine.get(), server::ServiceOptions());
  const std::regex exec_block(
      "\\},\"exec\":\\{\"docs_visited\":[0-9]+,\"rows_built\":[0-9]+,"
      "\"positions_scanned\":[0-9]+\\},\"(results|explain)\":");
  for (const char* explain : {"0", "1"}) {
    server::HttpRequest request = Get("/search");
    request.params = {{"q", "free"}, {"scheme", "Lucene"}, {"k", "5"},
                      {"explain", explain}};
    const server::Response response = service.Handle(request, 0);
    ASSERT_EQ(response.status_code, 200) << response.body;
    EXPECT_TRUE(std::regex_search(response.body, exec_block))
        << response.body;
  }
}

}  // namespace
}  // namespace graft
