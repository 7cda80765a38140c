// ScatterGather over live in-process shard servers:
//
//   * the headline invariant — router-merged results are BIT-IDENTICAL
//     (doc ids and %.17g scores) to a single-process engine over the whole
//     corpus, for all eight registered schemes, whenever every shard
//     answers;
//   * the two-phase stats exchange: summed df/cf/doc_count/total_words
//     match the monolithic index exactly, and the pinned statistics leave
//     the shards' block-max pruning licensed;
//   * generation conflicts (hot reload racing the exchange) are detected
//     via 409, invalidate the stats epoch, and the request recovers;
//   * partial-result policy: cached-term queries degrade gracefully when a
//     shard dies (kPartial) or fail loudly (kFail); cold-cache queries
//     fail either way because honest global statistics need every shard;
//   * hedging: a straggler replica gets a racing second request and the
//     fast replica's answer wins;
//   * strict reply parsers reject garbled and truncated bodies.

#include "router/scatter_gather.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/request.h"
#include "index/index_io.h"
#include "index/inverted_index.h"
#include "mcalc/parser.h"
#include "server/http.h"
#include "server/search_service.h"
#include "text/corpus.h"

namespace graft::router {
namespace {

constexpr const char* kSchemes[] = {
    "AnySum",         "AnyProd", "SumBest",    "Lucene",
    "JoinNormalized", "MeanSum", "EventModel", "BestSumMinDist"};

constexpr const char* kQueries[] = {
    "san francisco fault line",
    "(windows emulator)WINDOW[50] (foss | \"free software\")",
    "free software !windows",
    "software",
};

constexpr size_t kShards = 3;
constexpr uint64_t kBudgetMs = 120000;

std::vector<std::string> TermsOf(const std::string& query) {
  auto parsed = mcalc::ParseQuery(query);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  std::vector<std::string> terms;
  for (const auto& variable : parsed->variables) {
    terms.push_back(variable.keyword);
  }
  return terms;
}

std::string Tail(const std::string& query, const std::string& scheme) {
  return "q=" + server::UrlEncode(query) + "&scheme=" + scheme;
}

// The shared corpus, split contiguously into kShards slices, each served
// by an in-process SearchService; plus the monolithic ground-truth engine.
struct Topology {
  core::EngineBundle full;                       // whole corpus, 1 segment
  std::vector<core::EngineBundle> shard_bundles; // one per shard
  std::vector<std::unique_ptr<server::SearchService>> services;
  std::vector<std::vector<uint16_t>> replica_ports;  // 1 replica each
};

server::ServiceOptions LenientOptions() {
  server::ServiceOptions options;
  options.default_deadline_ms = kBudgetMs;
  options.max_deadline_ms = kBudgetMs;
  options.max_top_k = 100000;
  return options;
}

Topology* MakeTopology() {
  auto* topology = new Topology();
  std::vector<std::vector<std::string>> docs;
  text::CorpusConfig config = text::WikipediaLikeConfig(400, /*seed=*/29);
  text::CorpusGenerator generator(config);
  generator.Generate(
      [&docs](uint64_t, const std::vector<std::string_view>& tokens) {
        docs.emplace_back(tokens.begin(), tokens.end());
      });

  index::IndexBuilder full_builder;
  for (const auto& doc : docs) full_builder.AddDocumentStrings(doc);
  auto full = core::MakeEngineBundle(full_builder.Build(), /*segments=*/1,
                                     /*pool_threads=*/0);
  EXPECT_TRUE(full.ok()) << full.status();
  topology->full = std::move(full).value();

  // Contiguous split: shard i serves docs [i*chunk, ...), uneven tail on
  // the last shard — global doc id = shard base + local id.
  const size_t chunk = (docs.size() + kShards - 1) / kShards;
  for (size_t shard = 0; shard < kShards; ++shard) {
    index::IndexBuilder builder;
    const size_t begin = shard * chunk;
    const size_t end = std::min(docs.size(), begin + chunk);
    for (size_t i = begin; i < end; ++i) {
      builder.AddDocumentStrings(docs[i]);
    }
    auto bundle = core::MakeEngineBundle(builder.Build(), /*segments=*/1,
                                         /*pool_threads=*/0);
    EXPECT_TRUE(bundle.ok()) << bundle.status();
    topology->shard_bundles.push_back(std::move(bundle).value());
  }
  for (size_t shard = 0; shard < kShards; ++shard) {
    topology->services.push_back(std::make_unique<server::SearchService>(
        topology->shard_bundles[shard].engine.get(), LenientOptions()));
    EXPECT_TRUE(topology->services.back()->Start().ok());
    topology->replica_ports.push_back(
        {topology->services.back()->port()});
  }
  return topology;
}

Topology& SharedTopology() {
  static Topology& topology = *MakeTopology();
  return topology;
}

std::vector<ma::ScoredDoc> GroundTruth(const std::string& query,
                                       const std::string& scheme, size_t k) {
  const Topology& topology = SharedTopology();
  core::SearchRequestParams params;
  params.query = query;
  params.scheme = scheme;
  params.top_k = k;
  auto resolved = core::ResolveRequest(*topology.full.engine, params);
  EXPECT_TRUE(resolved.ok()) << resolved.status();
  auto result = topology.full.engine->SearchQuery(
      resolved->query, *resolved->scheme, resolved->options);
  EXPECT_TRUE(result.ok()) << result.status();
  return result->results;
}

ScatterGatherOptions FastGatherOptions() {
  ScatterGatherOptions options;
  options.client.max_attempts = 2;
  options.client.backoff_base_ms = 1;
  options.client.backoff_max_ms = 4;
  options.client.io_timeout_ms = static_cast<int>(kBudgetMs);
  return options;
}

TEST(ScatterGatherParserTest, RoundTripsServerResultsFragment) {
  std::vector<ma::ScoredDoc> results = {{0, 2.5}, {17, 1.0 / 3.0},
                                        {123456, -0.0078125}};
  const std::string body =
      "{\"k\":3," + server::SearchService::FormatResultsFragment(results) +
      "}";
  auto parsed = ParseResultsFragment(body);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ((*parsed)[i].doc, results[i].doc);
    EXPECT_EQ((*parsed)[i].score, results[i].score);  // bit-exact via %.17g
  }
  auto empty = ParseResultsFragment("{\"results\":[]}");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(ScatterGatherParserTest, RejectsGarbledAndTruncatedBodies) {
  std::vector<ma::ScoredDoc> results = {{1, 1.5}, {2, 0.5}};
  std::string body =
      "{" + server::SearchService::FormatResultsFragment(results) + "}";
  // Mid-stream cut: half the body.
  EXPECT_FALSE(ParseResultsFragment(body.substr(0, body.size() / 2)).ok());
  // Wire corruption: every byte inverted.
  std::string garbled = body;
  for (char& c : garbled) c = static_cast<char>(~c);
  EXPECT_FALSE(ParseResultsFragment(garbled).ok());
  EXPECT_FALSE(ParseResultsFragment("").ok());
  EXPECT_FALSE(ParseResultsFragment("{\"results\":[{\"doc\":1}]}").ok());
}

TEST(ScatterGatherParserTest, ParsesShardStatsReply) {
  const std::string body =
      "{\"generation\":3,\"doc_count\":120,\"total_words\":4567,"
      "\"terms\":[{\"term\":\"software\",\"df\":12,\"cf\":40},"
      "{\"term\":\"a\\\"b\",\"df\":0,\"cf\":0}]}";
  auto parsed = ParseShardStatsReply(body);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->generation, 3u);
  EXPECT_EQ(parsed->doc_count, 120u);
  EXPECT_EQ(parsed->total_words, 4567u);
  ASSERT_EQ(parsed->terms.size(), 2u);
  EXPECT_EQ(parsed->terms[0].term, "software");
  EXPECT_EQ(parsed->terms[0].doc_freq, 12u);
  EXPECT_EQ(parsed->terms[1].term, "a\"b");
  EXPECT_FALSE(ParseShardStatsReply("{\"generation\":3}").ok());
}

TEST(ScatterGatherTest, CollectStatsSumsToMonolithicStatistics) {
  Topology& topology = SharedTopology();
  ScatterGather gather(topology.replica_ports, FastGatherOptions());
  std::vector<uint64_t> bases;
  std::vector<uint64_t> generations;
  auto pinned = gather.CollectStats({"software", "windows", "nosuchterm"},
                                    kBudgetMs, &bases, &generations);
  ASSERT_TRUE(pinned.ok()) << pinned.status();

  const index::InvertedIndex& full = *topology.full.index;
  EXPECT_EQ(pinned->doc_count, full.doc_count());
  EXPECT_EQ(pinned->total_words, full.total_words());
  ASSERT_EQ(pinned->terms.size(), 3u);
  for (const auto& term : pinned->terms) {
    const TermId id = full.LookupTerm(term.term);
    const uint64_t df = id == kInvalidTerm ? 0 : full.DocFreq(id);
    const uint64_t cf = id == kInvalidTerm ? 0 : full.CollectionFreq(id);
    EXPECT_EQ(term.doc_freq, df) << term.term;
    EXPECT_EQ(term.collection_freq, cf) << term.term;
  }

  // Bases are the prefix sums of the contiguous split.
  ASSERT_EQ(bases.size(), kShards);
  uint64_t expected_base = 0;
  for (size_t shard = 0; shard < kShards; ++shard) {
    EXPECT_EQ(bases[shard], expected_base);
    expected_base += topology.shard_bundles[shard].index->doc_count();
  }
  EXPECT_EQ(expected_base, full.doc_count());

  // A second collection of the same terms is served from the cache —
  // no further shard traffic.
  const uint64_t attempts_before =
      gather.shard(0).counters().attempts.load();
  auto cached = gather.CollectStats({"software"}, kBudgetMs, &bases,
                                    &generations);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(gather.shard(0).counters().attempts.load(), attempts_before);
}

// A shard's /stats pruned_searches: top-k searches the block-max pruned
// operator served.
uint64_t PrunedSearches(uint16_t port) {
  auto stats = server::HttpGet(port, "/stats");
  EXPECT_TRUE(stats.ok()) << stats.status();
  if (!stats.ok()) return 0;
  const std::string key = "\"pruned_searches\":";
  const size_t at = stats->body.find(key);
  EXPECT_NE(at, std::string::npos) << stats->body;
  if (at == std::string::npos) return 0;
  return std::stoull(stats->body.substr(at + key.size()));
}

TEST(ScatterGatherTest, BitIdenticalToSingleProcessAllSchemes) {
  Topology& topology = SharedTopology();
  ScatterGather gather(topology.replica_ports, FastGatherOptions());
  for (const char* scheme : kSchemes) {
    for (const char* query : kQueries) {
      std::vector<uint64_t> pruned_before;
      for (const auto& service : topology.services) {
        pruned_before.push_back(PrunedSearches(service->port()));
      }
      auto gathered =
          gather.Search(TermsOf(query), Tail(query, scheme), 10, kBudgetMs);
      ASSERT_TRUE(gathered.ok()) << scheme << " " << query << ": "
                                 << gathered.status();
      EXPECT_FALSE(gathered->degraded);
      EXPECT_EQ(gathered->shards_ok, kShards);
      const std::vector<ma::ScoredDoc> expected =
          GroundTruth(query, scheme, 10);
      // Byte-for-byte: the %.17g rendering of both rankings must agree.
      EXPECT_EQ(
          server::SearchService::FormatResultsFragment(gathered->results),
          server::SearchService::FormatResultsFragment(expected))
          << scheme << " " << query;

      // The pinned statistics ride as a collection-level overlay, which
      // leaves block-max pruning licensed: every shard prunes the keyword
      // queries of the bounded schemes, and nothing else.
      const std::string_view name = scheme;
      const bool keyword_query = std::string_view(query) == "software" ||
                                 std::string_view(query) ==
                                     "san francisco fault line";
      const bool prunes = keyword_query && (name == "AnySum" ||
                                            name == "AnyProd" ||
                                            name == "Lucene");
      for (size_t shard = 0; shard < kShards; ++shard) {
        const uint64_t after =
            PrunedSearches(topology.services[shard]->port());
        if (prunes) {
          EXPECT_GT(after, pruned_before[shard])
              << scheme << " " << query << " shard " << shard;
        } else {
          EXPECT_EQ(after, pruned_before[shard])
              << scheme << " " << query << " shard " << shard;
        }
      }
    }
  }
}

TEST(ScatterGatherTest, LargeKCoversFullCorpusOrdering) {
  // k larger than any shard's hit count: the merge must interleave whole
  // shard result lists correctly, not just heads.
  Topology& topology = SharedTopology();
  ScatterGather gather(topology.replica_ports, FastGatherOptions());
  const std::string query = "software";
  auto gathered =
      gather.Search(TermsOf(query), Tail(query, "MeanSum"), 100000,
                    kBudgetMs);
  ASSERT_TRUE(gathered.ok()) << gathered.status();
  const std::vector<ma::ScoredDoc> expected =
      GroundTruth(query, "MeanSum", 100000);
  EXPECT_EQ(server::SearchService::FormatResultsFragment(gathered->results),
            server::SearchService::FormatResultsFragment(expected));
}

TEST(ScatterGatherTest, GenerationConflictInvalidatesEpochAndRecovers) {
  // A dedicated topology where shard 0 is reloadable (index saved to
  // disk), so its generation can move between the router's stats
  // collection and the fanned-out search.
  Topology& shared = SharedTopology();
  const std::string path = ::testing::TempDir() + "/graft_router_gen_" +
                           std::to_string(::getpid()) + ".idx";
  ASSERT_TRUE(index::SaveIndex(*shared.shard_bundles[0].index, path).ok());
  auto loaded = core::LoadEngineBundle(path, /*segments=*/1, 0);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto bundle = std::make_shared<const core::EngineBundle>(
      std::move(loaded).value());
  server::ServiceOptions options = LenientOptions();
  options.index_path = path;
  options.segments = 1;
  server::SearchService reloadable(bundle, options);
  ASSERT_TRUE(reloadable.Start().ok());

  std::vector<std::vector<uint16_t>> ports = shared.replica_ports;
  ports[0] = {reloadable.port()};
  ScatterGather gather(ports, FastGatherOptions());

  const std::string query = "free software";
  // Prime the stats cache at generation 1...
  std::vector<uint64_t> bases;
  std::vector<uint64_t> generations;
  ASSERT_TRUE(gather
                  .CollectStats(TermsOf(query), kBudgetMs, &bases,
                                &generations)
                  .ok());
  EXPECT_EQ(generations[0], 1u);
  const uint64_t epoch_before = gather.stats_epoch();

  // ...then reload shard 0 (same file: scores unchanged, generation 2).
  ASSERT_TRUE(reloadable.Reload().ok());
  ASSERT_EQ(reloadable.generation(), 2u);

  // The search fans out with expect_gen=1, gets 409 from shard 0,
  // invalidates the epoch, re-collects at generation 2, and succeeds.
  auto gathered =
      gather.Search(TermsOf(query), Tail(query, "MeanSum"), 10, kBudgetMs);
  ASSERT_TRUE(gathered.ok()) << gathered.status();
  EXPECT_FALSE(gathered->degraded);
  EXPECT_GE(gather.counters().gen_conflicts.load(), 1u);
  EXPECT_GE(gather.counters().stats_refreshes.load(), 1u);
  EXPECT_GT(gather.stats_epoch(), epoch_before);
  EXPECT_EQ(server::SearchService::FormatResultsFragment(gathered->results),
            server::SearchService::FormatResultsFragment(
                GroundTruth(query, "MeanSum", 10)));
  EXPECT_GE(reloadable.stats().generation_conflicts.load(), 1u);

  reloadable.Shutdown();
  std::remove(path.c_str());
}

// Partial-result policies need a killable shard, so these tests build
// their own private topology instead of sharing the static one.
struct PrivateTopology {
  std::vector<std::unique_ptr<server::SearchService>> services;
  std::vector<std::vector<uint16_t>> ports;
};

PrivateTopology MakePrivateTopology() {
  Topology& shared = SharedTopology();
  PrivateTopology topology;
  for (size_t shard = 0; shard < kShards; ++shard) {
    topology.services.push_back(std::make_unique<server::SearchService>(
        shared.shard_bundles[shard].engine.get(), LenientOptions()));
    EXPECT_TRUE(topology.services.back()->Start().ok());
    topology.ports.push_back({topology.services.back()->port()});
  }
  return topology;
}

TEST(ScatterGatherTest, CachedTermsDegradeToPartialWhenShardDies) {
  PrivateTopology topology = MakePrivateTopology();
  ScatterGatherOptions options = FastGatherOptions();
  options.partial_policy = PartialPolicy::kPartial;
  ScatterGather gather(topology.ports, options);

  const std::string query = "free software";
  // First query primes the stats cache while every shard is up.
  auto first =
      gather.Search(TermsOf(query), Tail(query, "MeanSum"), 10, kBudgetMs);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_FALSE(first->degraded);

  // Kill shard 1. The same query's terms are cached, so phase 1 needs no
  // shard contact and phase 2 degrades to a partial merge.
  topology.services[1]->Shutdown();
  auto partial =
      gather.Search(TermsOf(query), Tail(query, "MeanSum"), 10, kBudgetMs);
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_TRUE(partial->degraded);
  EXPECT_EQ(partial->shards_total, kShards);
  EXPECT_EQ(partial->shards_ok, kShards - 1);
  EXPECT_EQ(partial->outcomes[1].outcome, "failed");
  EXPECT_FALSE(partial->outcomes[1].error.empty());
  EXPECT_EQ(partial->outcomes[0].outcome, "ok");
  EXPECT_EQ(partial->outcomes[2].outcome, "ok");
  EXPECT_GE(gather.counters().gathers_partial.load(), 1u);

  // The surviving shards' contributions are still bit-exact: any doc that
  // also appeared in the healthy top-10 must carry the identical score
  // (results past the healthy top-10 may legitimately surface once shard
  // 1's hits vanish — those have nothing to compare against).
  for (const ma::ScoredDoc& hit : partial->results) {
    for (const ma::ScoredDoc& truth : first->results) {
      if (truth.doc == hit.doc) {
        EXPECT_EQ(truth.score, hit.score);
        break;
      }
    }
  }
}

TEST(ScatterGatherTest, FailPolicyRefusesPartialResults) {
  PrivateTopology topology = MakePrivateTopology();
  ScatterGatherOptions options = FastGatherOptions();
  options.partial_policy = PartialPolicy::kFail;
  ScatterGather gather(topology.ports, options);

  const std::string query = "software";
  ASSERT_TRUE(gather.Search(TermsOf(query), Tail(query, "MeanSum"), 10,
                            kBudgetMs)
                  .ok());
  topology.services[2]->Shutdown();
  auto refused = gather.Search(TermsOf(query), Tail(query, "MeanSum"), 10,
                               kBudgetMs);
  EXPECT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find("partial results forbidden"),
            std::string::npos)
      << refused.status();
  EXPECT_GE(gather.counters().gathers_failed.load(), 1u);
}

TEST(ScatterGatherTest, ColdCacheRequiresEveryShard) {
  PrivateTopology topology = MakePrivateTopology();
  ScatterGatherOptions options = FastGatherOptions();
  options.partial_policy = PartialPolicy::kPartial;  // even under kPartial
  ScatterGather gather(topology.ports, options);
  topology.services[0]->Shutdown();
  // No cached statistics: honest global df/cf sums need every shard, so
  // the request fails outright rather than degrading to dishonest scores.
  auto gathered = gather.Search(TermsOf("software"),
                                Tail("software", "MeanSum"), 10, kBudgetMs);
  EXPECT_FALSE(gathered.ok());
  EXPECT_NE(
      gathered.status().message().find("stats collection failed"),
      std::string::npos)
      << gathered.status();
}

// A protocol-speaking stub replica with a configurable pre-reply delay —
// the straggler in the hedging test. Serves one shard whose corpus is
// `doc_count` docs; /search answers a canned result list.
class StubReplica {
 public:
  StubReplica(uint64_t delay_ms, std::string search_results_json)
      : delay_ms_(delay_ms), results_(std::move(search_results_json)) {}
  ~StubReplica() { Stop(); }

  Status Start() {
    GRAFT_RETURN_IF_ERROR(listener_.Bind(0));
    running_ = true;
    thread_ = std::thread([this] { Loop(); });
    return Status::Ok();
  }

  void Stop() {
    if (!running_) return;
    stopping_.store(true);
    listener_.Interrupt();
    thread_.join();
    listener_.Close();
    running_ = false;
  }

  uint16_t port() const { return listener_.port(); }
  uint64_t searches() const { return searches_.load(); }

 private:
  void Loop() {
    while (!stopping_.load()) {
      StatusOr<int> accepted = listener_.Accept(2000);
      if (!accepted.ok()) {
        if (stopping_.load()) return;
        continue;
      }
      const int fd = *accepted;
      StatusOr<server::HttpRequest> request = server::ReadRequest(fd);
      if (request.ok()) {
        std::string body;
        if (request->path == "/shard/stats") {
          body =
              "{\"generation\":1,\"doc_count\":4,\"total_words\":40,"
              "\"terms\":[{\"term\":\"x\",\"df\":2,\"cf\":3}]}";
        } else {
          searches_.fetch_add(1);
          if (delay_ms_ > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay_ms_));
          }
          body = "{\"results\":[" + results_ + "]}";
        }
        (void)server::WriteResponse(fd, 200, "application/json", body);
      }
      ::close(fd);
    }
  }

  const uint64_t delay_ms_;
  const std::string results_;
  server::TcpListener listener_;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> searches_{0};
  bool running_ = false;
};

TEST(ScatterGatherTest, HedgeRacesStragglerAndFastReplicaWins) {
  const std::string results = "{\"doc\":0,\"score\":2},{\"doc\":1,\"score\":1}";
  StubReplica slow(/*delay_ms=*/1500, results);
  StubReplica fast(/*delay_ms=*/0, results);
  ASSERT_TRUE(slow.Start().ok());
  ASSERT_TRUE(fast.Start().ok());

  ScatterGatherOptions options = FastGatherOptions();
  options.hedge_ms = 60;
  ScatterGather gather({{slow.port(), fast.port()}}, options);

  // Run a handful of searches: round-robin rotation guarantees some
  // primaries land on the straggler, each of which must hedge to the fast
  // replica and finish far sooner than the straggler's delay.
  size_t hedged_and_fast = 0;
  for (int i = 0; i < 4; ++i) {
    const auto start = std::chrono::steady_clock::now();
    auto gathered = gather.Search({"x"}, "q=x&scheme=AnySum", 2, kBudgetMs);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    ASSERT_TRUE(gathered.ok()) << gathered.status();
    ASSERT_EQ(gathered->results.size(), 2u);
    EXPECT_EQ(gathered->results[0].doc, 0u);
    EXPECT_EQ(gathered->results[0].score, 2.0);
    if (gathered->outcomes[0].hedged && elapsed.count() < 1200) {
      ++hedged_and_fast;
    }
  }
  EXPECT_GE(hedged_and_fast, 1u);
  EXPECT_GE(gather.counters().hedges_launched.load(), 1u);
  EXPECT_GE(gather.counters().hedges_won.load(), 1u);
}

TEST(ScatterGatherTest, MergeBreaksTiesByGlobalDocId) {
  // Two stub shards with equal scores: merged order must be score desc,
  // then GLOBAL doc id asc (shard 0's docs first at equal score).
  StubReplica shard0(0, "{\"doc\":1,\"score\":5},{\"doc\":3,\"score\":3}");
  StubReplica shard1(0, "{\"doc\":0,\"score\":5},{\"doc\":2,\"score\":4}");
  ASSERT_TRUE(shard0.Start().ok());
  ASSERT_TRUE(shard1.Start().ok());
  ScatterGather gather({{shard0.port()}, {shard1.port()}},
                       FastGatherOptions());
  auto gathered = gather.Search({"x"}, "q=x&scheme=AnySum", 10, kBudgetMs);
  ASSERT_TRUE(gathered.ok()) << gathered.status();
  // Shard doc_count is 4 (stub stats), so shard 1's base is 4.
  ASSERT_EQ(gathered->results.size(), 4u);
  EXPECT_EQ(gathered->results[0].doc, 1u);   // score 5, global 1
  EXPECT_EQ(gathered->results[1].doc, 4u);   // score 5, global 4 (=0+4)
  EXPECT_EQ(gathered->results[2].doc, 6u);   // score 4, global 6 (=2+4)
  EXPECT_EQ(gathered->results[3].doc, 3u);   // score 3, global 3
}

}  // namespace
}  // namespace graft::router
