// Observability endpoints of SearchService, over real sockets:
//
//   * /metrics conforms to the Prometheus text exposition format 0.0.4:
//     every line is a comment, a HELP/TYPE declaration, or a sample whose
//     value parses as a number; every sample belongs to a TYPE-declared
//     family; summaries carry quantile labels plus _sum/_count;
//   * /metrics counters agree with the traffic the test actually sent;
//   * ?explain=1 appends the explain block — pinned generation, the FULL
//     rewrite-attempt table (one entry per catalog optimization, each with
//     a gate verdict), every ExecStats counter, and a span trace with
//     parse → optimize → execute spans — and plain requests omit it;
//   * an explain that overlaps a hot reload reports the generation it
//     actually executed on (the pinned snapshot), not the post-reload one;
//   * the slow-query threshold counts into stats.slow_queries and
//     graft_slow_queries_total.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/optimization_gate.h"
#include "core/request.h"
#include "exec/operators.h"
#include "index/index_io.h"
#include "index/inverted_index.h"
#include "server/http.h"
#include "server/search_service.h"
#include "text/corpus.h"

namespace graft::server {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/graft_" + std::to_string(::getpid()) +
         "_" + name;
}

index::InvertedIndex BuildCorpusIndex(uint64_t docs, uint64_t seed) {
  text::CorpusConfig config = text::WikipediaLikeConfig(docs, seed);
  index::IndexBuilder builder;
  text::CorpusGenerator generator(config);
  generator.Generate(
      [&builder](uint64_t, const std::vector<std::string_view>& tokens) {
        builder.AddDocument(tokens);
      });
  return builder.Build();
}

const core::EngineBundle& SharedBundle() {
  static const core::EngineBundle& bundle = *[] {
    auto made = core::MakeEngineBundle(BuildCorpusIndex(150, /*seed=*/71),
                                       /*segments=*/2, /*pool_threads=*/2);
    EXPECT_TRUE(made.ok()) << made.status();
    return new core::EngineBundle(std::move(made).value());
  }();
  return bundle;
}

std::string SearchTarget(const std::string& query, const std::string& scheme,
                         size_t k, bool explain = false) {
  std::string target = "/search?q=" + UrlEncode(query) +
                       "&scheme=" + scheme + "&k=" + std::to_string(k);
  if (explain) target += "&explain=1";
  return target;
}

// ---- Prometheus text-format conformance ----------------------------------

bool IsMetricName(const std::string& name) {
  if (name.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_' &&
      name[0] != ':') {
    return false;
  }
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != ':') {
      return false;
    }
  }
  return true;
}

// Strips a trailing _sum/_count/_bucket so summary samples map back to
// their declared family name.
std::string FamilyOf(const std::string& sample_name) {
  for (const char* suffix : {"_sum", "_count", "_bucket"}) {
    const std::string s(suffix);
    if (sample_name.size() > s.size() &&
        sample_name.compare(sample_name.size() - s.size(), s.size(), s) ==
            0) {
      return sample_name.substr(0, sample_name.size() - s.size());
    }
  }
  return sample_name;
}

// Validates the exposition format and fills `samples` with values keyed by
// the full sample text before the value ("name" or "name{labels}").
// Void because ASSERT_* requires it; drive through ASSERT_NO_FATAL_FAILURE.
void ParseExposition(const std::string& body,
                     std::map<std::string, double>* samples_out) {
  std::map<std::string, double>& samples = *samples_out;
  EXPECT_FALSE(body.empty());
  EXPECT_EQ(body.back(), '\n') << "exposition must end in a newline";

  std::map<std::string, std::string> types;  // family -> counter/gauge/...
  std::set<std::string> helped;
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# HELP ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string name;
      fields >> name;
      ASSERT_TRUE(IsMetricName(name)) << line;
      EXPECT_TRUE(helped.insert(name).second)
          << "duplicate HELP for " << name;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string name, type;
      fields >> name >> type;
      ASSERT_TRUE(IsMetricName(name)) << line;
      ASSERT_TRUE(type == "counter" || type == "gauge" || type == "summary" ||
                  type == "histogram" || type == "untyped")
          << line;
      EXPECT_TRUE(types.emplace(name, type).second)
          << "duplicate TYPE for " << name;
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment form: " << line;

    // Sample: name[{labels}] value
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string key = line.substr(0, space);
    const std::string value_text = line.substr(space + 1);
    char* end = nullptr;
    const double value = std::strtod(value_text.c_str(), &end);
    ASSERT_TRUE(end != nullptr && *end == '\0')
        << "unparsable value in: " << line;

    std::string name = key;
    const size_t brace = key.find('{');
    if (brace != std::string::npos) {
      ASSERT_EQ(key.back(), '}') << line;
      name = key.substr(0, brace);
    }
    ASSERT_TRUE(IsMetricName(name)) << line;
    const std::string family = FamilyOf(name);
    EXPECT_TRUE(types.count(family) == 1 || types.count(name) == 1)
        << "sample without TYPE declaration: " << line;
    samples[key] = value;
  }
}

TEST(MetricsTest, PrometheusExpositionConformsAndCountsTraffic) {
  ServiceOptions options;
  SearchService service(SharedBundle().engine.get(), options);
  ASSERT_TRUE(service.Start().ok());

  constexpr int kSearches = 3;
  for (int i = 0; i < kSearches; ++i) {
    auto response =
        HttpGet(service.port(), SearchTarget("software", "MeanSum", 5));
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->status_code, 200);
  }
  auto bad = HttpGet(service.port(), "/search?scheme=MeanSum");  // missing q
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status_code, 400);

  auto metrics = HttpGet(service.port(), "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics->status_code, 200);
  const auto content_type = metrics->headers.find("content-type");
  ASSERT_NE(content_type, metrics->headers.end());
  EXPECT_NE(content_type->second.find("text/plain"), std::string::npos);
  EXPECT_NE(content_type->second.find("version=0.0.4"), std::string::npos);

  std::map<std::string, double> samples;
  ASSERT_NO_FATAL_FAILURE(ParseExposition(metrics->body, &samples));

  EXPECT_GE(samples.at("graft_requests_total"), kSearches + 1);
  EXPECT_GE(samples.at("graft_responses_ok_total"), kSearches);
  EXPECT_GE(samples.at("graft_client_errors_total"), 1);
  // Every /search response is a latency sample, whatever its code: the
  // successful searches and the missing-q 400.
  EXPECT_EQ(samples.at("graft_search_latency_microseconds_count"),
            kSearches + 1);
  EXPECT_GT(samples.at("graft_search_latency_microseconds_sum"), 0);
  for (const char* quantile : {"0.5", "0.95", "0.99"}) {
    EXPECT_TRUE(samples.count(
        "graft_search_latency_microseconds{quantile=\"" +
        std::string(quantile) + "\"}"))
        << "missing quantile " << quantile;
  }
  EXPECT_EQ(samples.at("graft_search_by_scheme_total{scheme=\"MeanSum\"}"),
            kSearches);
  EXPECT_EQ(samples.at("graft_index_generation"), 1);
  EXPECT_EQ(samples.at("graft_degraded"), 0);
  EXPECT_EQ(samples.at("graft_inflight_requests"), 1);  // this /metrics call
  EXPECT_TRUE(samples.count("graft_uptime_seconds"));

  service.Shutdown();
}

// ---- ?explain=1 ----------------------------------------------------------

TEST(ExplainEndpointTest, ExplainBlockCarriesRewritesCountersAndTrace) {
  ServiceOptions options;
  SearchService service(SharedBundle().engine.get(), options);
  ASSERT_TRUE(service.Start().ok());

  auto plain = HttpGet(service.port(),
                       SearchTarget("free software", "MeanSum", 5));
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ(plain->status_code, 200);
  EXPECT_EQ(plain->body.find("\"explain\""), std::string::npos)
      << "explain block must be opt-in";

  auto explained = HttpGet(
      service.port(),
      SearchTarget("free software", "MeanSum", 5, /*explain=*/true));
  ASSERT_TRUE(explained.ok()) << explained.status();
  EXPECT_EQ(explained->status_code, 200);
  const std::string& body = explained->body;

  EXPECT_NE(body.find("\"explain\":{\"generation\":1,"), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"plan\":\""), std::string::npos);

  // The rewrite table is complete: one entry per catalog optimization,
  // each with a verdict.
  for (const core::Optimization opt : core::kAllOptimizations) {
    EXPECT_NE(body.find("\"name\":\"" + core::OptimizationName(opt) + "\""),
              std::string::npos)
        << "missing rewrite entry for " << core::OptimizationName(opt);
  }
  size_t verdicts = 0;
  for (size_t pos = body.find("\"verdict\":"); pos != std::string::npos;
       pos = body.find("\"verdict\":", pos + 1)) {
    ++verdicts;
  }
  EXPECT_EQ(verdicts, std::size(core::kAllOptimizations));
  EXPECT_NE(body.find("\"fired\":true"), std::string::npos)
      << "at least one rewrite must fire for a conjunction under MeanSum";

  // The explain "exec" object carries exactly the ExecStats table's keys,
  // in table order.
  const size_t exec_begin = body.find("],\"exec\":{");
  ASSERT_NE(exec_begin, std::string::npos) << body;
  const std::string exec_object =
      body.substr(exec_begin, body.find('}', exec_begin) - exec_begin);
  std::vector<std::string> keys;
  const std::regex key("\"([a-z_]+)\":[0-9]+");
  for (auto it = std::sregex_iterator(exec_object.begin(), exec_object.end(),
                                      key);
       it != std::sregex_iterator(); ++it) {
    keys.push_back((*it)[1]);
  }
  std::vector<std::string> expected;
  for (const exec::ExecCounter& counter : exec::kExecCounters) {
    expected.emplace_back(counter.name);
  }
  EXPECT_EQ(keys, expected);

  // The span trace shows the pipeline stages. (No parse span here: the
  // server hands the engine a pre-parsed query via ResolveRequest.)
  EXPECT_NE(body.find("\"trace\":[{"), std::string::npos);
  for (const char* span :
       {"\"name\":\"optimize\"", "\"name\":\"execute\""}) {
    EXPECT_NE(body.find(span), std::string::npos) << "missing span " << span;
  }
  EXPECT_NE(body.find("rewrite "), std::string::npos)
      << "optimize span should contain per-rewrite events";

  service.Shutdown();
}

TEST(ExplainEndpointTest, ExplainOverlappingReloadReportsPinnedGeneration) {
  const std::string index_path = TempPath("explain_reload.idx");
  ASSERT_TRUE(
      index::SaveIndex(BuildCorpusIndex(100, /*seed=*/13), index_path).ok());
  auto loaded = core::LoadEngineBundle(index_path, /*segments=*/2,
                                       /*pool_threads=*/2);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  ServiceOptions options;
  options.index_path = index_path;
  options.segments = 2;
  options.engine_threads = 2;
  options.default_deadline_ms = 120000;
  options.max_deadline_ms = 120000;
  // The handler pins its engine snapshot + generation BEFORE this delay,
  // so a reload landing inside the window must not change what the explain
  // block reports.
  options.test_search_delay_ms = 400;
  SearchService service(
      std::make_shared<const core::EngineBundle>(std::move(loaded).value()),
      options);
  ASSERT_TRUE(service.Start().ok());

  StatusOr<HttpClientResponse> explained = Status::Internal("not run");
  std::thread searcher([&] {
    explained = HttpGet(service.port(),
                        SearchTarget("software", "MeanSum", 5, true),
                        /*timeout_ms=*/30000);
  });
  // Let the handler pin generation 1, then swap in generation 2 while the
  // search is still sleeping in its delay window.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_TRUE(service.Reload().ok());
  EXPECT_EQ(service.generation(), 2u);
  searcher.join();

  ASSERT_TRUE(explained.ok()) << explained.status();
  EXPECT_EQ(explained->status_code, 200);
  EXPECT_NE(explained->body.find("\"explain\":{\"generation\":1,"),
            std::string::npos)
      << "explain must describe the pinned (pre-reload) generation: "
      << explained->body.substr(0, 300);

  // A fresh explain after the reload reports the new generation.
  auto after = HttpGet(service.port(),
                       SearchTarget("software", "MeanSum", 5, true),
                       /*timeout_ms=*/30000);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_NE(after->body.find("\"explain\":{\"generation\":2,"),
            std::string::npos);

  service.Shutdown();
  std::remove(index_path.c_str());
}

TEST(MetricsTest, PrunedSearchCountsIntoMetricsStatsAndExplain) {
  ServiceOptions options;
  SearchService service(SharedBundle().engine.get(), options);
  ASSERT_TRUE(service.Start().ok());

  // AnySum licenses block-max pruning (α bounded, ⊕ idempotent); the
  // activation invariant says the pruned operator fires on every licensed
  // top-k keyword search.
  auto pruned = HttpGet(
      service.port(), SearchTarget("free software", "AnySum", 5, true));
  ASSERT_TRUE(pruned.ok()) << pruned.status();
  EXPECT_EQ(pruned->status_code, 200);
  EXPECT_NE(pruned->body.find("\"used_block_max_pruning\":true"),
            std::string::npos)
      << pruned->body.substr(0, 400);
  EXPECT_NE(pruned->body.find("\"topk_ceiling_probes\":"), std::string::npos);

  // MeanSum's α is not upper-boundable: same query, pruning must not fire.
  auto blocked = HttpGet(
      service.port(), SearchTarget("free software", "MeanSum", 5, true));
  ASSERT_TRUE(blocked.ok()) << blocked.status();
  EXPECT_EQ(blocked->status_code, 200);
  EXPECT_NE(blocked->body.find("\"used_block_max_pruning\":false"),
            std::string::npos);
  EXPECT_NE(blocked->body.find("blocked by gate"), std::string::npos)
      << "the explain rewrite table must carry the blocking verdict";

  EXPECT_GE(service.stats().pruned_searches.load(), 1u);
  auto metrics = HttpGet(service.port(), "/metrics");
  ASSERT_TRUE(metrics.ok());
  std::map<std::string, double> samples;
  ASSERT_NO_FATAL_FAILURE(ParseExposition(metrics->body, &samples));
  EXPECT_GE(samples.at("graft_pruned_searches_total"), 1);
  EXPECT_TRUE(samples.count("graft_topk_blocks_skipped_total"));
  // Per-rule fire counts: the MeanSum search executed the full rewritten
  // plan, so its fired plan rules (join_reordering among them) were
  // stamped; the AnySum search took the pruned rank path, which skips the
  // plan rewrites entirely.
  EXPECT_GE(
      samples["graft_rewrite_rule_fired_total{rule=\"join_reordering\"}"], 1)
      << metrics->body;
  auto stats = HttpGet(service.port(), "/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->body.find("\"pruned_searches\":"), std::string::npos);
  EXPECT_NE(stats->body.find("\"topk_blocks_skipped\":"), std::string::npos);
  EXPECT_NE(stats->body.find("\"rule_fired\":{"), std::string::npos);
  EXPECT_NE(stats->body.find("\"join_reordering\":"), std::string::npos);

  service.Shutdown();
}

TEST(SlowQueryTest, ThresholdCountsIntoStatsAndMetrics) {
  ServiceOptions options;
  options.slow_query_ms = 1;         // everything is "slow"
  options.test_search_delay_ms = 5;  // guarantee the threshold trips
  SearchService service(SharedBundle().engine.get(), options);
  ASSERT_TRUE(service.Start().ok());

  auto response =
      HttpGet(service.port(), SearchTarget("software", "Lucene", 5));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status_code, 200);

  EXPECT_EQ(service.stats().slow_queries.load(), 1u);
  auto metrics = HttpGet(service.port(), "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->body.find("graft_slow_queries_total 1\n"),
            std::string::npos);
  auto stats = HttpGet(service.port(), "/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->body.find("\"slow_queries\":1"), std::string::npos);

  service.Shutdown();
}

}  // namespace
}  // namespace graft::server
