// RouterService end-to-end over real sockets: a graft_router front end in
// front of three live shard servers. Covers the HTTP contract (bit-identical
// merged rankings, the always-present degradation fields, explain, /stats,
// /metrics, /healthz), input validation, partial degradation over HTTP when
// a shard dies, and fail-fast startup on an occupied port — plus the /search
// front the router shares with SearchService, driven against both.

#include "router/router_service.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "core/request.h"
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
constexpr int kHttpTimeoutMs = 120000;

server::ServiceOptions LenientShardOptions() {
  server::ServiceOptions options;
  options.default_deadline_ms = 120000;
  options.max_deadline_ms = 120000;
  options.max_top_k = 100000;
  return options;
}

RouterOptions LenientRouterOptions() {
  RouterOptions options;
  options.default_deadline_ms = 120000;
  options.max_deadline_ms = 120000;
  options.max_top_k = 100000;
  options.io_timeout_ms = kHttpTimeoutMs;
  options.gather.client.max_attempts = 2;
  options.gather.client.backoff_base_ms = 1;
  options.gather.client.backoff_max_ms = 4;
  options.gather.client.io_timeout_ms = kHttpTimeoutMs;
  return options;
}

struct Fixture {
  core::EngineBundle full;
  std::vector<core::EngineBundle> shard_bundles;
  std::vector<std::unique_ptr<server::SearchService>> shards;
  std::unique_ptr<RouterService> router;
};

Fixture* MakeFixture() {
  auto* fixture = new Fixture();
  std::vector<std::vector<std::string>> docs;
  text::CorpusGenerator generator(text::WikipediaLikeConfig(400, /*seed=*/29));
  generator.Generate(
      [&docs](uint64_t, const std::vector<std::string_view>& tokens) {
        docs.emplace_back(tokens.begin(), tokens.end());
      });

  index::IndexBuilder full_builder;
  for (const auto& doc : docs) full_builder.AddDocumentStrings(doc);
  auto full = core::MakeEngineBundle(full_builder.Build(), 1, 0);
  EXPECT_TRUE(full.ok()) << full.status();
  fixture->full = std::move(full).value();

  const size_t chunk = (docs.size() + kShards - 1) / kShards;
  std::vector<std::vector<uint16_t>> replica_ports;
  for (size_t shard = 0; shard < kShards; ++shard) {
    index::IndexBuilder builder;
    const size_t begin = shard * chunk;
    const size_t end = std::min(docs.size(), begin + chunk);
    for (size_t i = begin; i < end; ++i) builder.AddDocumentStrings(docs[i]);
    auto bundle = core::MakeEngineBundle(builder.Build(), 1, 0);
    EXPECT_TRUE(bundle.ok()) << bundle.status();
    fixture->shard_bundles.push_back(std::move(bundle).value());
    fixture->shards.push_back(std::make_unique<server::SearchService>(
        fixture->shard_bundles.back().engine.get(), LenientShardOptions()));
    EXPECT_TRUE(fixture->shards.back()->Start().ok());
    replica_ports.push_back({fixture->shards.back()->port()});
  }
  fixture->router = std::make_unique<RouterService>(replica_ports,
                                                    LenientRouterOptions());
  EXPECT_TRUE(fixture->router->Start().ok());
  return fixture;
}

Fixture& Shared() {
  static Fixture& fixture = *MakeFixture();
  return fixture;
}

std::string SearchTarget(const std::string& query, const std::string& scheme,
                         size_t k) {
  return "/search?q=" + server::UrlEncode(query) + "&scheme=" + scheme +
         "&k=" + std::to_string(k);
}

std::string ExpectedFragment(const std::string& query,
                             const std::string& scheme, size_t k) {
  Fixture& fixture = Shared();
  core::SearchRequestParams params;
  params.query = query;
  params.scheme = scheme;
  params.top_k = k;
  auto resolved = core::ResolveRequest(*fixture.full.engine, params);
  EXPECT_TRUE(resolved.ok()) << resolved.status();
  auto result = fixture.full.engine->SearchQuery(
      resolved->query, *resolved->scheme, resolved->options);
  EXPECT_TRUE(result.ok()) << result.status();
  return server::SearchService::FormatResultsFragment(result->results);
}

server::HttpClientResponse Get(uint16_t port, const std::string& target) {
  auto response = server::HttpGet(port, target, kHttpTimeoutMs);
  EXPECT_TRUE(response.ok()) << target << ": " << response.status();
  return response.ok() ? *response : server::HttpClientResponse{};
}

TEST(RouterServiceTest, MergedRankingBitIdenticalToSingleProcess) {
  Fixture& fixture = Shared();
  for (const char* scheme : kSchemes) {
    for (const char* query : kQueries) {
      const auto response =
          Get(fixture.router->port(), SearchTarget(query, scheme, 10));
      ASSERT_EQ(response.status_code, 200) << scheme << " " << query << " "
                                           << response.body;
      EXPECT_NE(response.body.find(ExpectedFragment(query, scheme, 10)),
                std::string::npos)
          << scheme << " " << query << "\n" << response.body;
      EXPECT_NE(response.body.find("\"degraded\":false"), std::string::npos);
      EXPECT_NE(response.body.find("\"shards_ok\":3"), std::string::npos);
    }
  }
}

TEST(RouterServiceTest, ResponseCarriesDegradationContract) {
  Fixture& fixture = Shared();
  const auto response =
      Get(fixture.router->port(), SearchTarget("software", "MeanSum", 5));
  ASSERT_EQ(response.status_code, 200) << response.body;
  // The contract fields are present on every response, healthy or not.
  EXPECT_NE(response.body.find("\"degraded\":false"), std::string::npos);
  EXPECT_NE(response.body.find("\"shards_total\":3"), std::string::npos);
  EXPECT_NE(response.body.find("\"shards_ok\":3"), std::string::npos);
  EXPECT_NE(response.body.find("\"shards\":["), std::string::npos);
  EXPECT_NE(response.body.find("\"outcome\":\"ok\""), std::string::npos);
  EXPECT_NE(response.body.find("\"timings\":{"), std::string::npos);
  // No explain block unless asked.
  EXPECT_EQ(response.body.find("\"explain\":"), std::string::npos);
}

TEST(RouterServiceTest, ExplainBlockReportsStatsEpochAndPolicy) {
  Fixture& fixture = Shared();
  const auto response = Get(
      fixture.router->port(),
      SearchTarget("free software", "Lucene", 5) + "&explain=1");
  ASSERT_EQ(response.status_code, 200) << response.body;
  EXPECT_NE(response.body.find("\"explain\":{"), std::string::npos);
  EXPECT_NE(response.body.find("\"stats_epoch\":"), std::string::npos);
  EXPECT_NE(response.body.find("\"policy\":\"partial\""), std::string::npos);
  EXPECT_NE(response.body.find("\"terms\":["), std::string::npos);
  EXPECT_NE(response.body.find("\"free\""), std::string::npos);
  EXPECT_NE(response.body.find("\"software\""), std::string::npos);
}

TEST(RouterServiceTest, RejectsMalformedRequests) {
  Fixture& fixture = Shared();
  const uint16_t port = fixture.router->port();
  // Missing q.
  EXPECT_EQ(Get(port, "/search?scheme=MeanSum").status_code, 400);
  // Unparseable query.
  EXPECT_EQ(Get(port, "/search?q=%28unclosed").status_code, 400);
  // k=0 (distributed top-all is refused, unlike the single server).
  EXPECT_EQ(Get(port, "/search?q=software&k=0").status_code, 400);
  // k over the cap.
  EXPECT_EQ(Get(port, "/search?q=software&k=999999999").status_code, 400);
  // Unknown scheme.
  EXPECT_EQ(Get(port, "/search?q=software&scheme=NoSuch").status_code, 404);
  // Unknown endpoint.
  EXPECT_EQ(Get(port, "/nosuch").status_code, 404);
  const auto& stats = fixture.router->stats();
  EXPECT_GE(stats.client_errors.load(), 6u);
}

TEST(RouterServiceTest, StatsEndpointReportsGatherCounters) {
  Fixture& fixture = Shared();
  // At least one successful search on record.
  ASSERT_EQ(
      Get(fixture.router->port(), SearchTarget("software", "MeanSum", 3))
          .status_code,
      200);
  const auto response = Get(fixture.router->port(), "/stats");
  ASSERT_EQ(response.status_code, 200);
  for (const char* field :
       {"\"requests_total\":", "\"responses_ok\":", "\"bad_gateway\":",
        "\"partial_responses\":", "\"gathers\":{\"total\":",
        "\"hedges_launched\":", "\"stats_refreshes\":", "\"gen_conflicts\":",
        "\"stats_epoch\":", "\"shards\":[", "\"search_latency\":",
        "\"by_scheme\":", "\"uptime_s\":"}) {
    EXPECT_NE(response.body.find(field), std::string::npos)
        << field << " missing from " << response.body;
  }
}

TEST(RouterServiceTest, MetricsExposeRouterAndPerShardSeries) {
  Fixture& fixture = Shared();
  ASSERT_EQ(
      Get(fixture.router->port(), SearchTarget("software", "AnySum", 3))
          .status_code,
      200);
  const auto response = Get(fixture.router->port(), "/metrics");
  ASSERT_EQ(response.status_code, 200);
  for (const char* series :
       {"graft_router_requests_total", "graft_router_responses_ok_total",
        "graft_router_bad_gateway_total",
        "graft_router_partial_responses_total", "graft_router_gathers_total",
        "graft_router_gathers_partial_total",
        "graft_router_hedges_launched_total",
        "graft_router_stats_refreshes_total",
        "graft_router_gen_conflicts_total", "graft_router_stats_epoch",
        "graft_router_shard_attempts_total{shard=\"0\"}",
        "graft_router_shard_failures_total{shard=\"1\"}",
        "graft_router_shard_ejections_total{shard=\"2\"}",
        "graft_router_shard_healthy_replicas{shard=\"0\"}",
        "graft_router_search_latency_seconds",
        "graft_router_uptime_seconds"}) {
    EXPECT_NE(response.body.find(series), std::string::npos)
        << series << " missing from " << response.body;
  }
}

TEST(RouterServiceTest, HealthzReportsPerShardReplicaHealth) {
  Fixture& fixture = Shared();
  const auto response = Get(fixture.router->port(), "/healthz");
  ASSERT_EQ(response.status_code, 200);
  EXPECT_NE(response.body.find("\"status\":\"ok\""), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"shards\":["), std::string::npos);
  EXPECT_NE(response.body.find("\"healthy\":1"), std::string::npos);
}

TEST(RouterServiceTest, ShardDeathDegradesOverHttp) {
  // Private topology: this test kills a shard. Shard engines are borrowed
  // from the shared fixture (non-owning services), only the processes'
  // stand-ins — the services — are private.
  Fixture& shared = Shared();
  std::vector<std::unique_ptr<server::SearchService>> services;
  std::vector<std::vector<uint16_t>> ports;
  for (size_t shard = 0; shard < kShards; ++shard) {
    services.push_back(std::make_unique<server::SearchService>(
        shared.shard_bundles[shard].engine.get(), LenientShardOptions()));
    ASSERT_TRUE(services.back()->Start().ok());
    ports.push_back({services.back()->port()});
  }
  RouterService router(ports, LenientRouterOptions());
  ASSERT_TRUE(router.Start().ok());

  const std::string target = SearchTarget("free software", "MeanSum", 10);
  const auto healthy = Get(router.port(), target);
  ASSERT_EQ(healthy.status_code, 200) << healthy.body;
  ASSERT_NE(healthy.body.find("\"degraded\":false"), std::string::npos);

  services[1]->Shutdown();
  const auto partial = Get(router.port(), target);
  ASSERT_EQ(partial.status_code, 200) << partial.body;
  EXPECT_NE(partial.body.find("\"degraded\":true"), std::string::npos)
      << partial.body;
  EXPECT_NE(partial.body.find("\"shards_ok\":2"), std::string::npos);
  EXPECT_NE(partial.body.find("\"outcome\":\"failed\""), std::string::npos);
  EXPECT_GE(router.stats().partial_responses.load(), 1u);

  // The metrics reflect the failure and the (eventual) ejection.
  const auto metrics = Get(router.port(), "/metrics");
  EXPECT_NE(
      metrics.body.find("graft_router_partial_responses_total 1"),
      std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("graft_router_shard_failures_total{shard=\"1\"}"),
            std::string::npos);

  // A cold-cache query against the degraded topology fails loudly: honest
  // global stats need every shard. 502, not a silently partial 200.
  const auto cold = Get(router.port(),
                        SearchTarget("emulator windows foss", "MeanSum", 10));
  EXPECT_EQ(cold.status_code, 502) << cold.body;
  EXPECT_GE(router.stats().server_errors.load(), 1u);  // bad_gateway
  router.Shutdown();
}

TEST(RouterServiceTest, FailPolicyAnswers502OnShardDeath) {
  Fixture& shared = Shared();
  std::vector<std::unique_ptr<server::SearchService>> services;
  std::vector<std::vector<uint16_t>> ports;
  for (size_t shard = 0; shard < kShards; ++shard) {
    services.push_back(std::make_unique<server::SearchService>(
        shared.shard_bundles[shard].engine.get(), LenientShardOptions()));
    ASSERT_TRUE(services.back()->Start().ok());
    ports.push_back({services.back()->port()});
  }
  RouterOptions options = LenientRouterOptions();
  options.gather.partial_policy = PartialPolicy::kFail;
  RouterService router(ports, options);
  ASSERT_TRUE(router.Start().ok());

  const std::string target = SearchTarget("software", "MeanSum", 10);
  ASSERT_EQ(Get(router.port(), target).status_code, 200);
  services[0]->Shutdown();
  const auto refused = Get(router.port(), target);
  EXPECT_EQ(refused.status_code, 502) << refused.body;
  EXPECT_NE(refused.body.find("partial results forbidden"), std::string::npos)
      << refused.body;
  router.Shutdown();
}

TEST(RouterServiceTest, StartFailsFastWhenPortTaken) {
  server::TcpListener squatter;
  ASSERT_TRUE(squatter.Bind(0).ok());
  RouterOptions options = LenientRouterOptions();
  options.port = squatter.port();
  RouterService router({{1}}, options);
  const Status status = router.Start();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("already in use"), std::string::npos)
      << status;
  squatter.Close();
}

// Sends `method target` over a fresh connection; returns the status line's
// code (0 when no response arrived) and the body in `body`.
int RawRequest(uint16_t port, const std::string& method,
               const std::string& target, std::string* body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string reply;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      server::SendAll(fd, method + " " + target +
                              " HTTP/1.1\r\nConnection: close\r\n\r\n")
          .ok()) {
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) reply.append(buf, n);
  }
  ::close(fd);
  const size_t head_end = reply.find("\r\n\r\n");
  if (reply.rfind("HTTP/1.1 ", 0) != 0 || head_end == std::string::npos) {
    return 0;
  }
  *body = reply.substr(head_end + 4);
  return std::stoi(reply.substr(9, 3));
}

// One table of malformed requests against both services that share the
// /search front: the same code and an "error" body from each, and one
// latency sample per /search the front answered.
TEST(SearchFrontTest, ServerAndRouterAnswerOneMalformedTable) {
  Fixture& fixture = Shared();
  // Fresh services, so their counters start at zero: a server over shard
  // 0's engine, and a router over the shared shards.
  server::SearchService service(fixture.shard_bundles[0].engine.get(),
                                LenientShardOptions());
  ASSERT_TRUE(service.Start().ok());
  std::vector<std::vector<uint16_t>> ports;
  for (const auto& shard : fixture.shards) ports.push_back({shard->port()});
  RouterService router(ports, LenientRouterOptions());
  ASSERT_TRUE(router.Start().ok());

  const struct {
    const char* method;
    const char* target;
    int server_code;
    int router_code;
    // Answered by the /search front (and so timed): not a %zz target,
    // which the connection layer refuses before routing, nor a non-GET,
    // which the front refuses before routing.
    bool searched;
  } cases[] = {
      {"GET", "/search?scheme=MeanSum", 400, 400, true},        // missing q
      {"GET", "/search?q=", 400, 400, true},                    // empty q
      {"GET", "/search?q=software&k=banana", 400, 400, true},   // non-numeric k
      {"GET", "/search?q=software&k=-1", 400, 400, true},       // negative k
      {"GET", "/search?q=software&k=999999999", 400, 400, true},  // k > max
      // k=0: all matches from a server; a router refuses unbounded sets.
      {"GET", "/search?q=software&k=0", 200, 400, true},
      {"GET", "/search?q=software&deadline_ms=0", 400, 400, true},
      {"GET", "/search?q=software&deadline_ms=soon", 400, 400, true},
      {"GET", "/search?q=software&scheme=NoSuch", 404, 404, true},
      {"GET", "/search?q=%28unbalanced", 400, 400, true},       // parse error
      {"GET", "/search?q=%zz", 400, 400, false},                // bad escape
      {"GET", "/nosuch", 404, 404, false},                      // unknown path
      {"DELETE", "/search?q=software", 405, 405, false},        // not GET
  };
  uint64_t searched = 0;
  for (const auto& test_case : cases) {
    const struct {
      const char* name;
      uint16_t port;
      int expected;
    } fronts[] = {{"server", service.port(), test_case.server_code},
                  {"router", router.port(), test_case.router_code}};
    for (const auto& front : fronts) {
      std::string body;
      EXPECT_EQ(RawRequest(front.port, test_case.method, test_case.target,
                           &body),
                front.expected)
          << front.name << " " << test_case.method << " "
          << test_case.target << ": " << body;
      if (front.expected != 200) {
        EXPECT_NE(body.find("\"error\""), std::string::npos)
            << front.name << " " << test_case.target << ": " << body;
      }
    }
    if (test_case.searched) ++searched;
  }

  // Every response was counted before it was written, so the counters are
  // complete once the last reply has been read.
  const server::RequestCounters* counters[] = {&service.stats(),
                                               &router.stats()};
  for (const server::RequestCounters* stats : counters) {
    EXPECT_EQ(stats->search_latency.count(), searched);
    EXPECT_EQ(stats->requests_total.load(), std::size(cases));
    EXPECT_EQ(stats->responses_ok.load() + stats->client_errors.load() +
                  stats->server_errors.load() +
                  stats->rejected_overload.load() +
                  stats->deadline_exceeded.load(),
              stats->requests_total.load());
  }
  router.Shutdown();
  service.Shutdown();
}

}  // namespace
}  // namespace graft::router
