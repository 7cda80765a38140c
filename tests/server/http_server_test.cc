// The shared connection layer (server::HttpServer) under SearchService,
// over real sockets:
//
//   * keep-alive — many requests on one socket, one accepted connection,
//     byte-identical results; idle connections close after io_timeout_ms;
//     a 503 closes the connection it was answered on;
//   * shutdown — idle connections are closed at once while in-flight
//     requests drain to complete responses;
//   * counters — every response is counted, and its in-flight slot
//     released, before the client can read it.

#include "server/http_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "core/request.h"
#include "index/inverted_index.h"
#include "server/http.h"
#include "server/search_service.h"
#include "text/corpus.h"

namespace graft::server {
namespace {

using Clock = std::chrono::steady_clock;

const core::EngineBundle& SharedBundle() {
  static const core::EngineBundle& bundle = *[] {
    text::CorpusConfig config = text::WikipediaLikeConfig(300, /*seed=*/41);
    index::IndexBuilder builder;
    text::CorpusGenerator generator(config);
    generator.Generate(
        [&builder](uint64_t, const std::vector<std::string_view>& tokens) {
          builder.AddDocument(tokens);
        });
    auto made = core::MakeEngineBundle(builder.Build(), /*segments=*/2,
                                       /*pool_threads=*/2);
    EXPECT_TRUE(made.ok()) << made.status();
    return new core::EngineBundle(std::move(made).value());
  }();
  return bundle;
}

std::string SearchTarget(const std::string& query, const std::string& scheme) {
  return "/search?q=" + UrlEncode(query) + "&scheme=" + scheme + "&k=10";
}

std::string ExpectedFragment(const std::string& query,
                             const std::string& scheme) {
  const core::EngineBundle& bundle = SharedBundle();
  core::SearchRequestParams params;
  params.query = query;
  params.scheme = scheme;
  params.top_k = 10;
  auto resolved = core::ResolveRequest(*bundle.engine, params);
  EXPECT_TRUE(resolved.ok()) << resolved.status();
  auto result = bundle.engine->SearchQuery(resolved->query, *resolved->scheme,
                                           resolved->options);
  EXPECT_TRUE(result.ok()) << result.status();
  return SearchService::FormatResultsFragment(result->results);
}

std::string ResultsFragment(const std::string& body) {
  const size_t start = body.find("\"results\":[");
  if (start == std::string::npos || body.empty()) return "";
  return body.substr(start, body.size() - start - 1);
}

// The unsigned integer after "\"<field>\":" in a JSON body.
uint64_t JsonField(const std::string& body, const std::string& field) {
  const std::string key = "\"" + field + "\":";
  const size_t at = body.find(key);
  EXPECT_NE(at, std::string::npos) << field << " missing from " << body;
  if (at == std::string::npos) return ~uint64_t{0};
  return std::stoull(body.substr(at + key.size()));
}

ServiceOptions LenientOptions() {
  ServiceOptions options;
  options.default_deadline_ms = 120000;
  options.max_deadline_ms = 120000;
  return options;
}

// Waits (bounded) until `done` holds.
template <typename Predicate>
bool WaitFor(Predicate done) {
  for (int spin = 0; spin < 2000; ++spin) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

TEST(KeepAliveTest, ManySearchesOnOneSocketOneConnection) {
  SearchService service(SharedBundle().engine.get(), LenientOptions());
  ASSERT_TRUE(service.Start().ok());
  const std::string expected = ExpectedFragment("software", "MeanSum");

  HttpConnection connection;
  ASSERT_TRUE(connection.Connect(service.port(), 10000).ok());
  constexpr int kSearches = 40;
  for (int i = 0; i < kSearches; ++i) {
    auto response =
        connection.Get(SearchTarget("software", "MeanSum"), 10000);
    ASSERT_TRUE(response.ok()) << response.status() << " at request " << i;
    ASSERT_EQ(response->status_code, 200) << response->body;
    EXPECT_EQ(response->headers.at("connection"), "keep-alive");
    EXPECT_EQ(ResultsFragment(response->body), expected) << "request " << i;
    ASSERT_TRUE(connection.reusable()) << "request " << i;
  }
  EXPECT_EQ(service.stats().connections_accepted.load(), 1u);
  EXPECT_EQ(service.stats().requests_total.load(),
            static_cast<uint64_t>(kSearches));

  // The last request of a connection asks to close, and is answered so.
  auto last = connection.Get("/healthz", 10000, /*keep_alive=*/false);
  ASSERT_TRUE(last.ok()) << last.status();
  EXPECT_EQ(last->headers.at("connection"), "close");
  EXPECT_FALSE(connection.reusable());
  service.Shutdown();
}

TEST(KeepAliveTest, IdleConnectionClosedAfterIoTimeout) {
  ServiceOptions options = LenientOptions();
  options.io_timeout_ms = 200;
  SearchService service(SharedBundle().engine.get(), options);
  ASSERT_TRUE(service.Start().ok());

  HttpConnection connection;
  ASSERT_TRUE(connection.Connect(service.port(), 5000).ok());
  auto first = connection.Get("/healthz", 5000);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(connection.reusable());
  // Still open well inside the timeout...
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(connection.IdleAndOpen());
  // ...and closed by the server once it has idled past it.
  EXPECT_TRUE(WaitFor([&] { return !connection.IdleAndOpen(); }));
  auto stale = connection.Get("/healthz", 5000);
  EXPECT_FALSE(stale.ok());
  EXPECT_TRUE(connection.closed_before_response());
  service.Shutdown();
}

TEST(KeepAliveTest, RejectionClosesTheKeptConnection) {
  ServiceOptions options = LenientOptions();
  options.max_inflight = 1;
  options.handler_threads = 1;
  options.test_search_delay_ms = 400;
  SearchService service(SharedBundle().engine.get(), options);
  ASSERT_TRUE(service.Start().ok());

  HttpConnection kept;
  ASSERT_TRUE(kept.Connect(service.port(), 10000).ok());
  auto warm = kept.Get("/healthz", 10000);
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_TRUE(kept.reusable());

  // A slow search takes the only slot...
  std::thread slow([&] {
    auto response = HttpGet(service.port(), SearchTarget("software", "Lucene"));
    EXPECT_TRUE(response.ok() && response->status_code == 200);
  });
  ASSERT_TRUE(WaitFor([&] { return service.stats().requests_total.load() == 2; }));
  // ...so the kept connection's next request is refused, and closed.
  auto refused = kept.Get("/healthz", 10000);
  ASSERT_TRUE(refused.ok()) << refused.status();
  EXPECT_EQ(refused->status_code, 503);
  EXPECT_EQ(refused->headers.at("connection"), "close");
  EXPECT_EQ(refused->headers.at("retry-after"), "1");
  EXPECT_FALSE(kept.reusable());
  slow.join();
  EXPECT_EQ(service.stats().rejected_overload.load(), 1u);
  service.Shutdown();
}

TEST(HttpServerTest, ShutdownClosesIdleAndDrainsInFlight) {
  ServiceOptions options = LenientOptions();
  options.test_search_delay_ms = 300;
  options.handler_threads = 2;
  SearchService service(SharedBundle().engine.get(), options);
  ASSERT_TRUE(service.Start().ok());
  const std::string expected = ExpectedFragment("software", "AnySum");

  HttpConnection idle;
  ASSERT_TRUE(idle.Connect(service.port(), 10000).ok());
  ASSERT_TRUE(idle.Get("/healthz", 10000).ok());
  ASSERT_TRUE(idle.reusable());

  HttpConnection busy;
  ASSERT_TRUE(busy.Connect(service.port(), 10000).ok());
  StatusOr<HttpClientResponse> drained = Status::Internal("unset");
  std::thread client(
      [&] { drained = busy.Get(SearchTarget("software", "AnySum"), 10000); });
  ASSERT_TRUE(WaitFor([&] { return service.stats().requests_total.load() == 2; }));

  const Clock::time_point start = Clock::now();
  service.Shutdown();
  // Well under io_timeout_ms (5 s): idle connections do not hold it up.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::now() - start)
                .count(),
            3000);
  client.join();

  // The admitted request drained to a full response that closes its
  // connection; the idle connection was closed without one.
  ASSERT_TRUE(drained.ok()) << drained.status();
  EXPECT_EQ(drained->status_code, 200);
  EXPECT_EQ(ResultsFragment(drained->body), expected);
  EXPECT_EQ(drained->headers.at("connection"), "close");
  EXPECT_FALSE(idle.IdleAndOpen());
  EXPECT_FALSE(HttpGet(service.port(), "/healthz", 500).ok());
}

// Regression: the response code used to be recorded, and the in-flight
// slot released, only after the response was written, so a client that
// had read its reply could read /stats and find itself uncounted.
TEST(HttpServerTest, StatsCountEveryResponseTheClientHasRead) {
  SearchService service(SharedBundle().engine.get(), LenientOptions());
  ASSERT_TRUE(service.Start().ok());
  constexpr uint64_t kRounds = 300;
  for (uint64_t i = 1; i <= kRounds; ++i) {
    auto search = HttpGet(service.port(), SearchTarget("software", "MeanSum"));
    ASSERT_TRUE(search.ok()) << search.status();
    ASSERT_EQ(search->status_code, 200);
    auto stats = HttpGet(service.port(), "/stats");
    ASSERT_TRUE(stats.ok()) << stats.status();
    ASSERT_EQ(stats->status_code, 200);
    // i searches + i /stats reads received; every response but this one
    // already counted; this /stats read is the only request in flight.
    ASSERT_EQ(JsonField(stats->body, "requests_total"), 2 * i) << "round " << i;
    ASSERT_EQ(JsonField(stats->body, "responses_ok"), 2 * i - 1)
        << "round " << i;
    ASSERT_EQ(JsonField(stats->body, "inflight"), 1u) << "round " << i;
  }
  EXPECT_EQ(JsonField(HttpGet(service.port(), "/stats")->body,
                      "connections_accepted"),
            2 * kRounds + 1);
  service.Shutdown();
}

}  // namespace
}  // namespace graft::server
