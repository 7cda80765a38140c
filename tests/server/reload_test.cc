// Hot-reload tests for SearchService: generation swap under concurrent
// load with bit-identical scores, graceful degradation when the reload
// source is corrupt, and recovery back to healthy — all over real sockets.
//
// The invariants being proven:
//   * /admin/reload (and Reload()) swaps the engine atomically: every
//     in-flight and subsequent request answers from EXACTLY one
//     generation, with scores byte-identical (%.17g) to a direct engine
//     call against that generation, for all registered schemes;
//   * zero requests are dropped or broken by a swap under load;
//   * a failed reload keeps the old generation serving (same answers),
//     raises the degraded flag on /stats and /healthz, and records the
//     error; a subsequent good reload clears it.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/request.h"
#include "index/index_io.h"
#include "index/inverted_index.h"
#include "server/http.h"
#include "server/search_service.h"
#include "text/corpus.h"

namespace graft::server {
namespace {

constexpr const char* kSchemes[] = {
    "AnySum",         "AnyProd", "SumBest",    "Lucene",
    "JoinNormalized", "MeanSum", "EventModel", "BestSumMinDist"};

constexpr size_t kSegments = 2;
// Single common term: guaranteed hits in every corpus size used here
// (a multi-term conjunction can be empty in a small synthetic corpus,
// which would make generations indistinguishable).
constexpr const char* kQuery = "software";

// PID-unique: parallel ctest processes share TempDir.
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

std::string SearchTarget(const std::string& scheme) {
  return "/search?q=" + UrlEncode(kQuery) + "&scheme=" + scheme + "&k=10";
}

// Ground truth for one (index, scheme): the exact results fragment the
// server must embed while serving that index.
std::string ExpectedFragment(const core::EngineBundle& bundle,
                             const std::string& scheme) {
  core::SearchRequestParams params;
  params.query = kQuery;
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
  EXPECT_NE(start, std::string::npos) << body;
  if (start == std::string::npos) return "";
  return body.substr(start, body.size() - start - 1);
}

// A service backed by an index file on disk, reload-capable.
struct ReloadableService {
  std::string index_path;
  std::unique_ptr<SearchService> service;
};

ReloadableService MakeService(const index::InvertedIndex& index,
                              const char* file_name) {
  ReloadableService out;
  out.index_path = TempPath(file_name);
  EXPECT_TRUE(index::SaveIndex(index, out.index_path).ok());
  auto loaded = core::LoadEngineBundle(out.index_path, kSegments,
                                       /*pool_threads=*/2);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  auto bundle = std::make_shared<const core::EngineBundle>(
      std::move(loaded).value());
  ServiceOptions options;
  options.default_deadline_ms = 120000;
  options.max_deadline_ms = 120000;
  options.index_path = out.index_path;
  options.segments = kSegments;
  options.engine_threads = 2;
  out.service = std::make_unique<SearchService>(std::move(bundle), options);
  EXPECT_TRUE(out.service->Start().ok());
  return out;
}

TEST(ReloadTest, AdminReloadBumpsGeneration) {
  auto rs = MakeService(BuildCorpusIndex(120, /*seed=*/5), "reload_gen.idx");
  EXPECT_EQ(rs.service->generation(), 1u);

  auto before = HttpGet(rs.service->port(), "/healthz");
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_NE(before->body.find("\"generation\":1"), std::string::npos)
      << before->body;

  auto reload = HttpGet(rs.service->port(), "/admin/reload");
  ASSERT_TRUE(reload.ok()) << reload.status();
  EXPECT_EQ(reload->status_code, 200) << reload->body;
  EXPECT_NE(reload->body.find("\"reloaded\":true"), std::string::npos)
      << reload->body;
  EXPECT_NE(reload->body.find("\"generation\":2"), std::string::npos)
      << reload->body;
  EXPECT_EQ(rs.service->generation(), 2u);
  EXPECT_FALSE(rs.service->degraded());
  EXPECT_EQ(rs.service->stats().reloads_ok.load(), 1u);

  auto stats = HttpGet(rs.service->port(), "/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->body.find("\"index_generation\":2"), std::string::npos)
      << stats->body;
  EXPECT_NE(stats->body.find("\"reloads_ok\":1"), std::string::npos);
  rs.service->Shutdown();
  std::remove(rs.index_path.c_str());
}

TEST(ReloadTest, ReloadUnsupportedWithoutIndexPathIs400) {
  // Legacy non-owning construction: no reload source exists.
  index::InvertedIndex index = BuildCorpusIndex(60, /*seed=*/3);
  auto made = core::MakeEngineBundle(std::move(index), 1, 0);
  ASSERT_TRUE(made.ok()) << made.status();
  ServiceOptions options;
  SearchService service(made->engine.get(), options);
  ASSERT_TRUE(service.Start().ok());
  auto reload = HttpGet(service.port(), "/admin/reload");
  ASSERT_TRUE(reload.ok()) << reload.status();
  EXPECT_EQ(reload->status_code, 400) << reload->body;
  EXPECT_NE(reload->body.find("\"reloaded\":false"), std::string::npos);
  EXPECT_EQ(service.generation(), 1u);
  // An unsupported reload is an input error, not a degradation: the
  // engine never left its good state.
  EXPECT_FALSE(service.degraded());
  service.Shutdown();
}

TEST(ReloadTest, SwapUnderConcurrentLoadKeepsScoresBitIdenticalAllSchemes) {
  // The index file starts as generation A, is rewritten on disk to a
  // DIFFERENT index B, and is hot-reloaded repeatedly while 8 client
  // threads (one per scheme) hammer /search. Every single response must
  // carry a fragment byte-identical to ground truth from A or from B —
  // a torn swap, a mixed-generation read, or any score drift fails here.
  index::InvertedIndex index_a = BuildCorpusIndex(150, /*seed=*/41);
  index::InvertedIndex index_b = BuildCorpusIndex(210, /*seed=*/42);
  auto rs = MakeService(index_a, "reload_swap.idx");

  auto bundle_a = core::LoadEngineBundle(rs.index_path, kSegments, 2);
  ASSERT_TRUE(bundle_a.ok());
  ASSERT_TRUE(index::SaveIndex(index_b, rs.index_path).ok());
  auto bundle_b = core::LoadEngineBundle(rs.index_path, kSegments, 2);
  ASSERT_TRUE(bundle_b.ok());

  std::vector<std::string> expected_a;
  std::vector<std::string> expected_b;
  for (const char* scheme : kSchemes) {
    expected_a.push_back(ExpectedFragment(*bundle_a, scheme));
    expected_b.push_back(ExpectedFragment(*bundle_b, scheme));
    // The two generations must actually answer differently for the test
    // to distinguish them (different corpus sizes guarantee it).
    EXPECT_NE(expected_a.back(), expected_b.back()) << scheme;
  }

  std::atomic<bool> stop{false};
  std::atomic<size_t> broken{0};
  std::atomic<size_t> mismatched{0};
  std::atomic<size_t> answered{0};
  std::vector<std::thread> clients;
  for (size_t s = 0; s < std::size(kSchemes); ++s) {
    clients.emplace_back([&, s] {
      const std::string target = SearchTarget(kSchemes[s]);
      while (!stop.load(std::memory_order_acquire)) {
        auto response = HttpGet(rs.service->port(), target);
        if (!response.ok() || response->status_code != 200) {
          broken.fetch_add(1);
          continue;
        }
        const std::string fragment = ResultsFragment(response->body);
        if (fragment != expected_a[s] && fragment != expected_b[s]) {
          mismatched.fetch_add(1);
        }
        answered.fetch_add(1);
      }
    });
  }

  // Several swaps while the clients run; every one lands generation B's
  // bytes (the file no longer changes), exercising swap-under-load each
  // time.
  size_t reloads = 0;
  for (int i = 0; i < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    const Status reloaded = rs.service->Reload();
    EXPECT_TRUE(reloaded.ok()) << reloaded;
    ++reloads;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(broken.load(), 0u);
  EXPECT_EQ(mismatched.load(), 0u);
  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(rs.service->generation(), 1u + reloads);
  EXPECT_EQ(rs.service->stats().reloads_ok.load(), reloads);

  // After the dust settles, answers are exactly generation B's.
  for (size_t s = 0; s < std::size(kSchemes); ++s) {
    auto response = HttpGet(rs.service->port(), SearchTarget(kSchemes[s]));
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_EQ(response->status_code, 200);
    EXPECT_EQ(ResultsFragment(response->body), expected_b[s]) << kSchemes[s];
  }
  rs.service->Shutdown();
  std::remove(rs.index_path.c_str());
}

TEST(ReloadTest, ReplacedGenerationIsFreedOutsideTheEngineLock) {
  // With no request pinning it, the replaced generation is freed by
  // Reload() itself — a large segmented bundle takes a fifth of a second.
  // That teardown must not hold the lock every request's snapshot takes.
  // The initial bundle's deleter blocks until released (on a deadline, so
  // a regression fails instead of hanging), and a /search issued while it
  // is blocked must complete.
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool entered = false;
    bool released = false;
    bool timed_out = false;
  };
  auto gate = std::make_shared<Gate>();
  const std::string index_path = TempPath("reload_teardown.idx");
  ASSERT_TRUE(
      index::SaveIndex(BuildCorpusIndex(120, /*seed=*/21), index_path).ok());
  auto loaded = core::LoadEngineBundle(index_path, kSegments,
                                       /*pool_threads=*/2);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  std::shared_ptr<const core::EngineBundle> bundle(
      new core::EngineBundle(std::move(loaded).value()),
      [gate](const core::EngineBundle* dying) {
        {
          std::unique_lock<std::mutex> lock(gate->mu);
          gate->entered = true;
          gate->cv.notify_all();
          gate->timed_out = !gate->cv.wait_for(
              lock, std::chrono::seconds(30), [&] { return gate->released; });
        }
        delete dying;
      });
  ServiceOptions options;
  options.index_path = index_path;
  options.segments = kSegments;
  options.engine_threads = 2;
  SearchService service(std::move(bundle), options);
  ASSERT_TRUE(service.Start().ok());

  Status reloaded = Status::Ok();
  std::thread reloader([&] { reloaded = service.Reload(); });
  {
    std::unique_lock<std::mutex> lock(gate->mu);
    ASSERT_TRUE(gate->cv.wait_for(lock, std::chrono::seconds(60),
                                  [&] { return gate->entered; }));
  }
  auto search = HttpGet(service.port(), SearchTarget("Lucene"));
  bool finished_while_blocked = false;
  {
    std::lock_guard<std::mutex> lock(gate->mu);
    finished_while_blocked = !gate->timed_out;
    gate->released = true;
  }
  gate->cv.notify_all();
  reloader.join();
  ASSERT_TRUE(search.ok()) << search.status();
  EXPECT_EQ(search->status_code, 200) << search->body;
  EXPECT_TRUE(finished_while_blocked)
      << "/search waited for the old generation's teardown";
  EXPECT_TRUE(reloaded.ok()) << reloaded;
  EXPECT_EQ(service.generation(), 2u);
  service.Shutdown();
  std::remove(index_path.c_str());
}

TEST(ReloadTest, FailedReloadDegradesButKeepsServingOldAnswers) {
  index::InvertedIndex index = BuildCorpusIndex(100, /*seed=*/17);
  auto rs = MakeService(index, "reload_fail.idx");

  // Ground truth from the healthy generation.
  auto bundle = core::LoadEngineBundle(rs.index_path, kSegments, 2);
  ASSERT_TRUE(bundle.ok());
  const std::string expected = ExpectedFragment(*bundle, "MeanSum");

  // Corrupt the on-disk file: flip a byte in the middle (checksummed
  // region), so the reload's LoadIndex fails with kCorruption.
  std::string bytes;
  {
    std::ifstream in(rs.index_path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 100u);
  std::string corrupt = bytes;
  corrupt[bytes.size() / 2] =
      static_cast<char>(corrupt[bytes.size() / 2] ^ 0x7F);
  {
    std::ofstream out(rs.index_path, std::ios::binary | std::ios::trunc);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
  }

  auto reload = HttpGet(rs.service->port(), "/admin/reload");
  ASSERT_TRUE(reload.ok()) << reload.status();
  EXPECT_EQ(reload->status_code, 500) << reload->body;
  EXPECT_NE(reload->body.find("\"reloaded\":false"), std::string::npos);
  EXPECT_NE(reload->body.find("\"degraded\":true"), std::string::npos);
  EXPECT_EQ(rs.service->generation(), 1u);
  EXPECT_TRUE(rs.service->degraded());
  EXPECT_EQ(rs.service->stats().reloads_failed.load(), 1u);

  // Degraded is visible on /stats and /healthz...
  auto stats = HttpGet(rs.service->port(), "/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->body.find("\"degraded\":true"), std::string::npos)
      << stats->body;
  EXPECT_NE(stats->body.find("\"reloads_failed\":1"), std::string::npos);
  // ...with the error recorded.
  EXPECT_EQ(stats->body.find("\"last_reload_error\":\"\""),
            std::string::npos)
      << stats->body;
  auto healthz = HttpGet(rs.service->port(), "/healthz");
  ASSERT_TRUE(healthz.ok());
  EXPECT_NE(healthz->body.find("\"status\":\"degraded\""), std::string::npos)
      << healthz->body;

  // ...but the old generation still answers, bit-identically.
  auto search = HttpGet(rs.service->port(), SearchTarget("MeanSum"));
  ASSERT_TRUE(search.ok()) << search.status();
  ASSERT_EQ(search->status_code, 200);
  EXPECT_EQ(ResultsFragment(search->body), expected);

  // Restore the good file: the next reload heals the service.
  {
    std::ofstream out(rs.index_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto heal = HttpGet(rs.service->port(), "/admin/reload");
  ASSERT_TRUE(heal.ok());
  EXPECT_EQ(heal->status_code, 200) << heal->body;
  EXPECT_EQ(rs.service->generation(), 2u);
  EXPECT_FALSE(rs.service->degraded());
  auto stats_after = HttpGet(rs.service->port(), "/stats");
  ASSERT_TRUE(stats_after.ok());
  EXPECT_NE(stats_after->body.find("\"degraded\":false"), std::string::npos);
  EXPECT_NE(stats_after->body.find("\"last_reload_error\":\"\""),
            std::string::npos)
      << stats_after->body;
  rs.service->Shutdown();
  std::remove(rs.index_path.c_str());
}

TEST(ReloadTest, MissingFileReloadDegradesDistinctly) {
  auto rs = MakeService(BuildCorpusIndex(80, /*seed=*/9), "reload_gone.idx");
  ASSERT_EQ(std::remove(rs.index_path.c_str()), 0);
  const Status reloaded = rs.service->Reload();
  EXPECT_EQ(reloaded.code(), StatusCode::kIOError) << reloaded;
  EXPECT_TRUE(rs.service->degraded());
  EXPECT_EQ(rs.service->generation(), 1u);
  // Still serving.
  auto healthz = HttpGet(rs.service->port(), "/healthz");
  ASSERT_TRUE(healthz.ok());
  EXPECT_EQ(healthz->status_code, 200);
  rs.service->Shutdown();
}

#ifdef GRAFT_FAILPOINTS_ENABLED
TEST(ReloadTest, FailpointInjectedReloadFailuresDegradeAndRecover) {
  auto rs = MakeService(BuildCorpusIndex(90, /*seed=*/13), "reload_fp.idx");
  auto& registry = common::FailpointRegistry::Global();

  // Fail inside LoadEngineBundle (the bundle-assembly path)...
  ASSERT_TRUE(
      registry.ActivateSpec("core.load_bundle=error(IOError)").ok());
  EXPECT_EQ(rs.service->Reload().code(), StatusCode::kIOError);
  EXPECT_TRUE(rs.service->degraded());
  EXPECT_EQ(rs.service->generation(), 1u);
  registry.DeactivateAll();

  // ...and at the last instant before the swap.
  ASSERT_TRUE(
      registry.ActivateSpec("service.reload.swap=error(Internal)").ok());
  EXPECT_EQ(rs.service->Reload().code(), StatusCode::kInternal);
  EXPECT_TRUE(rs.service->degraded());
  EXPECT_EQ(rs.service->stats().reloads_failed.load(), 2u);
  registry.DeactivateAll();

  // Clean reload recovers.
  EXPECT_TRUE(rs.service->Reload().ok());
  EXPECT_FALSE(rs.service->degraded());
  EXPECT_EQ(rs.service->generation(), 2u);
  rs.service->Shutdown();
  std::remove(rs.index_path.c_str());
}
#endif  // GRAFT_FAILPOINTS_ENABLED

TEST(ReloadTest, RetryAfterSurvivesCombinedOverloadAndReload) {
  // Overload and hot reload at the same time: back-pressure responses must
  // keep their Retry-After header (with the configured value) throughout,
  // and 503s and 504s must be counted distinctly in /stats.
  const std::string index_path = TempPath("retry_after.idx");
  ASSERT_TRUE(
      index::SaveIndex(BuildCorpusIndex(120, /*seed=*/5), index_path).ok());
  auto loaded = core::LoadEngineBundle(index_path, kSegments, 2);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ServiceOptions options;
  options.default_deadline_ms = 120000;
  options.max_deadline_ms = 120000;
  options.index_path = index_path;
  options.segments = kSegments;
  options.engine_threads = 2;
  options.max_inflight = 2;
  options.handler_threads = 2;
  options.test_search_delay_ms = 200;
  options.retry_after_s = 2;
  SearchService service(
      std::make_shared<const core::EngineBundle>(std::move(loaded).value()),
      options);
  ASSERT_TRUE(service.Start().ok());

  // Reload continuously while the flood runs.
  std::atomic<bool> stop_reloads{false};
  std::thread reloader([&] {
    while (!stop_reloads.load()) {
      EXPECT_TRUE(service.Reload().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  constexpr size_t kClients = 8;
  std::atomic<size_t> ok_count{0};
  std::atomic<size_t> rejected{0};
  std::atomic<size_t> bad{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      auto response = HttpGet(service.port(), SearchTarget("MeanSum"));
      if (!response.ok()) {
        bad.fetch_add(1);
        return;
      }
      if (response->status_code == 200) {
        ok_count.fetch_add(1);
        return;
      }
      if (response->status_code != 503) {
        bad.fetch_add(1);
        return;
      }
      const auto retry_after = response->headers.find("retry-after");
      if (retry_after == response->headers.end() ||
          retry_after->second != "2") {
        bad.fetch_add(1);
        return;
      }
      rejected.fetch_add(1);
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(ok_count.load() + rejected.load(), kClients);
  EXPECT_GT(rejected.load(), 0u);

  // With the flood gone, an impossible client deadline rides the same
  // 200ms handler delay into a 504 — which must also carry the header.
  auto late = HttpGet(service.port(),
                      SearchTarget("MeanSum") + "&deadline_ms=10");
  ASSERT_TRUE(late.ok()) << late.status();
  EXPECT_EQ(late->status_code, 504) << late->body;
  const auto retry_after = late->headers.find("retry-after");
  ASSERT_NE(retry_after, late->headers.end());
  EXPECT_EQ(retry_after->second, "2");
  stop_reloads.store(true);
  reloader.join();

  // The two back-pressure outcomes are distinct counters, and both landed.
  EXPECT_EQ(service.stats().rejected_overload.load(), rejected.load());
  EXPECT_EQ(service.stats().deadline_exceeded.load(), 1u);
  auto stats = HttpGet(service.port(), "/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->body.find("\"rejected_overload\":" +
                             std::to_string(rejected.load())),
            std::string::npos)
      << stats->body;
  EXPECT_NE(stats->body.find("\"deadline_exceeded\":1"), std::string::npos)
      << stats->body;
  service.Shutdown();
  std::remove(index_path.c_str());
}

}  // namespace
}  // namespace graft::server
