// graft_perfbench: the repository benchmark.
//
//   graft_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --workdir <dir> [--git-sha <sha>] [--source-digest <d>]
//                   [--spinners <0|1>]
//
// Runs one workload as an in-process service (SearchService, or a
// RouterService over SearchService shards), drives it over HTTP from a
// single-process open-loop generator, checks every answer byte for byte
// against an in-heap monolithic engine, and prints one JSON report line
// followed by the result line:
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// metrics, timed by calling each layer's public functions from here (no
// instrumentation inside the library). See perfbench/README.md for the
// workloads and for which end-to-end metric each layer metric should move.

#include <pthread.h>
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/optimizer.h"
#include "core/request.h"
#include "index/block_cache.h"
#include "index/index_io.h"
#include "index/inverted_index.h"
#include "loadgen.h"
#include "mcalc/parser.h"
#include "router/router_service.h"
#include "router/scatter_gather.h"
#include "server/http.h"
#include "server/search_service.h"
#include "text/corpus.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace graft;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Service and generator threads may still be running: leave without
// running static destructors under them.
[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "graft_perfbench: %s\n", message.c_str());
  std::fflush(stdout);
  std::_Exit(2);
}

template <typename T>
T Check(StatusOr<T> value, const char* what) {
  if (!value.ok()) Die(std::string(what) + ": " + value.status().ToString());
  return std::move(value).value();
}
void Check(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double RssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Workload definitions.

enum class Kind { kPaperHttp, kZipfMmap, kRoutedReload };

struct Spec {
  const char* name;
  Kind kind;
  const char* why;
  uint64_t docs;
  double nominal_qps;  // rate of the p50/p99 phase and the ladder's base
  double slo_ms;       // p99 limit for max_qps_at_slo
  size_t cache_bytes;  // decoded-block cache budget (mapped indexes)
  double reload_interval_s;
};

constexpr size_t kMiB = size_t{1} << 20;
// The corpus and the Zipf query log are part of a workload's definition
// and the same on every run, as the paper mix is; --seed varies the order
// in which requests are drawn from the log and when they arrive. With a
// log drawn per seed, the share of its heaviest requests moved p99 by more
// than half from seed to seed.
constexpr uint64_t kCorpusSeed = 20110612;
constexpr uint64_t kLogSeed = 0x9e3779b97f4a7c15ULL;
// Set-ups per run; setup_s is their median, and the last one is served.
constexpr size_t kSetupReps = 3;
constexpr double kWarmupClosedS = 2.0;
// Share of the routed workload's requests drawn from the paper mix; the
// rest come from its Zipf keyword log.
constexpr double kRoutedPaperShare = 0.5;
constexpr int kLadderLow = -4;   // nominal / 2
constexpr int kLadderHigh = 12;  // nominal x 8
constexpr double kProbeS = 0.6;
// Shares of --seconds: the nominal phase of an untraced run, and each of
// the untraced and traced phases of a traced run.
constexpr double kNominalShare = 0.75;
constexpr double kTracePhaseShare = 0.4;
// Reloads timed after the measured phases on workloads without reload
// events of their own.
constexpr int kIdleReloads = 5;
// A phase is valid when the generator's own p99 lateness stays within this
// share of the workload's latency limit.
constexpr double kValidLatenessShare = 0.1;
constexpr int kNominalAttempts = 3;
// p50_ms and p99_ms are medians over this many equal windows of the
// nominal phase, so one host hiccup moves at most one window.
constexpr int kWindows = 5;

const Spec kSpecs[] = {
    {"paper_http_30k", Kind::kPaperHttp,
     "engine work is ~0.1 ms, so connect, parse, serialize, optimize and "
     "segment fan-out dominate; keep-alive and fan-out skips show here",
     30000, 100.0, 100.0, 0, 0.0},
    {"zipf_mmap_100k", Kind::kZipfMmap,
     "ms-scale scoring, top-k and block decode over a v5 mapped index whose "
     "cache is far below the log's decoded working set; HTTP is a small share",
     100000, 100.0, 150.0, 8 * kMiB, 0.0},
    {"routed_reload_30k", Kind::kRoutedReload,
     "router fan-out, stats epochs and merge over two HTTP hops, with "
     "alternating shard hot reloads that force 409 re-collects and cold caches",
     30000, 80.0, 100.0, 256 * kMiB, 1.0},
};

const Spec* FindSpec(const std::string& name) {
  for (const Spec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

// Schemes are drawn from all eight: three MaxScore-licensed (AnySum,
// AnyProd, Lucene) and five that block-max pruning cannot serve.
ZipfLogOptions ZipfOptions(const Spec& spec) {
  ZipfLogOptions options;
  if (spec.kind == Kind::kZipfMmap) {
    options.ks = {10, 100, 1000};
    options.k_weights = {0.5, 0.3, 0.2};
  } else {
    // The routed workload's keyword log: k = 10, no positional queries.
    options.distinct_queries = 300;
    options.positional_share = 0.0;
    options.ks = {10};
    options.k_weights = {1.0};
  }
  return options;
}

// ---------------------------------------------------------------------------
// Set-up: corpus -> index -> file -> served service.

struct SetupTimes {
  double generate_s = 0.0;
  double build_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
  double start_s = 0.0;
  double total() const { return generate_s + build_s + save_s + load_s + start_s; }
};

// The served system. Members are destroyed in reverse order: the router
// stops before its shards, the services before the bundles they serve.
struct Deployment {
  std::vector<std::shared_ptr<const core::EngineBundle>> bundles;
  std::vector<std::unique_ptr<server::SearchService>> services;
  std::unique_ptr<router::RouterService> router;
  uint16_t port = 0;
  std::vector<std::string> files;
  uint64_t index_bytes = 0;
};

// What the final set-up repetition also prepares, outside the timed steps.
struct Prepared {
  RequestLog log;
  std::vector<std::string> expected;  // per distinct request
  uint64_t working_set_bytes = 0;     // zipf: decoded blocks of the log
};

// Feeds the corpus to the builders and separates generator time from
// indexing time. `route(doc)` picks the timed builder; `reference`, when
// non-null, receives every document untimed.
void GenerateInto(uint64_t docs, uint64_t seed,
                  const std::function<index::IndexBuilder*(uint64_t)>& route,
                  index::IndexBuilder* reference, SetupTimes* times) {
  text::CorpusGenerator generator(text::WikipediaLikeConfig(docs, seed));
  double add_s = 0.0;
  double reference_s = 0.0;
  const Clock::time_point start = Clock::now();
  generator.Generate([&](uint64_t doc, const std::vector<std::string_view>& tokens) {
    Clock::time_point t = Clock::now();
    route(doc)->AddDocument(tokens);
    add_s += SecondsSince(t);
    if (reference != nullptr) {
      t = Clock::now();
      reference->AddDocument(tokens);
      reference_s += SecondsSince(t);
    }
  });
  times->generate_s = SecondsSince(start) - add_s - reference_s;
  times->build_s = add_s;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

std::vector<std::string> ExpectedFragments(const core::Engine& engine,
                                           const RequestLog& log) {
  std::vector<std::string> expected;
  expected.reserve(log.distinct.size());
  for (const SearchRequest& r : log.distinct) {
    core::SearchOptions options;
    options.top_k = r.k;
    StatusOr<core::SearchResult> result = engine.Search(r.query, r.scheme, options);
    if (!result.ok()) {
      Die("reference search failed for " + r.target + ": " +
          result.status().ToString());
    }
    expected.push_back(server::SearchService::FormatResultsFragment(result->results));
  }
  return expected;
}

server::ServiceOptions ServiceOptionsFor(const std::string& path, size_t segments,
                                         size_t engine_threads, bool mmap,
                                         size_t cache_bytes) {
  server::ServiceOptions options;
  options.index_path = path;
  options.segments = segments;
  options.engine_threads = engine_threads;
  options.mmap_index = mmap;
  if (mmap) options.block_cache_bytes = cache_bytes;
  return options;
}

std::unique_ptr<Deployment> SetUp(const Spec& spec, const std::string& dir,
                                  Prepared* prepared, SetupTimes* times) {
  auto d = std::make_unique<Deployment>();
  const bool final_rep = prepared != nullptr;
  Clock::time_point t;
  switch (spec.kind) {
    case Kind::kPaperHttp: {
      constexpr size_t kSegments = 4;
      index::IndexBuilder builder;
      GenerateInto(spec.docs, kCorpusSeed, [&](uint64_t) { return &builder; }, nullptr, times);
      t = Clock::now();
      index::InvertedIndex index = builder.Build();
      times->build_s += SecondsSince(t);
      const std::string path = dir + "/paper.idx";
      t = Clock::now();
      Check(index::SaveIndex(index, path), "save");
      times->save_s = SecondsSince(t);
      if (final_rep) {
        prepared->log = PaperLog();
        const core::Engine reference(&index);
        prepared->expected = ExpectedFragments(reference, prepared->log);
      }
      t = Clock::now();
      d->bundles.push_back(std::make_shared<const core::EngineBundle>(
          Check(core::MakeEngineBundle(std::move(index), kSegments, kSegments - 1),
                "segment")));
      times->load_s = SecondsSince(t);
      t = Clock::now();
      d->services.push_back(std::make_unique<server::SearchService>(
          d->bundles.back(),
          ServiceOptionsFor(path, kSegments, kSegments - 1, false, 0)));
      Check(d->services.back()->Start(), "start");
      times->start_s = SecondsSince(t);
      d->port = d->services.back()->port();
      d->files.push_back(path);
      break;
    }
    case Kind::kZipfMmap: {
      const std::string path = dir + "/zipf.idx";
      {
        index::IndexBuilder builder;
        GenerateInto(spec.docs, kCorpusSeed, [&](uint64_t) { return &builder; }, nullptr, times);
        t = Clock::now();
        index::InvertedIndex index = builder.Build();
        times->build_s += SecondsSince(t);
        t = Clock::now();
        Check(index::SaveIndexV5(index, path), "save");
        times->save_s = SecondsSince(t);
        if (final_rep) {
          prepared->log = ZipfLog(index, ZipfOptions(spec), kLogSeed);
          const core::Engine reference(&index);
          prepared->expected = ExpectedFragments(reference, prepared->log);
          // The log's decoded working set: every distinct request once
          // through the mapped file with an unbounded cache.
          index::MappedLoadOptions unbounded;
          unbounded.private_cache_bytes = size_t{1} << 40;
          const index::InvertedIndex mapped =
              Check(index::LoadIndexMapped(path, unbounded), "map");
          const core::Engine engine(&mapped);
          for (const SearchRequest& r : prepared->log.distinct) {
            core::SearchOptions options;
            options.top_k = r.k;
            Check(engine.Search(r.query, r.scheme, options), "working-set pass");
          }
          prepared->working_set_bytes = mapped.block_cache()->snapshot().bytes;
        }
      }  // the in-heap index is freed here
      core::BundleLoadOptions load;
      load.mmap_index = true;
      load.block_cache_bytes = spec.cache_bytes;
      t = Clock::now();
      d->bundles.push_back(std::make_shared<const core::EngineBundle>(
          Check(core::LoadEngineBundle(path, 1, 1, load), "map")));
      times->load_s = SecondsSince(t);
      t = Clock::now();
      d->services.push_back(std::make_unique<server::SearchService>(
          d->bundles.back(), ServiceOptionsFor(path, 1, 1, true, spec.cache_bytes)));
      Check(d->services.back()->Start(), "start");
      times->start_s = SecondsSince(t);
      d->port = d->services.back()->port();
      d->files.push_back(path);
      break;
    }
    case Kind::kRoutedReload: {
      const uint64_t half = spec.docs / 2;
      index::IndexBuilder shard_builders[2];
      index::IndexBuilder whole_builder;
      GenerateInto(
          spec.docs, kCorpusSeed,
          [&](uint64_t doc) { return &shard_builders[doc < half ? 0 : 1]; },
          final_rep ? &whole_builder : nullptr, times);
      for (int s = 0; s < 2; ++s) {
        t = Clock::now();
        index::InvertedIndex index = shard_builders[s].Build();
        times->build_s += SecondsSince(t);
        const std::string path = dir + "/shard" + std::to_string(s) + ".idx";
        t = Clock::now();
        Check(index::SaveIndexV5(index, path), "save");
        times->save_s += SecondsSince(t);
        d->files.push_back(path);
      }
      if (final_rep) {
        // One engine over the whole corpus is the reference for the router.
        const index::InvertedIndex whole = whole_builder.Build();
        ZipfLogOptions options = ZipfOptions(spec);
        prepared->log = MixLogs(PaperLog(),
                                ZipfLog(whole, options, kLogSeed),
                                kRoutedPaperShare);
        const core::Engine reference(&whole);
        prepared->expected = ExpectedFragments(reference, prepared->log);
      }
      std::vector<std::vector<uint16_t>> replicas;
      for (int s = 0; s < 2; ++s) {
        core::BundleLoadOptions load;
        load.mmap_index = true;
        load.block_cache_bytes = spec.cache_bytes;
        t = Clock::now();
        d->bundles.push_back(std::make_shared<const core::EngineBundle>(
            Check(core::LoadEngineBundle(d->files[s], 1, 1, load), "map")));
        times->load_s += SecondsSince(t);
        t = Clock::now();
        d->services.push_back(std::make_unique<server::SearchService>(
            d->bundles.back(),
            ServiceOptionsFor(d->files[s], 1, 1, true, spec.cache_bytes)));
        Check(d->services.back()->Start(), "start shard");
        times->start_s += SecondsSince(t);
        replicas.push_back({d->services.back()->port()});
      }
      t = Clock::now();
      d->router = std::make_unique<router::RouterService>(replicas, router::RouterOptions{});
      Check(d->router->Start(), "start router");
      times->start_s += SecondsSince(t);
      d->port = d->router->port();
      break;
    }
  }
  for (const std::string& f : d->files) d->index_bytes += FileBytes(f);
  return d;
}

// ---------------------------------------------------------------------------
// Traced-run attribution: spans around layer calls made from this file.

// Spans of one request share `request`. The client's spans hang off
// "request"; the layer calls replayed after the reply hang off "replay".
// Times are microseconds from the traced phase start; spans derived from
// the response's timings block start where their parent starts.
struct Span {
  uint64_t request;
  const char* name;
  const char* parent;
  double start_us;
  double end_us;
};

// One traced request: client-side figures for every request, layer
// replays for every kReplayEvery-th.
struct TraceRecord {
  double e2e_us = 0.0;  // send -> reply, as the client saw it
  double connect_us = 0.0;
  uint32_t connects = 0;
  double queue_us = 0.0, engine_us = 0.0, total_us = 0.0;
  double shard_ms_max = 0.0;
  uint32_t shard_legs = 0, shard_attempts = 0;
  bool replayed = false;
  double head_us = 0.0, parse_us = 0.0, resolve_us = 0.0, optimize_us = 0.0,
         search_us = 0.0, mono_us = 0.0, format_us = 0.0, collect_us = 0.0,
         gather_us = 0.0, gather_leg_max_us = 0.0;
  size_t results = 0;
  bool pruned = false;
  exec::ExecStats exec;
};

constexpr size_t kReplayEvery = 3;
constexpr uint64_t kReplayBudgetMs = 10000;

class Tracer {
 public:
  Tracer(const Spec& spec, const Deployment& d, const RequestLog& log)
      : spec_(spec), d_(d), log_(log), start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  // AfterReply hook body; runs on generator threads.
  void OnReply(const Sample& s) {
    TraceRecord r;
    r.e2e_us = (s.done_s - s.send_s) * 1e6;
    r.connect_us = s.connect_us;
    r.connects = s.connects;
    r.queue_us = s.server_queue_ms * 1000.0;
    r.engine_us = s.server_engine_ms * 1000.0;
    r.total_us = s.server_total_ms * 1000.0;
    r.shard_ms_max = s.shard_ms_max;
    r.shard_legs = s.shard_legs;
    r.shard_attempts = s.shard_attempts;
    const uint64_t id = counter_.fetch_add(1, std::memory_order_relaxed);
    std::vector<Span> spans;
    const double now_us = Now();
    const double send_us = now_us - r.e2e_us;
    spans.push_back({id, "request", "", send_us, now_us});
    spans.push_back({id, "server.connect", "request", send_us, send_us + r.connect_us});
    spans.push_back({id, "server.queue", "request", send_us, send_us + r.queue_us});
    if (id % kReplayEvery == 0) {
      // Replays are the benchmark's own work: run them at normal priority
      // so they do not preempt the service the way the generator may.
      int policy = 0;
      sched_param saved{};
      pthread_getschedparam(pthread_self(), &policy, &saved);
      const sched_param normal{};
      pthread_setschedparam(pthread_self(), SCHED_OTHER, &normal);
      const double begin = Now();
      r.replayed = Replay(log_.distinct[s.request], id, &r, &spans);
      spans.push_back({id, "replay", "", begin, Now()});
      if (!r.replayed) replay_failures_.fetch_add(1, std::memory_order_relaxed);
      pthread_setschedparam(pthread_self(), policy, &saved);
    }
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(r);
    spans_.insert(spans_.end(), spans.begin(), spans.end());
  }

  const std::vector<TraceRecord>& records() const { return records_; }
  uint64_t replay_failures() const { return replay_failures_.load(); }

  void WriteSpans(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return;
    for (const Span& s : spans_) {
      std::fprintf(out,
                   "{\"request\":%llu,\"name\":\"%s\",\"parent\":\"%s\","
                   "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                   static_cast<unsigned long long>(s.request), s.name, s.parent,
                   s.start_us, s.end_us);
    }
    std::fclose(out);
  }

 private:
  double Now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - start_).count();
  }

  // Times `fn` as span `name` under `parent`.
  template <typename Fn>
  double Timed(uint64_t id, const char* name, const char* parent,
               std::vector<Span>* spans, Fn&& fn) {
    const double begin = Now();
    fn();
    const double end = Now();
    spans->push_back({id, name, parent, begin, end});
    return end - begin;
  }

  // Returns false when a layer call failed.
  bool Replay(const SearchRequest& req, uint64_t id, TraceRecord* r,
              std::vector<Span>* spans) {
    const std::string head =
        "GET " + req.target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
    bool ok = true;
    r->head_us = Timed(id, "server.parse_head", "replay", spans,
                       [&] { ok = server::ParseRequestHead(head).ok(); });
    StatusOr<mcalc::Query> query = Status::Internal("unset");
    r->parse_us = Timed(id, "mcalc.parse", "replay", spans,
                        [&] { query = mcalc::ParseQuery(req.query); });
    if (!ok || !query.ok()) return false;
    if (spec_.kind == Kind::kRoutedReload) return ReplayRouted(req, *query, id, r, spans);
    const core::Engine& engine = *d_.bundles.front()->engine;
    core::SearchRequestParams params;
    params.query = req.query;
    params.scheme = req.scheme;
    params.top_k = req.k;
    StatusOr<core::ResolvedRequest> resolved = Status::Internal("unset");
    r->resolve_us = Timed(id, "core.resolve", "replay", spans,
                          [&] { resolved = core::ResolveRequest(engine, params); });
    if (!resolved.ok()) return false;
    // SearchQuery optimizes internally; the standalone call splits it out.
    r->optimize_us = Timed(id, "core.optimize", "core.search", spans, [&] {
      core::Optimizer optimizer(resolved->scheme, resolved->options.optimizer);
      ok = optimizer.Optimize(resolved->query, engine.index()).ok();
    });
    StatusOr<core::SearchResult> result = Status::Internal("unset");
    r->search_us = Timed(id, "core.search", "replay", spans, [&] {
      result = engine.SearchQuery(resolved->query, *resolved->scheme, resolved->options);
    });
    if (!ok || !result.ok()) return false;
    r->results = result->results.size();
    r->pruned = result->used_block_max_pruning;
    r->exec = result->exec_stats;
    r->format_us = Timed(id, "server.format", "replay", spans, [&] {
      server::SearchService::FormatResultsFragment(result->results);
    });
    if (engine.segmented() != nullptr) {
      core::SearchOptions mono = resolved->options;
      mono.use_segmented = false;
      r->mono_us = Timed(id, "core.search_monolithic", "replay", spans, [&] {
        ok = engine.SearchQuery(resolved->query, *resolved->scheme, mono).ok();
      });
    }
    return ok;
  }

  bool ReplayRouted(const SearchRequest& req, const mcalc::Query& query,
                    uint64_t id, TraceRecord* r, std::vector<Span>* spans) {
    router::ScatterGather& gather = d_.router->gather();
    std::vector<std::string> terms;
    for (const mcalc::Variable& v : query.variables) terms.push_back(v.keyword);
    // Search collects statistics itself; the standalone call splits it out.
    bool ok = true;
    r->collect_us = Timed(id, "router.collect", "router.gather", spans, [&] {
      std::vector<uint64_t> bases, generations;
      ok = gather.CollectStats(terms, kReplayBudgetMs, &bases, &generations).ok();
    });
    const std::string tail = "q=" + server::UrlEncode(req.query) +
                             "&scheme=" + server::UrlEncode(req.scheme);
    StatusOr<router::GatherResult> gathered = Status::Internal("unset");
    r->gather_us = Timed(id, "router.gather", "replay", spans, [&] {
      gathered = gather.Search(terms, tail, req.k, kReplayBudgetMs);
    });
    if (!ok || !gathered.ok()) return false;
    for (const router::ShardOutcome& o : gathered->outcomes) {
      r->gather_leg_max_us = std::max(r->gather_leg_max_us, o.latency_ms * 1000.0);
    }
    r->results = gathered->results.size();
    return true;
  }

  const Spec& spec_;
  const Deployment& d_;
  const RequestLog& log_;
  Clock::time_point start_;
  std::atomic<uint64_t> counter_{0};
  // Replays whose layer call returned an error (e.g. a router stats
  // exchange that lost every retry to reloads); they are left out of the
  // layer figures, and the served request is checked on its own.
  std::atomic<uint64_t> replay_failures_{0};
  std::mutex mu_;
  std::vector<TraceRecord> records_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Report helpers.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  server::JsonAppendEscaped(&out, s);
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": " +
           JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

// Which end-to-end metric each per-layer metric should move, and where.
struct LayerLink {
  const char* metric;
  const char* moves;
  const char* workloads;
};
constexpr LayerLink kLayerLinks[] = {
    {"text.generate_s", "setup_s", "all"},
    {"index.build_s", "setup_s", "all"},
    {"index.save_s", "setup_s", "all"},
    {"index.load_s", "setup_s; reload_ms", "all; routed_reload_30k"},
    {"index.cache_hit_rate", "p50_ms, max_qps_at_slo", "zipf_mmap_100k (0 lookups predicted on paper_http_30k)"},
    {"index.cache_lookups", "base of index.cache_hit_rate", "all"},
    {"index.cache_evictions", "p99_ms", "zipf_mmap_100k"},
    {"index.payload_decodes_per_query", "p50_ms", "zipf_mmap_100k"},
    {"mcalc.parse_us", "p50_ms", "paper_http_30k"},
    {"core.optimize_us", "p50_ms", "paper_http_30k"},
    {"core.search_us", "p50_ms", "zipf_mmap_100k"},
    {"core.segment_fanout_us", "p50_ms", "paper_http_30k"},
    {"core.pruned_frac", "p50_ms", "zipf_mmap_100k"},
    {"exec.docs_scored_per_result", "p50_ms", "zipf_mmap_100k"},
    {"exec.postings_scanned", "p50_ms", "zipf_mmap_100k"},
    {"exec.topk_skip_ratio", "p50_ms", "zipf_mmap_100k"},
    {"exec.topk_sorted_accesses", "p50_ms", "zipf_mmap_100k"},
    {"exec.rows_built", "p50_ms", "paper_http_30k"},
    {"server.connects_per_request", "p50_ms", "paper_http_30k"},
    {"server.connect_us", "p50_ms", "paper_http_30k"},
    {"server.wire_us", "p50_ms", "paper_http_30k"},
    {"server.handler_us", "p50_ms", "paper_http_30k"},
    {"server.engine_us", "p50_ms", "zipf_mmap_100k"},
    {"server.queue_us", "p99_ms, max_qps_at_slo", "all"},
    {"server.rejected_503", "failed_frac", "all"},
    {"server.deadline_504", "failed_frac", "all"},
    {"server.reload_ms", "reload_ms", "routed_reload_30k"},
    {"router.collect_us", "p50_ms", "routed_reload_30k"},
    {"router.gather_us", "p50_ms", "routed_reload_30k"},
    {"router.merge_us", "p50_ms", "routed_reload_30k"},
    {"router.shard_ms_max", "p99_ms", "routed_reload_30k"},
    {"router.stats_refreshes", "p99_ms", "routed_reload_30k"},
    {"router.gen_conflicts", "p99_ms", "routed_reload_30k"},
    {"router.attempts_per_leg", "failed_frac", "routed_reload_30k"},
    {"trace.self_server_us", "p50_ms", "all"},
    {"trace.self_mcalc_us", "p50_ms", "all"},
    {"trace.self_core_us", "p50_ms", "paper_http_30k, zipf_mmap_100k"},
    {"trace.self_router_us", "p50_ms", "routed_reload_30k"},
    {"trace.unattributed_frac", "p50_ms (HTTP framing, socket I/O, thread hand-offs)", "all"},
    {"trace.overhead_pct", "none (cost of the traced run)", "all"},
    {"loadgen.lateness_p99_ms", "none (run validity)", "all"},
};

// ---------------------------------------------------------------------------
// The run.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string workdir;
  std::string git_sha = "unavailable";
  std::string source_digest = "unavailable";
  // 0 leaves the CPUs free to idle; for measuring what the spinners change.
  bool spinners = true;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") args.trace = std::atoi(value.c_str());
    else if (flag == "--workdir") args.workdir = value;
    else if (flag == "--git-sha") args.git_sha = value;
    else if (flag == "--source-digest") args.source_digest = value;
    else if (flag == "--spinners") args.spinners = value != "0";
    else Die("unknown flag " + flag);
  }
  if (args.workload.empty() || args.workdir.empty() || args.seconds <= 0) {
    Die("usage: graft_perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> --workdir <dir>");
  }
  return args;
}

// Open-loop phase statistics.
struct PhaseStats {
  size_t attempted = 0;
  size_t failed = 0;      // transport, non-200 or mismatch
  size_t mismatches = 0;  // 200 with a wrong answer
  size_t client_errors = 0;  // 4xx
  std::vector<double> latencies_ms;  // failures count as the timeout
  std::vector<double> due_s;         // parallel to latencies_ms
  std::vector<double> lateness_ms;   // only arrivals a free slot waited for
  size_t waited_for_slot = 0;
  uint64_t connects = 0;
  double end_backlog_p50_ms = 0.0;  // median latency of the last third
};

PhaseStats Summarize(const std::vector<Sample>& samples, double timeout_ms) {
  PhaseStats st;
  st.attempted = samples.size();
  std::vector<double> tail;
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    st.connects += s.connects;
    if (!s.ok()) {
      ++st.failed;
      if (s.status_code == 200) ++st.mismatches;
      if (s.status_code >= 400 && s.status_code < 500) ++st.client_errors;
    }
    const double latency = s.ok() ? s.latency_ms() : timeout_ms;
    st.latencies_ms.push_back(latency);
    st.due_s.push_back(s.due_s);
    if (i >= samples.size() * 2 / 3) tail.push_back(latency);
    if (s.claim_s <= s.due_s) {
      st.lateness_ms.push_back(std::max(0.0, (s.send_s - s.due_s) * 1000.0));
    } else {
      ++st.waited_for_slot;
    }
  }
  st.end_backlog_p50_ms = Median(tail);
  return st;
}

double LatenessP99(const PhaseStats& st) {
  std::vector<double> lateness = st.lateness_ms;
  return Percentile(&lateness, 0.99);
}

// Median over kWindows equal windows (by due time) of each window's
// percentile `p`.
double WindowedPercentile(const PhaseStats& st, double p) {
  if (st.due_s.empty()) return 0.0;
  const double span = *std::max_element(st.due_s.begin(), st.due_s.end());
  std::vector<std::vector<double>> windows(kWindows);
  for (size_t i = 0; i < st.due_s.size(); ++i) {
    const int w = std::min(kWindows - 1, static_cast<int>(st.due_s[i] / span * kWindows));
    windows[w].push_back(st.latencies_ms[i]);
  }
  std::vector<double> per_window;
  for (std::vector<double>& w : windows) {
    if (!w.empty()) per_window.push_back(Percentile(&w, p));
  }
  return Median(per_window);
}

// The spin-wait hint: a spinning thread gives way to its SMT sibling.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Each online CPU's SMT siblings as the kernel lists them ("0-1", "2"),
// so the report shows whether the service shared cores with a spinner.
std::string SmtSiblingsJson(long cpus) {
  std::string json = "[";
  for (long cpu = 0; cpu < cpus; ++cpu) {
    std::ifstream in("/sys/devices/system/cpu/cpu" + std::to_string(cpu) +
                     "/topology/thread_siblings_list");
    std::string list;
    if (!std::getline(in, list)) list = "unknown";
    if (cpu > 0) json += ",";
    json += JsonString(list);
  }
  return json + "]";
}

// The request log's parameters, each with its source.
std::string LogParametersJson(const Spec& spec) {
  std::vector<LogParameter> params;
  if (spec.kind == Kind::kPaperHttp) {
    params.push_back({"requests", "Q4-Q11 and PK1-PK8, all 8 schemes, k=10",
                      "the paper's Section 8 queries and their keyword forms"});
  } else {
    params = ZipfLogParameters(ZipfOptions(spec));
  }
  if (spec.kind == Kind::kRoutedReload) {
    params.push_back({"paper_mix_share", JsonNumber(kRoutedPaperShare),
                      std::string(kAssumption) +
                          ": the rest is the Zipf keyword log"});
  }
  std::string json = "[";
  for (const LogParameter& p : params) {
    if (json.size() > 1) json += ",";
    json += "{\"name\":" + JsonString(p.name) + ",\"value\":" +
            JsonString(p.value) + ",\"source\":" + JsonString(p.source) + "}";
  }
  return json + "]";
}

// Keeps every CPU from going idle while it lives: one SCHED_IDLE thread
// per CPU spins, and yields to any other runnable thread at once. The spin
// loop pauses on every turn, so on a core shared by SMT siblings it leaves
// the execution units to the sibling; the report records the siblings.
class IdleSpinners {
 public:
  IdleSpinners() {
    const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
    for (long i = 0; i < cpus; ++i) {
      threads_.emplace_back([this] {
        const sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
          CpuRelax();
        }
      });
    }
  }
  ~IdleSpinners() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// Calls Reload() on alternating shards at a fixed interval.
class Reloader {
 public:
  Reloader(Deployment* d, double interval_s) : d_(d), interval_s_(interval_s) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Reloader() { Stop(); }
  Reloader(const Reloader&) = delete;
  Reloader& operator=(const Reloader&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  std::vector<double> times_ms() {
    std::lock_guard<std::mutex> lock(mu_);
    return times_ms_;
  }
  size_t failures() {
    std::lock_guard<std::mutex> lock(mu_);
    return failures_;
  }

 private:
  void Loop() {
    size_t next_shard = 0;
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::duration<double>(interval_s_),
                         [this] { return stop_; })) {
      lock.unlock();
      const Clock::time_point t = Clock::now();
      const Status status = d_->services[next_shard]->Reload();
      const double ms = SecondsSince(t) * 1000.0;
      next_shard = (next_shard + 1) % d_->services.size();
      lock.lock();
      if (status.ok()) times_ms_.push_back(ms); else ++failures_;
    }
  }

  Deployment* d_;
  const double interval_s_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> times_ms_;
  size_t failures_ = 0;
  std::thread thread_;
};

struct CacheTotals {
  uint64_t hits = 0, misses = 0, evictions = 0, payload_decodes = 0;
};
CacheTotals CacheSnapshot(const Deployment& d) {
  CacheTotals c;
  for (const auto& bundle : d.bundles) {
    const auto& cache = bundle->index->block_cache();
    if (cache == nullptr) continue;
    const index::BlockCache::Snapshot s = cache->snapshot();
    c.hits += s.hits;
    c.misses += s.misses;
    c.evictions += s.evictions;
    c.payload_decodes += s.payload_decodes;
  }
  return c;
}

struct ServerCounters {
  uint64_t rejected = 0, deadline = 0, refreshes = 0, conflicts = 0;
};
ServerCounters ServerSnapshot(const Deployment& d) {
  ServerCounters c;
  for (const auto& s : d.services) {
    c.rejected += s->stats().rejected_overload.load();
    c.deadline += s->stats().deadline_exceeded.load();
  }
  if (d.router != nullptr) {
    c.rejected += d.router->stats().rejected_overload.load();
    c.deadline += d.router->stats().deadline_exceeded.load();
    c.refreshes = d.router->gather().counters().stats_refreshes.load();
    c.conflicts = d.router->gather().counters().gen_conflicts.load();
  }
  return c;
}

int Run(const Args& args) {
  const Spec* spec_ptr = FindSpec(args.workload);
  if (spec_ptr == nullptr) Die("unknown workload " + args.workload);
  const Spec& spec = *spec_ptr;
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  const size_t gen_threads = static_cast<size_t>(std::clamp<long>(nproc, 1, 4));
  const std::string dir = args.workdir + "/" + spec.name + "-" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);

  // ---- set-up, repeated; the last repetition is the one served ----
  std::vector<SetupTimes> reps;
  Prepared prepared;
  std::unique_ptr<Deployment> d;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    const bool last = rep + 1 == kSetupReps;
    d.reset();
    SetupTimes times;
    d = SetUp(spec, dir, last ? &prepared : nullptr, &times);
    reps.push_back(times);
  }
  const auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : reps) v.push_back(t.*field);
    return Median(v);
  };
  std::vector<double> totals;
  for (const SetupTimes& t : reps) totals.push_back(t.total());
  const double setup_s = Median(totals);

  const RequestLog& log = prepared.log;
  const double timeout_ms = 10000.0;
  PhaseOptions phase;
  phase.port = d->port;
  phase.threads = gen_threads;
  phase.timeout_ms = static_cast<int>(timeout_ms);
  phase.requests = &log.distinct;
  phase.expected = &prepared.expected;

  uint64_t schedule_seed = args.seed * 0x2545F4914F6CDD1DULL + 17;
  const auto schedule = [&](double rate, double seconds) {
    return PoissonSchedule(log, rate, seconds, schedule_seed++);
  };

  std::unique_ptr<Reloader> reloader;
  if (spec.reload_interval_s > 0) {
    reloader = std::make_unique<Reloader>(d.get(), spec.reload_interval_s);
  }

  // An idle virtual CPU halts, and waking it costs the hypervisor's
  // scheduling delay, which depends on the host's other tenants. Keep the
  // CPUs busy at the lowest priority while the service is measured, so a
  // thread hand-off does not wait for a halted vCPU to wake. README gives
  // p50 with and without the spinners.
  auto spinners = args.spinners ? std::make_unique<IdleSpinners>() : nullptr;
  // Warm-up, checked but not timed: first closed loop at full concurrency
  // over the distinct requests (every handler thread grows its buffers and
  // the caches fill), then open loop at the nominal rate.
  size_t attempted = 0, failed = 0, mismatches = 0, client_errors = 0;
  const auto account = [&](const PhaseStats& st) {
    attempted += st.attempted;
    failed += st.failed;
    mismatches += st.mismatches;
    client_errors += st.client_errors;
  };
  {
    std::vector<Arrival> passes;
    std::mt19937_64 rng(args.seed);
    for (int pass = 0; pass < 8; ++pass) {
      std::vector<Arrival> one;
      for (uint32_t i = 0; i < log.distinct.size(); ++i) one.push_back(Arrival{0.0, i});
      std::shuffle(one.begin(), one.end(), rng);
      passes.insert(passes.end(), one.begin(), one.end());
    }
    PhaseOptions closed = phase;
    closed.stop_after_s = kWarmupClosedS;
    account(Summarize(RunPhase(passes, closed), timeout_ms));
  }
  account(Summarize(RunPhase(schedule(spec.nominal_qps, 1.0), phase), timeout_ms));

  const double S = args.seconds;
  std::vector<Metric> metrics;
  std::vector<Arrival> nominal_arrivals;
  PhaseStats nominal;
  double max_qps = 0.0;
  size_t realtime_threads = 0;
  int nominal_attempts = 0;
  std::string ladder_json = "[";
  Tracer tracer(spec, *d, log);
  double untraced_mean_ms = 0.0, traced_mean_ms = 0.0;
  CacheTotals cache_delta;
  ServerCounters counters_delta;
  size_t cache_phase_requests = 0;

  if (args.trace == 0) {
    // A nominal phase in which the generator itself ran late measured a
    // stalled host, not the service: it is run again with a fresh
    // schedule, up to kNominalAttempts times in all, and the least late
    // attempt is kept.
    for (int attempt = 0; attempt < kNominalAttempts; ++attempt) {
      std::vector<Arrival> arrivals = schedule(spec.nominal_qps, kNominalShare * S);
      PhaseStats st = Summarize(RunPhase(arrivals, phase, &realtime_threads), timeout_ms);
      account(st);
      const double late = LatenessP99(st);
      ++nominal_attempts;
      if (attempt == 0 || late < LatenessP99(nominal)) {
        nominal = std::move(st);
        nominal_arrivals = std::move(arrivals);
      }
      if (late <= kValidLatenessShare * spec.slo_ms) break;
    }
    // Fixed ladder: rung i runs at nominal x 2^(i/4), i in [-4, 12]. The
    // highest passing rung is found by bisection, which assumes p99 grows
    // with the rate.
    int lo = kLadderLow - 1;   // highest rung known to pass (virtual)
    int hi = kLadderHigh + 1;  // lowest rung known to miss (virtual)
    bool first_rung = true;
    while (hi - lo > 1) {
      const int mid = lo + (hi - lo) / 2;
      const double rate = spec.nominal_qps * std::pow(2.0, mid / 4.0);
      const PhaseStats st = Summarize(RunPhase(schedule(rate, kProbeS), phase), timeout_ms);
      account(st);
      std::vector<double> lat = st.latencies_ms;
      const double p99 = Percentile(&lat, 0.99);
      const bool pass = st.failed == 0 && p99 <= spec.slo_ms &&
                        st.end_backlog_p50_ms <= spec.slo_ms;
      if (!first_rung) ladder_json += ",";
      first_rung = false;
      ladder_json += "{\"rung\":" + std::to_string(mid) + ",\"rate\":" + JsonNumber(rate) +
                     ",\"p99_ms\":" + JsonNumber(p99) +
                     ",\"samples\":" + std::to_string(st.attempted) +
                     ",\"pass\":" + (pass ? "true" : "false") + "}";
      (pass ? lo : hi) = mid;
    }
    max_qps = lo < kLadderLow ? 0.0 : spec.nominal_qps * std::pow(2.0, lo / 4.0);
  } else {
    // Untraced then traced, same rate and length: the difference is the
    // cost of tracing (client spans plus the sampled layer replays).
    const CacheTotals cache_before = CacheSnapshot(*d);
    const ServerCounters counters_before = ServerSnapshot(*d);
    nominal_arrivals = schedule(spec.nominal_qps, kTracePhaseShare * S);
    nominal = Summarize(RunPhase(nominal_arrivals, phase, &realtime_threads), timeout_ms);
    account(nominal);
    const CacheTotals cache_after = CacheSnapshot(*d);
    const ServerCounters counters_after = ServerSnapshot(*d);
    cache_delta = {cache_after.hits - cache_before.hits,
                   cache_after.misses - cache_before.misses,
                   cache_after.evictions - cache_before.evictions,
                   cache_after.payload_decodes - cache_before.payload_decodes};
    counters_delta = {counters_after.rejected - counters_before.rejected,
                      counters_after.deadline - counters_before.deadline,
                      counters_after.refreshes - counters_before.refreshes,
                      counters_after.conflicts - counters_before.conflicts};
    cache_phase_requests = nominal.attempted;
    untraced_mean_ms = Mean(nominal.latencies_ms);
    const AfterReply hook = [&tracer](const Sample& s) { tracer.OnReply(s); };
    PhaseOptions traced = phase;
    traced.after = &hook;
    tracer.Restart();
    const PhaseStats st = Summarize(
        RunPhase(schedule(spec.nominal_qps, kTracePhaseShare * S), traced), timeout_ms);
    account(st);
    traced_mean_ms = Mean(st.latencies_ms);
  }
  spinners.reset();
  const double rss_mb = RssMb();

  // reload_ms: under load on the routed workload, idle elsewhere.
  std::vector<double> reload_ms;
  size_t reload_failures = 0;
  if (reloader != nullptr) {
    reloader->Stop();
    reload_ms = reloader->times_ms();
    reload_failures = reloader->failures();
  }
  if (reload_ms.empty()) {
    for (int i = 0; i < kIdleReloads; ++i) {
      server::SearchService& service = *d->services[i % d->services.size()];
      const Clock::time_point t = Clock::now();
      const Status status = service.Reload();
      if (status.ok()) reload_ms.push_back(SecondsSince(t) * 1000.0); else ++reload_failures;
    }
  }
  if (reload_failures > 0) ++failed;

  std::vector<double> lat = nominal.latencies_ms;
  const double pooled_p50 = Percentile(&lat, 0.50);
  const double pooled_p99 = Percentile(&lat, 0.99);
  const double p50 = WindowedPercentile(nominal, 0.50);
  const double p99 = WindowedPercentile(nominal, 0.99);
  const double lateness_p99 = LatenessP99(nominal);
  const bool generator_behind = lateness_p99 > kValidLatenessShare * spec.slo_ms;

  if (args.trace == 0) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"p50_ms", p50, "ms"},
        {"rss_mb", rss_mb, "MB"},
        {"index_mb", static_cast<double>(d->index_bytes) / 1e6, "MB"},
        {"reload_ms", Median(reload_ms), "ms"},
    };
  } else {
    // ---- per-layer figures ----
    const std::vector<TraceRecord>& recs = tracer.records();
    double n = 0, replayed = 0, connects = 0, connect_us = 0, wire_us = 0,
           handler_us = 0, engine_us = 0, queue_us = 0, legs = 0, attempts = 0,
           shard_ms = 0, shard_n = 0;
    double parse = 0, optimize = 0, search = 0, fanout = 0, fanout_n = 0,
           pruned = 0, scored = 0, results = 0, postings = 0, skipped = 0,
           decoded = 0, sorted = 0, rows = 0, collect = 0, gather = 0, merge = 0;
    double self_server = 0, self_mcalc = 0, self_core = 0, self_router = 0,
           e2e_sum = 0, unattributed = 0;
    for (const TraceRecord& r : recs) {
      n += 1;
      connects += r.connects;
      connect_us += r.connect_us;
      wire_us += r.e2e_us - r.total_us;
      handler_us += r.total_us - r.queue_us - r.engine_us;
      engine_us += r.engine_us;
      queue_us += r.queue_us;
      if (r.shard_legs > 0) {
        legs += r.shard_legs;
        attempts += r.shard_attempts;
        shard_ms += r.shard_ms_max;
        shard_n += 1;
      }
      if (!r.replayed) continue;
      replayed += 1;
      parse += r.parse_us;
      double s_server = r.connect_us + r.queue_us + r.head_us;
      double s_core = 0, s_router = 0;
      if (spec.kind == Kind::kRoutedReload) {
        collect += r.collect_us;
        gather += r.gather_us;
        merge += r.gather_us - r.gather_leg_max_us;
        s_server += r.gather_leg_max_us;
        s_router = r.gather_us - r.gather_leg_max_us;
      } else {
        optimize += r.optimize_us;
        search += r.search_us;
        if (r.mono_us > 0) {
          fanout += r.search_us - r.mono_us;
          fanout_n += 1;
        }
        pruned += r.pruned ? 1 : 0;
        const exec::ExecStats& e = r.exec;
        scored += static_cast<double>(r.exec.docs_scored > 0 ? e.docs_scored : e.docs_visited);
        results += static_cast<double>(r.results);
        postings += static_cast<double>(e.count_entries_scanned + e.positions_scanned);
        skipped += static_cast<double>(e.topk_blocks_skipped);
        decoded += static_cast<double>(e.topk_blocks_decoded);
        sorted += static_cast<double>(e.topk_sorted_accesses);
        rows += static_cast<double>(e.rows_built);
        s_server += r.format_us;
        // resolve contains a parse; search contains the optimize.
        s_core = (r.resolve_us - r.parse_us) + r.search_us;
      }
      self_server += s_server;
      self_mcalc += r.parse_us;
      self_core += s_core;
      self_router += s_router;
      e2e_sum += r.e2e_us;
      unattributed += r.e2e_us - (s_server + r.parse_us + s_core + s_router);
    }
    const auto per = [](double total, double count) { return count > 0 ? total / count : 0.0; };
    const double lookups = static_cast<double>(cache_delta.hits + cache_delta.misses);
    metrics = {
        {"text.generate_s", median_of(&SetupTimes::generate_s), "s"},
        {"index.build_s", median_of(&SetupTimes::build_s), "s"},
        {"index.save_s", median_of(&SetupTimes::save_s), "s"},
        {"index.load_s", median_of(&SetupTimes::load_s), "s"},
        {"index.cache_hit_rate", per(static_cast<double>(cache_delta.hits), lookups), "ratio"},
        {"index.cache_lookups", lookups, "count"},
        {"index.cache_evictions", static_cast<double>(cache_delta.evictions), "count"},
        {"index.payload_decodes_per_query",
         per(static_cast<double>(cache_delta.payload_decodes), static_cast<double>(cache_phase_requests)), "count"},
        {"mcalc.parse_us", per(parse, replayed), "us"},
        {"core.optimize_us", per(optimize, replayed), "us"},
        {"core.search_us", per(search, replayed), "us"},
        {"core.segment_fanout_us", per(fanout, fanout_n), "us"},
        {"core.pruned_frac", per(pruned, replayed), "ratio"},
        {"exec.docs_scored_per_result", per(scored, results), "ratio"},
        {"exec.postings_scanned", per(postings, replayed), "count"},
        {"exec.topk_skip_ratio", per(skipped, skipped + decoded), "ratio"},
        {"exec.topk_sorted_accesses", per(sorted, replayed), "count"},
        {"exec.rows_built", per(rows, replayed), "count"},
        {"server.connects_per_request", per(connects, n), "ratio"},
        {"server.connect_us", per(connect_us, n), "us"},
        {"server.wire_us", per(wire_us, n), "us"},
        {"server.handler_us", per(handler_us, n), "us"},
        {"server.engine_us", per(engine_us, n), "us"},
        {"server.queue_us", per(queue_us, n), "us"},
        {"server.rejected_503", static_cast<double>(counters_delta.rejected), "count"},
        {"server.deadline_504", static_cast<double>(counters_delta.deadline), "count"},
        {"server.reload_ms", Median(reload_ms), "ms"},
        {"router.collect_us", per(collect, replayed), "us"},
        {"router.gather_us", per(gather, replayed), "us"},
        {"router.merge_us", per(merge, replayed), "us"},
        {"router.shard_ms_max", per(shard_ms, shard_n), "ms"},
        {"router.stats_refreshes", static_cast<double>(counters_delta.refreshes), "count"},
        {"router.gen_conflicts", static_cast<double>(counters_delta.conflicts), "count"},
        {"router.attempts_per_leg", per(attempts, legs), "ratio"},
        {"trace.self_server_us", per(self_server, replayed), "us"},
        {"trace.self_mcalc_us", per(self_mcalc, replayed), "us"},
        {"trace.self_core_us", per(self_core, replayed), "us"},
        {"trace.self_router_us", per(self_router, replayed), "us"},
        {"trace.unattributed_frac", per(unattributed, e2e_sum), "ratio"},
        {"trace.overhead_pct", untraced_mean_ms > 0 ? (traced_mean_ms / untraced_mean_ms - 1.0) * 100.0 : 0.0, "%"},
        {"loadgen.lateness_p99_ms", lateness_p99, "ms"},
    };
    tracer.WriteSpans(args.workdir + "/spans-" + spec.name + "-seed" +
                      std::to_string(args.seed) + ".jsonl");
  }
  ladder_json += "]";

  // ---- report line ----
  std::string links = "[";
  for (size_t i = 0; i < std::size(kLayerLinks); ++i) {
    if (i > 0) links += ",";
    links += "{\"metric\":" + JsonString(kLayerLinks[i].metric) +
             ",\"moves\":" + JsonString(kLayerLinks[i].moves) +
             ",\"workloads\":" + JsonString(kLayerLinks[i].workloads) + "}";
  }
  links += "]";
  std::string report = "{\"report\":{";
  report += "\"workload\":" + JsonString(spec.name);
  report += ",\"why\":" + JsonString(spec.why);
  report += ",\"seed\":" + std::to_string(args.seed);
  report += ",\"corpus_seed\":" + std::to_string(kCorpusSeed);
  report += ",\"log_seed\":" + std::to_string(kLogSeed);
  report += ",\"corpus_docs\":" + std::to_string(spec.docs);
  report += ",\"trace\":" + std::to_string(args.trace);
  report += ",\"host\":{\"cores\":" + std::to_string(nproc) +
            ",\"avx2\":" + (__builtin_cpu_supports("avx2") ? "true" : "false") +
            ",\"avx512f\":" + (__builtin_cpu_supports("avx512f") ? "true" : "false") +
            ",\"smt_siblings\":" + SmtSiblingsJson(nproc) +
            ",\"idle_spinners\":" + (args.spinners ? "true" : "false") +
            ",\"compiler\":" + JsonString(__VERSION__) +
            ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
            ",\"git_sha\":" + JsonString(args.git_sha) +
            ",\"source_digest\":" + JsonString(args.source_digest) + "}";
  report += ",\"loadgen\":{\"mode\":\"open-loop Poisson\",\"threads\":" +
            std::to_string(gen_threads) + ",\"max_connections\":" +
            std::to_string(gen_threads) + ",\"realtime_threads\":" +
            std::to_string(realtime_threads) + ",\"over_nproc\":" +
            (gen_threads > static_cast<size_t>(nproc) ? "true" : "false") +
            ",\"lateness_p99_ms\":" + JsonNumber(lateness_p99) +
            ",\"arrivals_waiting_for_a_slot\":" + std::to_string(nominal.waited_for_slot) +
            ",\"valid\":" + (generator_behind ? "false" : "true") + "}";
  report += ",\"log\":{\"distinct_requests\":" + std::to_string(log.distinct.size()) +
            ",\"distinct_touched_nominal\":" + std::to_string(DistinctTouched(nominal_arrivals)) +
            ",\"hot_set_share\":" + JsonNumber(HotSetShare(nominal_arrivals)) +
            ",\"parameters\":" + LogParametersJson(spec) + "}";
  report += ",\"cache\":{\"budget_bytes\":" + std::to_string(spec.cache_bytes) +
            ",\"log_working_set_bytes\":" + std::to_string(prepared.working_set_bytes) + "}";
  report += ",\"nominal\":{\"rate_qps\":" + JsonNumber(spec.nominal_qps) +
            ",\"samples\":" + std::to_string(nominal.attempted) +
            ",\"attempts\":" + std::to_string(nominal_attempts) +
            ",\"windows\":" + std::to_string(kWindows) +
            ",\"p50_ms\":" + JsonNumber(p50) + ",\"p99_ms\":" + JsonNumber(p99) +
            ",\"pooled_p50_ms\":" + JsonNumber(pooled_p50) +
            ",\"pooled_p99_ms\":" + JsonNumber(pooled_p99) +
            ",\"connects_per_request\":" +
            JsonNumber(nominal.attempted ? static_cast<double>(nominal.connects) / static_cast<double>(nominal.attempted) : 0.0) + "}";
  report += ",\"slo_p99_ms\":" + JsonNumber(spec.slo_ms);
  report += ",\"ladder\":" + ladder_json;
  // End-to-end figures kept out of BENCHMARK.json's gated list: p99 and
  // the ladder's capacity move with host load by more than the largest
  // bound allowed (0.25) between runs, and failed_frac is zero on a
  // passing run.
  const double failed_frac =
      attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0;
  report += ",\"reported_only\":" +
            MetricsJson({{"p99_ms", p99, "ms"},
                         {"max_qps_at_slo", max_qps, "1/s"},
                         {"failed_frac", failed_frac, "ratio"}});
  report += ",\"mismatches\":" + std::to_string(mismatches);
  report += ",\"client_errors\":" + std::to_string(client_errors);
  report += ",\"reloads\":" + std::to_string(reload_ms.size());
  report += ",\"replay_failures\":" + std::to_string(tracer.replay_failures());
  report += ",\"setup_reps\":" + std::to_string(reps.size());
  report += ",\"layer_links\":" + links;
  report += "}}";
  std::printf("%s\n", report.c_str());

  const bool correct = mismatches == 0 && client_errors == 0 && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              MetricsJson(metrics).c_str());
  std::fflush(stdout);

  d.reset();
  std::filesystem::remove_all(dir);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
