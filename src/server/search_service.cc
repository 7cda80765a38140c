#include "server/search_service.h"

#include <algorithm>
#include <cstdio>
#include <ranges>
#include <thread>
#include <utility>

#include "common/counters.h"
#include "common/failpoint.h"
#include "core/rewrite_rules.h"
#include "index/block_cache.h"
#include "server/pinned_stats.h"

namespace graft::server {

namespace {

using Clock = std::chrono::steady_clock;

// Injectable between the successful load and the generation swap, so tests
// can hold a reload failure at the last possible moment.
GRAFT_DEFINE_FAILPOINT(g_fp_reload_swap, "service.reload.swap");

// The counters of every /search body's own "exec" block (?explain=1 adds
// the full set).
auto BriefExecCounters() {
  return exec::kExecCounters |
         std::views::filter(
             [](const exec::ExecCounter& counter) { return counter.brief; });
}

// "explain":{...} block: pinned generation, rewrite table, counters, trace.
void AppendExplainBlock(std::string* out, const core::SearchResult& result,
                        const common::QueryTrace& trace,
                        uint64_t pinned_generation) {
  *out += "\"explain\":{\"generation\":";
  *out += std::to_string(pinned_generation);
  *out += ",\"plan\":\"";
  JsonAppendEscaped(out, result.plan_text);
  *out += "\",\"rewrites\":[";
  bool first = true;
  for (const core::RewriteAttempt& attempt : result.rewrite_attempts) {
    if (!first) *out += ",";
    first = false;
    *out += "{\"name\":\"";
    JsonAppendEscaped(out, core::OptimizationName(attempt.opt));
    *out += "\",\"fired\":";
    *out += attempt.fired ? "true" : "false";
    *out += ",\"verdict\":\"";
    JsonAppendEscaped(out, attempt.verdict);
    *out += "\"}";
  }
  *out += "],\"exec\":";
  SearchService::AppendFullExecJson(out, result.exec_stats);
  *out += ",\"trace\":[";
  first = true;
  for (const common::TraceSpan& span : trace.spans()) {
    if (!first) *out += ",";
    first = false;
    char buf[96];
    *out += "{\"name\":\"";
    JsonAppendEscaped(out, span.name);
    std::snprintf(buf, sizeof(buf), "\",\"us\":%.1f,\"depth\":%u",
                  static_cast<double>(span.DurationNanos()) / 1000.0,
                  span.depth);
    *out += buf;
    if (!span.detail.empty()) {
      *out += ",\"detail\":\"";
      JsonAppendEscaped(out, span.detail);
      *out += "\"";
    }
    *out += "}";
  }
  *out += "]}";
}

}  // namespace

void SearchService::AppendFullExecJson(std::string* out,
                                       const exec::ExecStats& stats) {
  *out += '{';
  common::AppendJsonCounters(out, stats, exec::kExecCounters);
  *out += '}';
}

std::string SearchService::FormatResultsFragment(
    const std::vector<ma::ScoredDoc>& results) {
  std::string out = "\"results\":[";
  char buf[64];
  bool first = true;
  for (const ma::ScoredDoc& hit : results) {
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof(buf), "{\"doc\":%u,\"score\":%.17g}", hit.doc,
                  hit.score);
    out += buf;
  }
  out += "]";
  return out;
}

SearchService::SearchService(const core::Engine* engine,
                             ServiceOptions options)
    : options_(std::move(options)),
      // Non-owning: the caller guarantees lifetime, so the deleter is a
      // no-op. Reload would drop that guarantee, hence reloadable_ = false.
      engine_(std::shared_ptr<const core::Engine>(engine,
                                                  [](const core::Engine*) {})),
      reloadable_(false),
      front_(MakeFront()) {
  // A packed (mmap-loaded) index brings its own decoded-block cache; adopt
  // it so /stats and /metrics can report on it. Set once here, never
  // reassigned — handlers read block_cache_ without a lock.
  block_cache_ = engine->index().block_cache();
}

SearchService::SearchService(std::shared_ptr<const core::EngineBundle> bundle,
                             ServiceOptions options)
    : options_(std::move(options)),
      // Alias into the bundle: the snapshot's control block owns the whole
      // bundle, so index + engine die together, after the last in-flight
      // request lets go.
      engine_(std::shared_ptr<const core::Engine>(bundle,
                                                  bundle->engine.get())),
      reloadable_(!options_.index_path.empty()),
      front_(MakeFront()) {
  // One decoded-block cache for the service's whole lifetime: adopt the
  // initial bundle's cache when it was mmap-loaded, otherwise create one
  // up front when mmap reloads are configured. Set once here, never
  // reassigned — handlers read block_cache_ without a lock; Reload() feeds
  // the same cache to every future generation.
  if (bundle->index != nullptr && bundle->index->block_cache() != nullptr) {
    block_cache_ = bundle->index->block_cache();
  } else if (options_.mmap_index) {
    block_cache_ =
        std::make_shared<index::BlockCache>(options_.block_cache_bytes);
  }
}

SearchService::~SearchService() { Shutdown(); }

SearchFront SearchService::MakeFront() {
  return SearchFront(
      "server", options_, &stats_,
      [this](const SearchCall& call) { return HandleSearch(call); },
      [this](const HttpRequest& request) { return HandleEndpoint(request); });
}

Status SearchService::Start() { return front_.Start(); }

void SearchService::Shutdown() { front_.Shutdown(); }

Status SearchService::Reload() {
  // The replaced generation. Declared before the lock guard, so when no
  // request still pins it, its teardown runs after both reload_mu_ and
  // engine_mu_ are released: it never stalls SnapshotEngine() or /stats.
  std::shared_ptr<const core::Engine> retired;
  std::lock_guard<std::mutex> lock(reload_mu_);
  if (!reloadable_) {
    return Status::InvalidArgument(
        "reload unsupported: service was built without an index_path");
  }
  // Everything up to the store is fallible and leaves no trace: the old
  // generation keeps serving until the one atomic swap below.
  const auto fail = [this](const Status& status) {
    degraded_.store(true, std::memory_order_release);
    last_reload_error_ = std::string(StatusCodeName(status.code())) + ": " +
                         std::string(status.message());
    stats_.reloads_failed.fetch_add(1, std::memory_order_relaxed);
    return status;
  };
  core::BundleLoadOptions load;
  load.mmap_index = options_.mmap_index;
  load.block_cache = block_cache_;  // shared across generations (may be null)
  load.block_cache_bytes = options_.block_cache_bytes;
  StatusOr<core::EngineBundle> loaded = core::LoadEngineBundle(
      options_.index_path, options_.segments, options_.engine_threads, load);
  if (!loaded.ok()) return fail(loaded.status());
#ifdef GRAFT_FAILPOINTS_ENABLED
  {
    const Status injected = g_fp_reload_swap.Check();
    if (!injected.ok()) return fail(injected);
  }
#endif
  auto bundle =
      std::make_shared<const core::EngineBundle>(std::move(loaded).value());
  std::shared_ptr<const core::Engine> snapshot(bundle, bundle->engine.get());
  uint64_t old_cache_generation = 0;
  {
    std::lock_guard<std::mutex> engine_lock(engine_mu_);
    old_cache_generation = engine_->index().cache_generation();
    retired = std::exchange(engine_, std::move(snapshot));
  }
  generation_.fetch_add(1, std::memory_order_acq_rel);
  // Drop the replaced generation's decoded blocks from the shared cache:
  // they can never be looked up again (cache keys carry the generation),
  // so leaving them in would squat on capacity until LRU pressure evicts
  // them. In-flight requests still pinning the old engine keep their
  // blocks alive via shared_ptr — this only removes cache references.
  if (block_cache_ != nullptr && old_cache_generation != 0) {
    block_cache_->EraseGeneration(old_cache_generation);
  }
  degraded_.store(false, std::memory_order_release);
  last_reload_error_.clear();
  stats_.reloads_ok.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

std::optional<Response> SearchService::HandleEndpoint(
    const HttpRequest& request) {
  if (request.path == "/healthz") return HandleHealthz();
  if (request.path == "/shard/stats") return HandleShardStats(request);
  if (request.path == "/stats") return HandleStats();
  if (request.path == "/metrics") return HandleMetrics();
  if (request.path == "/admin/reload") return HandleReload();
  return std::nullopt;
}

Response SearchService::HandleShardStats(const HttpRequest& request) {
  stats_.shard_stats_requests.fetch_add(1, std::memory_order_relaxed);
  // Pin engine + generation together: the generation in this response is
  // the one the reported statistics came from, which is what the router's
  // expect_gen check on the subsequent /search validates against.
  const std::shared_ptr<const core::Engine> engine = SnapshotEngine();
  const uint64_t pinned_generation = generation();
  const index::InvertedIndex& index = engine->index();

  Response response;
  std::string body = "{\"generation\":";
  body += std::to_string(pinned_generation);
  body += ",\"doc_count\":";
  body += std::to_string(index.doc_count());
  body += ",\"total_words\":";
  body += std::to_string(index.total_words());
  body += ",\"terms\":[";
  const std::string* terms_param = request.param("terms");
  std::string_view terms =
      terms_param == nullptr ? std::string_view() : *terms_param;
  bool first = true;
  while (!terms.empty()) {
    const size_t comma = terms.find(',');
    const std::string_view term = terms.substr(0, comma);
    terms = comma == std::string_view::npos ? std::string_view()
                                            : terms.substr(comma + 1);
    if (term.empty()) continue;
    // Terms this shard has never seen are a normal outcome of corpus
    // partitioning, not an error: df=0/cf=0 sums correctly at the router.
    const TermId id = index.LookupTerm(term);
    const uint64_t df = id == kInvalidTerm ? 0 : index.DocFreq(id);
    const uint64_t cf = id == kInvalidTerm ? 0 : index.CollectionFreq(id);
    if (!first) body += ",";
    first = false;
    body += "{\"term\":\"";
    JsonAppendEscaped(&body, term);
    body += "\",\"df\":";
    body += std::to_string(df);
    body += ",\"cf\":";
    body += std::to_string(cf);
    body += "}";
  }
  body += "]}";
  response.body = std::move(body);
  return response;
}

Response SearchService::HandleHealthz() const {
  const std::shared_ptr<const core::Engine> engine = SnapshotEngine();
  Response response;
  response.body = "{\"status\":\"";
  response.body += degraded() ? "degraded" : "ok";
  response.body += "\",\"docs\":";
  response.body += std::to_string(engine->index().doc_count());
  response.body += ",\"segments\":";
  response.body += std::to_string(engine->segmented() == nullptr
                                      ? 1
                                      : engine->segmented()->segment_count());
  response.body += ",\"generation\":";
  response.body += std::to_string(generation());
  response.body += "}";
  return response;
}

Response SearchService::HandleStats() const {
  Response response;
  std::string body = stats_.ToJson();
  // Splice uptime + reload state into the stats object.
  body.pop_back();  // trailing '}'
  body += ",\"uptime_s\":";
  body += std::to_string(front_.uptime_s());
  body += ",\"index_generation\":";
  body += std::to_string(generation());
  body += ",\"degraded\":";
  body += degraded() ? "true" : "false";
  body += ",\"last_reload_error\":\"";
  {
    std::lock_guard<std::mutex> lock(reload_mu_);
    JsonAppendEscaped(&body, last_reload_error_);
  }
  body += "\",\"inflight\":";
  body += std::to_string(front_.inflight());
  if (block_cache_ != nullptr) {
    body += ",\"block_cache\":{";
    common::AppendJsonCounters(&body, block_cache_->snapshot(),
                               index::kBlockCacheCounters);
    body += "}";
  }
  body += "}";
  response.body = std::move(body);
  return response;
}

Response SearchService::HandleMetrics() const {
  Response response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  std::string body = stats_.ToPrometheus();
  // Service-level gauges live here, next to the counters ServerStats owns.
  body += "# HELP graft_inflight_requests Admitted but unanswered requests.\n";
  body += "# TYPE graft_inflight_requests gauge\n";
  body += "graft_inflight_requests " + std::to_string(front_.inflight()) + "\n";
  body += "# HELP graft_index_generation Engine generation (1 + reloads).\n";
  body += "# TYPE graft_index_generation gauge\n";
  body += "graft_index_generation " + std::to_string(generation()) + "\n";
  body += "# HELP graft_degraded 1 while the last reload attempt failed.\n";
  body += "# TYPE graft_degraded gauge\n";
  body += std::string("graft_degraded ") + (degraded() ? "1" : "0") + "\n";
  body += "# HELP graft_uptime_seconds Seconds since Start().\n";
  body += "# TYPE graft_uptime_seconds gauge\n";
  body += "graft_uptime_seconds " + std::to_string(front_.uptime_s()) + "\n";
  if (block_cache_ != nullptr) {
    common::AppendPrometheusCounters(&body, block_cache_->snapshot(),
                                     index::kBlockCacheCounters);
  }
  response.body = std::move(body);
  return response;
}

Response SearchService::HandleReload() {
  Response response;
  const Status status = Reload();
  std::string body = "{\"reloaded\":";
  body += status.ok() ? "true" : "false";
  body += ",\"generation\":";
  body += std::to_string(generation());
  body += ",\"degraded\":";
  body += degraded() ? "true" : "false";
  if (!status.ok()) {
    response.status_code = HttpCodeForStatus(status) == 400 ? 400 : 500;
    body += ",\"error\":\"";
    JsonAppendEscaped(&body, StatusCodeName(status.code()));
    body += "\",\"message\":\"";
    JsonAppendEscaped(&body, status.message());
    body += "\"";
  }
  body += "}";
  response.body = std::move(body);
  return response;
}

Response SearchService::HandleSearch(const SearchCall& call) {
  // ---- the server's own parameters; the front parsed the shared ones ----
  core::SearchRequestParams params;
  params.query = call.query;
  params.scheme = call.scheme;
  params.top_k = call.k;
  const struct {
    const char* name;
    size_t* out;
  } counts[] = {
      {"threads", &params.num_threads},
      {"segments", &params.segments},
  };
  for (const auto& field : counts) {
    if (const std::string* text = call.request.param(field.name)) {
      StatusOr<size_t> value = core::ParseCount(*text, field.name);
      if (!value.ok()) return ErrorResponse(value.status());
      *field.out = *value;
    }
  }

  // Pin the engine generation once: a reload that lands mid-request swaps
  // the service's pointer but cannot touch this snapshot, and the control
  // block keeps the whole old bundle alive until we return. The explain
  // block reports this pinned generation, not the live one — an EXPLAIN
  // that overlaps a reload describes the engine it actually ran on.
  const std::shared_ptr<const core::Engine> engine = SnapshotEngine();
  const uint64_t pinned_generation = generation();

  // Router generation fence: the pinned statistics in gstats were summed
  // from /shard/stats responses at a specific generation; if a reload
  // landed since, scoring would silently mix new postings with old global
  // statistics. 409 tells the router to re-collect and retry.
  if (const std::string* text = call.request.param("expect_gen")) {
    StatusOr<size_t> expected = core::ParseCount(*text, "expect_gen");
    if (!expected.ok()) return ErrorResponse(expected.status());
    if (*expected != pinned_generation) {
      stats_.generation_conflicts.fetch_add(1, std::memory_order_relaxed);
      Response response;
      response.status_code = 409;
      response.body = "{\"error\":\"generation_conflict\",\"expected\":" +
                      std::to_string(*expected) + ",\"generation\":" +
                      std::to_string(pinned_generation) + "}";
      return response;
    }
  }

  StatusOr<core::ResolvedRequest> resolved =
      core::ResolveRequest(*engine, params);
  if (!resolved.ok()) return ErrorResponse(resolved.status());
  common::QueryTrace trace;  // outlives the engine call
  if (call.explain) {
    resolved->options.trace = &trace;
  }

  // Pinned global statistics from the router (phase 2 of the stats
  // exchange), installed as a per-request overlay.
  index::StatsOverlay pinned_overlay;  // outlives the engine call
  if (const std::string* text = call.request.param("gstats")) {
    StatusOr<PinnedStats> pinned = DecodePinnedStats(*text);
    if (!pinned.ok()) return ErrorResponse(pinned.status());
    pinned_overlay = ToOverlay(*pinned);
    resolved->options.stats_overlay = &pinned_overlay;
  }

  if (options_.test_search_delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.test_search_delay_ms));
  }

  if (call.remaining_ms() == 0) {
    return call.DeadlineExceeded("elapsed before execution");
  }

  const Clock::time_point engine_start = Clock::now();
  StatusOr<core::SearchResult> result = engine->SearchQuery(
      resolved->query, *resolved->scheme, resolved->options);
  const uint64_t engine_micros = MicrosSince(engine_start);

  stats_.scheme_counts.Record(params.scheme);
  if (result.ok() && result->used_block_max_pruning) {
    stats_.pruned_searches.fetch_add(1, std::memory_order_relaxed);
    stats_.topk_blocks_skipped.fetch_add(
        result->exec_stats.topk_blocks_skipped, std::memory_order_relaxed);
  }
  if (result.ok()) {
    // Per-rule fire counts, slot-aligned with the rewrite-rule registry
    // (exported as graft_rewrite_rule_fired_total{rule=...}).
    const size_t rules = std::min(core::RewriteRuleRegistry::Global().All().size(),
                                  ServerStats::kMaxRules);
    for (size_t i = 0; i < rules; ++i) {
      const uint64_t fired = result->exec_stats.rule_fired[i];
      if (fired != 0) {
        stats_.rule_fired[i].fetch_add(fired, std::memory_order_relaxed);
      }
    }
  }
  // Slow-query log: threshold on the full latency the client saw
  // (queue + handling), which is what a tail-latency alert fires on.
  if (options_.slow_query_ms > 0 &&
      call.elapsed_micros() >= options_.slow_query_ms * 1000) {
    stats_.slow_queries.fetch_add(1, std::memory_order_relaxed);
    std::string counters;
    if (result.ok()) {
      for (const exec::ExecCounter& counter : BriefExecCounters()) {
        counters += ' ' + std::string(counter.name) + '=' +
                    std::to_string(result->exec_stats.*counter.member);
      }
    }
    std::fprintf(stderr,
                 "[slow-query] total=%.1fms queue=%.1fms engine=%.1fms "
                 "scheme=%s%s query=%s\n",
                 static_cast<double>(call.elapsed_micros()) / 1000.0,
                 static_cast<double>(call.queued_micros) / 1000.0,
                 static_cast<double>(engine_micros) / 1000.0,
                 params.scheme.c_str(), counters.c_str(),
                 params.query.c_str());
  }
  if (!result.ok()) return ErrorResponse(result.status());
  if (call.remaining_ms() == 0) {
    // The engine is not preemptible; the honest answer is a late 504.
    return call.DeadlineExceeded("exceeded during execution");
  }

  // ---- 200 body ----
  std::string body = "{\"query\":\"";
  JsonAppendEscaped(&body, params.query);
  body += "\",\"scheme\":\"";
  JsonAppendEscaped(&body, params.scheme);
  body += "\",\"k\":";
  body += std::to_string(params.top_k);
  body += ",\"segments_searched\":";
  body += std::to_string(result->segments_searched);
  body += ",\"used_rank_processing\":";
  body += result->used_rank_processing ? "true" : "false";
  body += ",\"used_block_max_pruning\":";
  body += result->used_block_max_pruning ? "true" : "false";
  body += ",\"optimizations\":\"";
  JsonAppendEscaped(&body, result->applied_optimizations);
  body += "\",\"timings\":{";
  AppendMsField(&body, "queue_ms", static_cast<double>(call.queued_micros));
  body += ",";
  AppendMsField(&body, "engine_ms", static_cast<double>(engine_micros));
  body += ",";
  AppendMsField(&body, "total_ms", static_cast<double>(call.elapsed_micros()));
  body += "},\"exec\":{";
  common::AppendJsonCounters(&body, result->exec_stats, BriefExecCounters());
  body += "},";
  if (call.explain) {
    AppendExplainBlock(&body, *result, trace, pinned_generation);
    body += ",";
  }
  body += FormatResultsFragment(result->results);
  body += "}";
  Response response;
  response.body = std::move(body);
  return response;
}

}  // namespace graft::server
