#include "router/router_service.h"

#include <algorithm>
#include <cstdio>

#include "common/counters.h"
#include "core/request.h"
#include "mcalc/parser.h"
#include "sa/scoring_scheme.h"

namespace graft::router {

namespace {

using Clock = std::chrono::steady_clock;
using server::ErrorBody;
using server::HttpCodeForStatus;
using server::HttpRequest;
using server::JsonAppendEscaped;
using server::Response;

server::HttpServerOptions HttpOptions(const RouterOptions& options) {
  server::HttpServerOptions http;
  http.port = options.port;
  http.handler_threads = options.handler_threads;
  http.max_inflight = options.max_inflight;
  http.io_timeout_ms = options.io_timeout_ms;
  http.retry_after_s = options.retry_after_s;
  http.name = "router";
  return http;
}

uint64_t MicrosSince(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0)
          .count());
}

void AppendMsField(std::string* out, std::string_view name, double micros) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%.*s\":%.3f",
                static_cast<int>(name.size()), name.data(), micros / 1000.0);
  *out += buf;
}

void AppendShardOutcomes(std::string* out,
                         const std::vector<ShardOutcome>& outcomes) {
  *out += "\"shards\":[";
  bool first = true;
  for (const ShardOutcome& shard : outcomes) {
    if (!first) *out += ",";
    first = false;
    *out += "{\"shard\":" + std::to_string(shard.shard);
    *out += ",\"port\":" + std::to_string(shard.port);
    *out += ",\"outcome\":\"";
    JsonAppendEscaped(out, shard.outcome);
    *out += "\",\"attempts\":" + std::to_string(shard.attempts);
    *out += ",\"hedged\":";
    *out += shard.hedged ? "true" : "false";
    *out += ",\"results\":" + std::to_string(shard.results);
    char buf[48];
    std::snprintf(buf, sizeof(buf), ",\"latency_ms\":%.3f",
                  shard.latency_ms);
    *out += buf;
    if (!shard.error.empty()) {
      *out += ",\"error\":\"";
      JsonAppendEscaped(out, shard.error);
      *out += "\"";
    }
    *out += "}";
  }
  *out += "]";
}

}  // namespace

void RouterStats::RecordResponseCode(int status_code) {
  if (status_code >= 200 && status_code < 300) {
    responses_ok.fetch_add(1, std::memory_order_relaxed);
  } else if (status_code == 503) {
    rejected_overload.fetch_add(1, std::memory_order_relaxed);
  } else if (status_code == 504) {
    deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
  } else if (status_code == 502) {
    bad_gateway.fetch_add(1, std::memory_order_relaxed);
  } else if (status_code >= 400 && status_code < 500) {
    client_errors.fetch_add(1, std::memory_order_relaxed);
  } else {
    bad_gateway.fetch_add(1, std::memory_order_relaxed);
  }
}

RouterService::RouterService(
    std::vector<std::vector<uint16_t>> shard_replicas, RouterOptions options)
    : options_(std::move(options)),
      gather_(std::make_unique<ScatterGather>(std::move(shard_replicas),
                                              options_.gather)),
      http_(HttpOptions(options_),
            [this](const HttpRequest& request, uint64_t queued_micros) {
              return Handle(request, queued_micros);
            },
            &stats_) {}

RouterService::~RouterService() { Shutdown(); }

Status RouterService::Start() {
  if (http_.started()) {
    return Status::FailedPrecondition("router already started");
  }
  started_at_ = Clock::now();  // before any handler thread can read it
  GRAFT_RETURN_IF_ERROR(http_.Start());
  gather_->StartProbes();
  return Status::Ok();
}

void RouterService::Shutdown() {
  http_.Shutdown();
  gather_->StopProbes();
}

Response RouterService::Handle(const HttpRequest& request,
                               uint64_t queued_micros) {
  Response response;
  if (request.method != "GET") {
    response.status_code = 405;
    response.body =
        ErrorBody(Status::InvalidArgument("only GET is supported"));
    return response;
  }
  if (request.path == "/healthz") return HandleHealthz();
  if (request.path == "/stats") return HandleStats();
  if (request.path == "/metrics") return HandleMetrics();
  if (request.path == "/search") return HandleSearch(request, queued_micros);
  response.status_code = 404;
  response.body =
      ErrorBody(Status::NotFound("no such endpoint: " + request.path));
  return response;
}

Response RouterService::HandleSearch(const HttpRequest& request,
                                     uint64_t queued_micros) {
  const Clock::time_point handle_start = Clock::now();
  Response response;
  const auto record_latency = [&] {
    stats_.search_latency.Record(queued_micros + MicrosSince(handle_start));
  };

  // ---- parameter parsing (every failure is a 4xx) ----
  const auto get = [&request](const char* name) -> const std::string* {
    const auto it = request.params.find(name);
    return it == request.params.end() ? nullptr : &it->second;
  };
  const std::string* q = get("q");
  if (q == nullptr) {
    response.status_code = 400;
    response.body =
        ErrorBody(Status::InvalidArgument("missing required parameter: q"));
    record_latency();
    return response;
  }
  std::string scheme = "MeanSum";
  if (const std::string* text = get("scheme")) scheme = *text;
  size_t k = options_.default_top_k;
  if (const std::string* text = get("k")) {
    StatusOr<size_t> value = core::ParseCount(*text, "k");
    if (!value.ok()) {
      response.status_code = HttpCodeForStatus(value.status());
      response.body = ErrorBody(value.status());
      record_latency();
      return response;
    }
    k = *value;
  }
  if (k == 0 || k > options_.max_top_k) {
    response.status_code = 400;
    response.body = ErrorBody(Status::InvalidArgument(
        "k must be in [1, " + std::to_string(options_.max_top_k) +
        "] (distributed search cannot return unbounded result sets)"));
    record_latency();
    return response;
  }
  uint64_t deadline_ms = options_.default_deadline_ms;
  if (const std::string* text = get("deadline_ms")) {
    StatusOr<size_t> value = core::ParseCount(*text, "deadline_ms");
    if (!value.ok() || *value == 0) {
      const Status status =
          value.ok() ? Status::InvalidArgument("deadline_ms must be > 0")
                     : value.status();
      response.status_code = HttpCodeForStatus(status);
      response.body = ErrorBody(status);
      record_latency();
      return response;
    }
    deadline_ms = std::min<uint64_t>(*value, options_.max_deadline_ms);
  }
  bool explain = false;
  if (const std::string* text = get("explain")) {
    explain = *text == "1" || *text == "true";
  }

  // The router validates the query and scheme itself (same parser and
  // registry as the shards), so malformed input burns zero shard budget
  // and the term list for the stats exchange falls out of the parse.
  StatusOr<mcalc::Query> parsed = mcalc::ParseQuery(*q);
  if (!parsed.ok()) {
    response.status_code = HttpCodeForStatus(parsed.status());
    response.body = ErrorBody(parsed.status());
    record_latency();
    return response;
  }
  if (sa::SchemeRegistry::Global().Lookup(scheme) == nullptr) {
    response.status_code = 404;
    response.body =
        ErrorBody(Status::NotFound("unknown scoring scheme: " + scheme));
    record_latency();
    return response;
  }
  std::vector<std::string> terms;
  terms.reserve(parsed->variables.size());
  for (const mcalc::Variable& variable : parsed->variables) {
    terms.push_back(variable.keyword);
  }

  stats_.scheme_counts.Record(scheme);

  // ---- fan out ----
  const uint64_t spent_ms =
      (queued_micros + MicrosSince(handle_start)) / 1000;
  if (spent_ms >= deadline_ms) {
    response.status_code = 504;
    response.retry_after_s = options_.retry_after_s;
    response.body = ErrorBody(Status::FailedPrecondition(
        "deadline of " + std::to_string(deadline_ms) +
        "ms elapsed before fan-out"));
    record_latency();
    return response;
  }
  const std::string tail = "q=" + server::UrlEncode(*q) +
                           "&scheme=" + server::UrlEncode(scheme);
  StatusOr<GatherResult> gathered =
      gather_->Search(terms, tail, k, deadline_ms - spent_ms);
  if (!gathered.ok()) {
    // A client mistake stays 4xx; everything else is the gateway speaking
    // for unreachable/failed shards.
    const int mapped = HttpCodeForStatus(gathered.status());
    response.status_code = mapped == 400 || mapped == 404 ? mapped : 502;
    response.body = ErrorBody(gathered.status());
    record_latency();
    return response;
  }
  if ((queued_micros + MicrosSince(handle_start)) / 1000 >= deadline_ms) {
    response.status_code = 504;
    response.retry_after_s = options_.retry_after_s;
    response.body = ErrorBody(Status::FailedPrecondition(
        "deadline of " + std::to_string(deadline_ms) +
        "ms exceeded during fan-out"));
    record_latency();
    return response;
  }

  if (gathered->degraded) {
    stats_.partial_responses.fetch_add(1, std::memory_order_relaxed);
  }

  // ---- 200 body: the degradation contract is always present ----
  std::string body = "{\"query\":\"";
  JsonAppendEscaped(&body, *q);
  body += "\",\"scheme\":\"";
  JsonAppendEscaped(&body, scheme);
  body += "\",\"k\":" + std::to_string(k);
  body += ",\"degraded\":";
  body += gathered->degraded ? "true" : "false";
  body += ",\"shards_total\":" + std::to_string(gathered->shards_total);
  body += ",\"shards_ok\":" + std::to_string(gathered->shards_ok);
  body += ",";
  AppendShardOutcomes(&body, gathered->outcomes);
  body += ",\"timings\":{";
  AppendMsField(&body, "queue_ms", static_cast<double>(queued_micros));
  body += ",";
  AppendMsField(&body, "total_ms",
                static_cast<double>(queued_micros +
                                    MicrosSince(handle_start)));
  body += "},";
  if (explain) {
    body += "\"explain\":{\"stats_epoch\":";
    body += std::to_string(gathered->stats_epoch);
    body += ",\"terms\":[";
    bool first = true;
    for (const std::string& term : terms) {
      if (!first) body += ",";
      first = false;
      body += "\"";
      JsonAppendEscaped(&body, term);
      body += "\"";
    }
    body += "],\"policy\":\"";
    body += options_.gather.partial_policy == PartialPolicy::kFail
                ? "fail"
                : "partial";
    body += "\",\"hedge_ms\":";
    body += std::to_string(options_.gather.hedge_ms);
    body += "},";
  }
  body += server::SearchService::FormatResultsFragment(gathered->results);
  body += "}";
  response.body = std::move(body);
  record_latency();
  return response;
}

Response RouterService::HandleHealthz() const {
  // The router is healthy while it can still reach some of the corpus;
  // per-shard replica health is the detail a prober wants next.
  size_t dark_shards = 0;
  std::string shard_list = "[";
  for (size_t i = 0; i < gather_->shard_count(); ++i) {
    const ShardClient& shard = gather_->shard(i);
    if (!shard.any_healthy()) ++dark_shards;
    if (i > 0) shard_list += ",";
    shard_list += "{\"shard\":" + std::to_string(i) +
                  ",\"replicas\":" + std::to_string(shard.replica_count()) +
                  ",\"healthy\":" + std::to_string(shard.healthy_count()) +
                  "}";
  }
  shard_list += "]";
  Response response;
  response.body = "{\"status\":\"";
  response.body += dark_shards == 0
                       ? "ok"
                       : (dark_shards < gather_->shard_count() ? "degraded"
                                                               : "down");
  response.body += "\",\"shards\":" + shard_list + "}";
  return response;
}

Response RouterService::HandleStats() const {
  Response response;
  std::string body = "{";
  common::AppendJsonCounters(&body, stats_, kRouterCounters);
  body += ",\"gathers\":{";
  common::AppendJsonCounters(&body, gather_->counters(), kGatherCounters);
  body += "},\"stats_epoch\":";
  body += std::to_string(gather_->stats_epoch());
  body += ",\"shards\":[";
  for (size_t i = 0; i < gather_->shard_count(); ++i) {
    const ShardClient& shard = gather_->shard(i);
    if (i > 0) body += ",";
    body += "{\"shard\":" + std::to_string(i);
    body += ",\"replicas\":" + std::to_string(shard.replica_count());
    body += ",\"healthy\":" + std::to_string(shard.healthy_count()) + ",";
    common::AppendJsonCounters(&body, shard.counters(), kShardClientCounters);
    body += "}";
  }
  body += "],\"search_latency\":";
  body += stats_.search_latency.ToJson();
  body += ",\"by_scheme\":";
  body += stats_.scheme_counts.ToJson();
  body += ",\"uptime_s\":";
  body += std::to_string(MicrosSince(started_at_) / 1000000);
  body += "}";
  response.body = std::move(body);
  return response;
}

Response RouterService::HandleMetrics() const {
  Response response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  std::string body;
  common::AppendPrometheusCounters(&body, stats_, kRouterCounters);
  common::AppendPrometheusCounters(&body, gather_->counters(),
                                   kGatherCounters);

  body += "# HELP graft_router_stats_epoch Current pinned-stats epoch.\n";
  body += "# TYPE graft_router_stats_epoch gauge\n";
  body += "graft_router_stats_epoch " +
          std::to_string(gather_->stats_epoch()) + "\n";

  // Per-shard wire counters + health gauges, labeled by shard index.
  common::AppendLabelledPrometheusCounters(
      &body, kShardClientCounters, "shard", gather_->shard_count(),
      [this](size_t i) -> const ShardClientCounters& {
        return gather_->shard(i).counters();
      });
  body += "# HELP graft_router_shard_healthy_replicas Non-ejected "
          "replicas per shard.\n";
  body += "# TYPE graft_router_shard_healthy_replicas gauge\n";
  for (size_t i = 0; i < gather_->shard_count(); ++i) {
    body += "graft_router_shard_healthy_replicas{shard=\"" +
            std::to_string(i) + "\"} " +
            std::to_string(gather_->shard(i).healthy_count()) + "\n";
  }

  // Latency summary, matching the server's exposition shape.
  body += "# HELP graft_router_search_latency_seconds /search latency.\n";
  body += "# TYPE graft_router_search_latency_seconds summary\n";
  const struct {
    const char* label;
    double q;
  } quantiles[] = {{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}};
  char buf[128];
  for (const auto& quantile : quantiles) {
    std::snprintf(
        buf, sizeof(buf),
        "graft_router_search_latency_seconds{quantile=\"%s\"} %.6f\n",
        quantile.label,
        stats_.search_latency.PercentileMicros(quantile.q) / 1e6);
    body += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "graft_router_search_latency_seconds_sum %.6f\n",
                static_cast<double>(stats_.search_latency.sum_micros()) / 1e6);
  body += buf;
  body += "graft_router_search_latency_seconds_count " +
          std::to_string(stats_.search_latency.count()) + "\n";

  body += "# HELP graft_router_uptime_seconds Seconds since Start().\n";
  body += "# TYPE graft_router_uptime_seconds gauge\n";
  body += "graft_router_uptime_seconds " +
          std::to_string(MicrosSince(started_at_) / 1000000) + "\n";
  response.body = std::move(body);
  return response;
}

}  // namespace graft::router
