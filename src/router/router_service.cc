#include "router/router_service.h"

#include <cstdio>

#include "common/counters.h"
#include "mcalc/parser.h"
#include "sa/scoring_scheme.h"

namespace graft::router {

namespace {

using server::ErrorResponse;
using server::HttpCodeForStatus;
using server::HttpRequest;
using server::JsonAppendEscaped;
using server::Response;
using server::SearchCall;

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

RouterService::RouterService(
    std::vector<std::vector<uint16_t>> shard_replicas, RouterOptions options)
    : options_(std::move(options)),
      gather_(std::make_unique<ScatterGather>(std::move(shard_replicas),
                                              options_.gather)),
      front_("router", options_, &stats_,
             [this](const SearchCall& call) { return HandleSearch(call); },
             [this](const HttpRequest& request) {
               return HandleEndpoint(request);
             }) {}

RouterService::~RouterService() { Shutdown(); }

Status RouterService::Start() {
  GRAFT_RETURN_IF_ERROR(front_.Start());
  gather_->StartProbes();
  return Status::Ok();
}

void RouterService::Shutdown() {
  front_.Shutdown();
  gather_->StopProbes();
}

std::optional<Response> RouterService::HandleEndpoint(
    const HttpRequest& request) const {
  if (request.path == "/healthz") return HandleHealthz();
  if (request.path == "/stats") return HandleStats();
  if (request.path == "/metrics") return HandleMetrics();
  return std::nullopt;
}

Response RouterService::HandleSearch(const SearchCall& call) {
  if (call.k == 0) {
    return ErrorResponse(Status::InvalidArgument(
        "k must be > 0 (distributed search cannot return unbounded result "
        "sets)"));
  }
  // The router validates the query and scheme itself (same parser and
  // registry as the shards), so malformed input burns zero shard budget
  // and the term list for the stats exchange falls out of the parse.
  StatusOr<mcalc::Query> parsed = mcalc::ParseQuery(call.query);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  if (sa::SchemeRegistry::Global().Lookup(call.scheme) == nullptr) {
    return ErrorResponse(Status::NotFound("unknown scoring scheme: " +
                                          std::string(call.scheme)));
  }
  std::vector<std::string> terms;
  terms.reserve(parsed->variables.size());
  for (const mcalc::Variable& variable : parsed->variables) {
    terms.push_back(variable.keyword);
  }

  stats_.scheme_counts.Record(call.scheme);

  // ---- fan out, with what is left of the deadline ----
  const uint64_t budget_ms = call.remaining_ms();
  if (budget_ms == 0) return call.DeadlineExceeded("elapsed before fan-out");
  const std::string tail = "q=" + server::UrlEncode(call.query) +
                           "&scheme=" + server::UrlEncode(call.scheme);
  StatusOr<GatherResult> gathered =
      gather_->Search(terms, tail, call.k, budget_ms);
  if (!gathered.ok()) {
    // A client mistake stays 4xx; everything else is the gateway speaking
    // for unreachable/failed shards.
    const int mapped = HttpCodeForStatus(gathered.status());
    return ErrorResponse(mapped == 400 || mapped == 404 ? mapped : 502,
                         gathered.status());
  }
  if (call.remaining_ms() == 0) {
    return call.DeadlineExceeded("exceeded during fan-out");
  }

  if (gathered->degraded) {
    stats_.partial_responses.fetch_add(1, std::memory_order_relaxed);
  }

  // ---- 200 body: the degradation contract is always present ----
  std::string body = "{\"query\":\"";
  JsonAppendEscaped(&body, call.query);
  body += "\",\"scheme\":\"";
  JsonAppendEscaped(&body, call.scheme);
  body += "\",\"k\":" + std::to_string(call.k);
  body += ",\"degraded\":";
  body += gathered->degraded ? "true" : "false";
  body += ",\"shards_total\":" + std::to_string(gathered->shards_total);
  body += ",\"shards_ok\":" + std::to_string(gathered->shards_ok);
  body += ",";
  AppendShardOutcomes(&body, gathered->outcomes);
  body += ",\"timings\":{";
  server::AppendMsField(&body, "queue_ms",
                        static_cast<double>(call.queued_micros));
  body += ",";
  server::AppendMsField(&body, "total_ms",
                        static_cast<double>(call.elapsed_micros()));
  body += "},";
  if (call.explain) {
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
  Response response;
  response.body = std::move(body);
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
  body += std::to_string(front_.uptime_s());
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
          std::to_string(front_.uptime_s()) + "\n";
  response.body = std::move(body);
  return response;
}

}  // namespace graft::router
