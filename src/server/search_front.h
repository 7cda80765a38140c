// The /search front both HTTP services share (DESIGN.md §2c): SearchService
// answers /search from a local engine, router::RouterService from its
// shards, and both put this in front. It holds, once:
//   * the options: HttpServerOptions plus the /search limits;
//   * the dispatch: non-GET -> 405, /search -> the service's search
//     handler, any other path -> its endpoint handler, else 404;
//   * the parameters every /search takes (q, scheme, k, deadline_ms,
//     explain), checked against the limits: a bad one answers 4xx before
//     the service runs;
//   * the deadline, which runs from admission (queued time counts), and
//     its 504;
//   * one latency record per /search response, whatever its code;
//   * the connection layer (HttpServer) and the uptime since Start().
// Each service keeps its 200 body, its own parameters and endpoints, and
// its /stats and /metrics.

#ifndef GRAFT_SERVER_SEARCH_FRONT_H_
#define GRAFT_SERVER_SEARCH_FRONT_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "server/http.h"
#include "server/http_server.h"
#include "server/server_stats.h"

namespace graft::server {

// The options ServiceOptions and router::RouterOptions share.
struct FrontOptions : HttpServerOptions {
  // Deadline applied when the client sends no deadline_ms; client values
  // are clamped to max_deadline_ms.
  uint64_t default_deadline_ms = 2000;
  uint64_t max_deadline_ms = 30000;
  // k applied when the client sends no k (0 = all matching documents,
  // which only a single server answers), and the largest k accepted.
  size_t default_top_k = 10;
  size_t max_top_k = 10000;
};

// One /search being answered: the shared parameters, parsed, and the
// request's clock, which starts when the front takes it.
struct SearchCall {
  using Clock = std::chrono::steady_clock;

  SearchCall(const HttpRequest& request, uint64_t queued_micros,
             unsigned retry_after_s)
      : request(request),
        queued_micros(queued_micros),
        handle_start(Clock::now()),
        retry_after_s(retry_after_s) {}

  // The parameters below view into it; a service reads its own from it.
  const HttpRequest& request;
  const uint64_t queued_micros;   // waited for a handler after admission
  const Clock::time_point handle_start;
  const unsigned retry_after_s;   // advertised on a 504
  std::string_view query;         // q (required)
  std::string_view scheme = "MeanSum";
  size_t k = 0;                   // at most max_top_k
  uint64_t deadline_ms = 0;       // > 0, at most max_deadline_ms
  bool explain = false;           // explain=1 or explain=true

  // Time since admission: queued plus handled so far.
  uint64_t elapsed_micros() const {
    return queued_micros + MicrosSince(handle_start);
  }

  // Whole milliseconds of the deadline left; 0 once it has passed.
  uint64_t remaining_ms() const;

  // The 504 for a passed deadline: "deadline of <n>ms <stage>".
  Response DeadlineExceeded(std::string_view stage) const;
};

class SearchFront {
 public:
  // Answers a /search whose shared parameters parsed.
  using SearchHandler = std::function<Response(const SearchCall& call)>;
  // Answers any other GET path; nullopt for a path the service lacks.
  using EndpointHandler =
      std::function<std::optional<Response>(const HttpRequest& request)>;

  // `name` speaks in the connection layer's 503 bodies; `counters` must
  // outlive the front.
  SearchFront(std::string name, const FrontOptions& options,
              RequestCounters* counters, SearchHandler search,
              EndpointHandler endpoints);

  // Records the start time, then starts the connection layer.
  Status Start();
  void Shutdown() { http_.Shutdown(); }

  uint16_t port() const { return http_.port(); }
  size_t inflight() const { return http_.inflight(); }
  uint64_t uptime_s() const { return MicrosSince(started_at_) / 1000000; }

  // Routes one parsed request; `queued_micros` is how long it waited for
  // a handler after admission.
  Response Handle(const HttpRequest& request, uint64_t queued_micros) const;

 private:
  Status ParseSearchParams(SearchCall* call) const;

  const FrontOptions options_;
  RequestCounters* const counters_;
  const SearchHandler search_;
  const EndpointHandler endpoints_;
  std::chrono::steady_clock::time_point started_at_;
  // Declared last: shut down (by the destructor) while everything its
  // handlers use is still alive.
  HttpServer http_;
};

// Appends "<name>":<micros in milliseconds, %.3f>: a /search timing field.
void AppendMsField(std::string* out, std::string_view name, double micros);

}  // namespace graft::server

#endif  // GRAFT_SERVER_SEARCH_FRONT_H_
