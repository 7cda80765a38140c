#include "server/search_front.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "core/request.h"

namespace graft::server {

uint64_t SearchCall::remaining_ms() const {
  const uint64_t spent_ms = elapsed_micros() / 1000;
  return spent_ms >= deadline_ms ? 0 : deadline_ms - spent_ms;
}

Response SearchCall::DeadlineExceeded(std::string_view stage) const {
  Response response = ErrorResponse(
      504, Status::FailedPrecondition("deadline of " +
                                      std::to_string(deadline_ms) + "ms " +
                                      std::string(stage)));
  response.retry_after_s = retry_after_s;
  return response;
}

SearchFront::SearchFront(std::string name, const FrontOptions& options,
                         RequestCounters* counters, SearchHandler search,
                         EndpointHandler endpoints)
    : options_(options),
      counters_(counters),
      search_(std::move(search)),
      endpoints_(std::move(endpoints)),
      http_(std::move(name), options_,
            [this](const HttpRequest& request, uint64_t queued_micros) {
              return Handle(request, queued_micros);
            },
            counters) {}

Status SearchFront::Start() {
  if (http_.started()) return Status::FailedPrecondition("already started");
  started_at_ = std::chrono::steady_clock::now();  // before any handler runs
  return http_.Start();
}

Response SearchFront::Handle(const HttpRequest& request,
                             uint64_t queued_micros) const {
  if (request.method != "GET") {
    return ErrorResponse(405,
                         Status::InvalidArgument("only GET is supported"));
  }
  if (request.path != "/search") {
    std::optional<Response> response = endpoints_(request);
    return response.has_value() ? *std::move(response)
                                : ErrorResponse(Status::NotFound(
                                      "no such endpoint: " + request.path));
  }
  SearchCall call(request, queued_micros, options_.retry_after_s);
  const Status parsed = ParseSearchParams(&call);
  Response response = parsed.ok() ? search_(call) : ErrorResponse(parsed);
  counters_->search_latency.Record(call.elapsed_micros());
  return response;
}

Status SearchFront::ParseSearchParams(SearchCall* call) const {
  const HttpRequest& request = call->request;
  const std::string* q = request.param("q");
  if (q == nullptr) {
    return Status::InvalidArgument("missing required parameter: q");
  }
  call->query = *q;
  if (const std::string* scheme = request.param("scheme")) {
    call->scheme = *scheme;
  }
  call->k = options_.default_top_k;
  if (const std::string* text = request.param("k")) {
    GRAFT_ASSIGN_OR_RETURN(call->k, core::ParseCount(*text, "k"));
  }
  if (call->k > options_.max_top_k) {
    return Status::InvalidArgument("k must be at most " +
                                   std::to_string(options_.max_top_k));
  }
  call->deadline_ms = options_.default_deadline_ms;
  if (const std::string* text = request.param("deadline_ms")) {
    GRAFT_ASSIGN_OR_RETURN(const size_t deadline_ms,
                           core::ParseCount(*text, "deadline_ms"));
    if (deadline_ms == 0) {
      return Status::InvalidArgument("deadline_ms must be > 0");
    }
    call->deadline_ms =
        std::min<uint64_t>(deadline_ms, options_.max_deadline_ms);
  }
  if (const std::string* text = request.param("explain")) {
    call->explain = *text == "1" || *text == "true";
  }
  return Status::Ok();
}

void AppendMsField(std::string* out, std::string_view name, double micros) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%.*s\":%.3f",
                static_cast<int>(name.size()), name.data(), micros / 1000.0);
  *out += buf;
}

}  // namespace graft::server
