// The load generator's HTTP/1.1 client connection.
//
// One HttpConnection is one connection slot of the generator. It asks for
// keep-alive on every request, reuses the socket for as long as the server
// allows, and reconnects when the server answers "Connection: close" or
// drops an idle connection. Every connect is counted and timed, so the
// cost of per-request connections shows as `server.connects_per_request`
// and `server.connect_us` rather than hiding inside latency.

#ifndef GRAFT_PERFBENCH_HTTP_CLIENT_H_
#define GRAFT_PERFBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace perfbench {

struct HttpReply {
  int status_code = 0;
  std::string body;
  // Connects this request needed (0 when an open connection was reused)
  // and the time they took.
  uint32_t connects = 0;
  double connect_us = 0.0;
};

class HttpConnection {
 public:
  HttpConnection(uint16_t port, int timeout_ms);
  ~HttpConnection();

  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  // GET `target` ("/search?q=..."). A request on a reused connection that
  // the server had already closed is retried once on a fresh connection.
  graft::Status Get(std::string_view target, HttpReply* reply);

  uint64_t connects() const { return connects_; }

 private:
  graft::Status Connect(HttpReply* reply);
  // Sends one request and reads one response. `*nothing_received` is set
  // when the connection failed before any response byte arrived.
  graft::Status Exchange(std::string_view request, HttpReply* reply,
                         bool* keep_open, bool* nothing_received);
  void Close();

  const uint16_t port_;
  const int timeout_ms_;
  int fd_ = -1;
  uint64_t connects_ = 0;
  std::string buffer_;
};

}  // namespace perfbench

#endif  // GRAFT_PERFBENCH_HTTP_CLIENT_H_
