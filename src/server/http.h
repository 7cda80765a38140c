// Minimal dependency-free HTTP/1.1 plumbing for the embedded search
// service: a TCP listener, a hardened request-head parser, and blocking
// clients (one-shot HttpGet, persistent HttpConnection). The connection
// layer that serves requests is server/http_server.h.
//
// Scope is deliberately narrow — exactly what a GET-only JSON service
// needs:
//   * requests: method + target + version, headers, no body support
//     (Content-Length > 0 is rejected with 413/400 semantics upstream);
//   * persistence by HTTP/1.1 rules: a 1.1 request keeps its connection
//     unless it says "Connection: close", a 1.0 request only when it says
//     "Connection: keep-alive". One request at a time per connection:
//     bytes past the first request head (pipelining) turn the answer into
//     "Connection: close" instead of being silently dropped;
//   * responses: status line + fixed headers + Content-Length body, with
//     a Connection header that matches the request;
//   * every malformed input maps to a Status — the parser never crashes,
//     never allocates unboundedly (request heads are capped), and never
//     trusts lengths from the wire.

#ifndef GRAFT_SERVER_HTTP_H_
#define GRAFT_SERVER_HTTP_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/status.h"

namespace graft::server {

// Largest request head (request line + headers + blank line) the server
// will buffer before answering 431-style with InvalidArgument.
inline constexpr size_t kMaxRequestHeadBytes = 16 * 1024;

struct HttpRequest {
  std::string method;                          // "GET"
  std::string path;                            // decoded, e.g. "/search"
  std::string version;                         // "HTTP/1.1" or "HTTP/1.0"
  std::map<std::string, std::string> params;   // decoded query parameters
  std::map<std::string, std::string> headers;  // keys lower-cased
  // Whether the client asked to keep the connection open after the
  // response (HTTP/1.1 default unless "close"; 1.0 only on "keep-alive").
  bool keep_alive = false;

  // The decoded query parameter `name`; nullptr when absent.
  const std::string* param(const std::string& name) const {
    const auto it = params.find(name);
    return it == params.end() ? nullptr : &it->second;
  }
};

// Percent-decodes a URL component ('+' becomes space). Invalid escapes are
// an error, not a pass-through: a client that sends "%zz" gets a 400.
StatusOr<std::string> UrlDecode(std::string_view text);

// Parses everything up to (not including) the blank line that ends the
// request head. Enforces: a well-formed request line, HTTP/1.0 or /1.1,
// CRLF or LF line endings, "name: value" headers. Query parameters are
// split on '&' and '=' and percent-decoded. Records the version and the
// keep-alive wish from the Connection header's tokens.
StatusOr<HttpRequest> ParseRequestHead(std::string_view head);

// Serializes a response with Content-Length and "Connection: keep-alive"
// or "Connection: close" per `keep_alive`. `extra_headers`, if non-empty,
// is spliced verbatim into the header block and must be CRLF-terminated
// (e.g. "Retry-After: 1\r\n").
std::string SerializeResponse(int status_code, std::string_view content_type,
                              std::string_view body,
                              std::string_view extra_headers = {},
                              bool keep_alive = false);

// Reason phrase for the handful of codes the service emits ("OK",
// "Bad Request", ...); "Unknown" otherwise.
std::string_view StatusReason(int status_code);

// Writes all of `data` to `fd`, retrying short writes and EINTR, with
// SIGPIPE suppressed (MSG_NOSIGNAL + a process-wide SIG_IGN installed by
// the transport). The single write path shared by the server side
// (WriteResponse) and the client side (HttpGet, the router's ShardClient):
// a peer that disappears mid-response surfaces as Status::IOError on this
// connection, never as a process-killing signal.
Status SendAll(int fd, std::string_view data);

// Idempotently installs SIG_IGN for SIGPIPE. Bind() and HttpGet() call it;
// multi-process front ends (graft_server, graft_router) inherit the
// protection through their first socket operation.
void IgnoreSigpipeOnce();

// Sets SO_RCVTIMEO and SO_SNDTIMEO on `fd` to `timeout_ms`.
Status SetSocketTimeouts(int fd, int timeout_ms);

// Appends `text` to `out` with JSON string escaping (quotes, backslash,
// control characters). Shared by the stats and search serializers.
void JsonAppendEscaped(std::string* out, std::string_view text);

// An IPv4 loopback listener with a blocking Accept (tests, stubs);
// HttpServer instead polls fd() from its reactor. Shutdown protocol for
// Accept users: Interrupt() may be called from any thread and unblocks a
// pending Accept (which then returns an error); Close() must only be
// called once no Accept is concurrently running (e.g. after joining the
// accept thread) — it releases the fd.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  // Binds 127.0.0.1:`port` (0 = kernel-assigned ephemeral port) and
  // listens with `backlog`.
  Status Bind(uint16_t port, int backlog = 128);

  // The bound port (valid after a successful Bind).
  uint16_t port() const { return port_; }

  // The listening socket (-1 before Bind and after Close).
  int fd() const { return fd_; }

  // Blocks for one connection; returns the connected socket fd, or an
  // error after Close(). The accepted socket carries `io_timeout_ms`
  // send/receive timeouts so a stalled peer cannot wedge a worker.
  StatusOr<int> Accept(int io_timeout_ms = 5000) const;

  // Thread-safe: unblocks a concurrent Accept without releasing the fd.
  void Interrupt();

  // Releases the fd. NOT safe concurrently with Accept.
  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

// Reads a request head from `fd` (until the blank line, capped at
// kMaxRequestHeadBytes) and parses it. Does not close the fd. Bytes read
// past the head belong to a pipelined request this layer does not serve,
// so they clear keep_alive: the answer closes the connection.
StatusOr<HttpRequest> ReadRequest(int fd);

// Writes the full serialized response to `fd`. Does not close the fd.
Status WriteResponse(int fd, int status_code, std::string_view content_type,
                     std::string_view body,
                     std::string_view extra_headers = {},
                     bool keep_alive = false);

// --- client side (tests, health probes, the router's shard client) ---

struct HttpClientResponse {
  int status_code = 0;
  std::string body;
  std::map<std::string, std::string> headers;  // keys lower-cased
};

// A client connection to 127.0.0.1 that carries one request at a time and
// stays open for as long as the server allows. Responses are read by
// Content-Length (to EOF when a server sends none). Not thread-safe: one
// owner at a time, e.g. a pool that hands it out and takes it back.
class HttpConnection {
 public:
  HttpConnection() = default;
  ~HttpConnection() { Close(); }

  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  // Opens the connection; `timeout_ms` bounds connect, send and receive
  // individually (Get may change it per request).
  Status Connect(uint16_t port, int timeout_ms);

  // Sends one GET for `target` (the raw request-target) and reads its
  // response. `keep_alive` false sends "Connection: close". Any failure
  // closes the connection.
  StatusOr<HttpClientResponse> Get(std::string_view target, int timeout_ms,
                                   bool keep_alive = true);

  // True when the last Get failed because the peer had closed the
  // connection before a single response byte arrived — the signature of
  // a server that dropped an idle keep-alive connection, which a client
  // must expect at any time. Timeouts do not count.
  bool closed_before_response() const { return closed_before_response_; }

  // Open, and the last response allowed another request on it.
  bool reusable() const { return fd_ >= 0 && reusable_; }

  // Non-blocking check of an idle connection: false when the peer has
  // closed it (or sent unsolicited bytes), so it must not be reused.
  bool IdleAndOpen() const;

  void Close();

 private:
  int fd_ = -1;
  int timeout_ms_ = 0;
  bool reusable_ = false;
  bool closed_before_response_ = false;
};

// One blocking GET against 127.0.0.1:`port` on a fresh connection that
// sends "Connection: close". `target` is the raw request-target
// ("/search?q=foo%20bar&k=10"). `timeout_ms` bounds connect, send, and
// receive individually.
StatusOr<HttpClientResponse> HttpGet(uint16_t port, std::string_view target,
                                     int timeout_ms = 10000);

// Percent-encodes a query-parameter value.
std::string UrlEncode(std::string_view text);

}  // namespace graft::server

#endif  // GRAFT_SERVER_HTTP_H_
