// The connection layer both HTTP services run on (SearchService and the
// router's RouterService): listener, epoll reactor, handler pool,
// per-request admission, keep-alive, and drain.
//
//   * One reactor thread owns the listener and every connection that is
//     not being served. It accepts, and waits for each connection to turn
//     readable. Connections are persistent by HTTP/1.1 rules
//     (server/http.h), so after a response the connection comes back here.
//   * Admission is per request: when a waiting connection turns readable
//     its request either takes an in-flight slot (queued + running, capped
//     at max_inflight) and is handed to the handler pool, or is answered
//     at once from the reactor with 503 + Retry-After and the connection
//     is closed. The pool queue can never grow beyond max_inflight, so
//     overload degrades into fast rejections, not latency collapse.
//   * A handler reads the request, calls the service's handler, counts the
//     response and releases its slot, and only then writes — a client
//     that has read its response never finds it uncounted on /stats. A
//     kept connection is re-armed (EPOLLONESHOT) for its next request.
//   * Idle limits reuse the service's options: a connection waiting for a
//     request is closed after io_timeout_ms, and at most max_inflight
//     kept-alive connections wait at once (the longest-idle one is closed
//     beyond that). Clients must expect a kept connection to close.
//   * Shutdown() closes the listener and every waiting connection at once,
//     drains every admitted request to a written response, then joins the
//     pool and the reactor. In-flight work is never dropped.

#ifndef GRAFT_SERVER_HTTP_SERVER_H_
#define GRAFT_SERVER_HTTP_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "server/http.h"
#include "server/server_stats.h"

namespace graft::server {

// A routed response before serialization.
struct Response {
  int status_code = 200;
  std::string content_type = "application/json";
  std::string body;
  // Non-zero => a "Retry-After: <n>" header is attached (503/504).
  unsigned retry_after_s = 0;
};

// Maps a library Status to the HTTP code a service answers with:
// InvalidArgument/OutOfRange -> 400, NotFound -> 404, everything else 500.
int HttpCodeForStatus(const Status& status);

// An error response with a {"error":"<code name>","message":"..."} body,
// answered with `status_code` (HttpCodeForStatus(status) when not given).
Response ErrorResponse(const Status& status);
Response ErrorResponse(int status_code, const Status& status);

// Microseconds elapsed since `t0` on the steady clock.
uint64_t MicrosSince(std::chrono::steady_clock::time_point t0);

// The connection fields of a service's options (FrontOptions in
// server/search_front.h adds the /search limits).
struct HttpServerOptions {
  uint16_t port = 0;           // 0 = kernel-assigned ephemeral port
  size_t handler_threads = 0;  // 0 = hardware concurrency
  size_t max_inflight = 64;    // admitted, unanswered requests
  int io_timeout_ms = 5000;    // socket send/receive + idle timeout
  unsigned retry_after_s = 1;  // Retry-After on 503/504
};

class HttpServer {
 public:
  // Answers one parsed request; `queued_micros` is how long it waited for
  // a handler after admission.
  using Handler =
      std::function<Response(const HttpRequest& request,
                             uint64_t queued_micros)>;

  // `name` speaks in the 503 bodies ("<name> overloaded; retry").
  // `counters` must outlive the server.
  HttpServer(std::string name, const HttpServerOptions& options,
             Handler handler, RequestCounters* counters);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Binds the listener and starts the reactor + handler pool.
  Status Start();

  // Closes the listener and waiting connections, drains admitted
  // requests, joins every thread. Idempotent.
  void Shutdown();

  // Between a successful Start() and Shutdown().
  bool started() const { return started_; }

  // Valid after Start(); the bound port.
  uint16_t port() const { return listener_.port(); }

  // Admitted requests not yet answered (queued + running).
  size_t inflight() const { return inflight_.load(std::memory_order_relaxed); }

 private:
  enum class Waiting { kNone, kFresh, kIdle, kLingering };

  // One accepted connection. Owned by conns_; while being served it is in
  // no wait list and only its handler touches it.
  struct Conn {
    int fd = -1;
    Waiting waiting = Waiting::kNone;
    std::chrono::steady_clock::time_point since;
    std::list<Conn*>::iterator wait_pos;
    std::list<Conn>::iterator self;
  };

  void ReactorLoop();
  void AcceptAll();
  void OnReadable(Conn* conn);
  void Reject(Conn* conn, const Status& reason);
  void Serve(Conn* conn, std::chrono::steady_clock::time_point admitted);
  void ReleaseSlot();

  // All *Locked helpers run under mu_.
  std::list<Conn*>& WaitList(Waiting waiting);
  void WaitLocked(Conn* conn, Waiting waiting);  // + re-arm EPOLLIN
  void UnwaitLocked(Conn* conn);
  void CloseLocked(Conn* conn);
  void SweepLocked(std::chrono::steady_clock::time_point now);
  int NextTimeoutMsLocked(std::chrono::steady_clock::time_point now) const;

  const std::string name_;
  const HttpServerOptions options_;
  const Handler handler_;
  RequestCounters* const counters_;

  TcpListener listener_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: Shutdown() -> reactor
  std::unique_ptr<common::ThreadPool> pool_;
  std::thread reactor_;

  std::mutex mu_;
  std::list<Conn> conns_;        // every open connection
  std::list<Conn*> fresh_;       // accepted, no request yet (FIFO)
  std::list<Conn*> idle_;        // kept alive after a response (LRU)
  std::list<Conn*> lingering_;   // 503 sent, waiting for the peer's FIN
  std::vector<Conn*> closed_;    // freed after the reactor's event batch
  bool accept_paused_ = false;   // accept failed for lack of resources
  std::chrono::steady_clock::time_point accept_resume_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> exit_reactor_{false};
  bool started_ = false;

  std::atomic<size_t> inflight_{0};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
};

}  // namespace graft::server

#endif  // GRAFT_SERVER_HTTP_SERVER_H_
