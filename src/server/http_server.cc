#include "server/http_server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace graft::server {

namespace {

using Clock = std::chrono::steady_clock;

// How long a rejected connection may take to send its FIN after the 503
// (see Reject), and how long accepting pauses when the process is out of
// descriptors.
constexpr auto kLingerLimit = std::chrono::milliseconds(50);
constexpr auto kAcceptBackoff = std::chrono::milliseconds(10);
// Upper bound on one epoll_wait, so a connection that starts waiting while
// the reactor sleeps still meets its idle deadline closely.
constexpr int kMaxTickMs = 100;

std::string RetryAfterHeader(unsigned seconds) {
  return "Retry-After: " + std::to_string(seconds) + "\r\n";
}

// Reads and discards whatever the peer has sent; false once it has closed
// (FIN or error), true while the connection is merely quiet.
bool DrainAvailable(int fd) {
  char discard[4096];
  for (int reads = 0; reads < 16; ++reads) {
    const ssize_t n = ::recv(fd, discard, sizeof(discard), MSG_DONTWAIT);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
  }
  return true;
}

// {"error":"<code name>","message":"..."} body for an error response.
std::string ErrorBody(const Status& status) {
  std::string body = "{\"error\":\"";
  JsonAppendEscaped(&body, StatusCodeName(status.code()));
  body += "\",\"message\":\"";
  JsonAppendEscaped(&body, status.message());
  body += "\"}";
  return body;
}

}  // namespace

int HttpCodeForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    default:
      return 500;
  }
}

Response ErrorResponse(const Status& status) {
  return ErrorResponse(HttpCodeForStatus(status), status);
}

Response ErrorResponse(int status_code, const Status& status) {
  Response response;
  response.status_code = status_code;
  response.body = ErrorBody(status);
  return response;
}

uint64_t MicrosSince(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0)
          .count());
}

HttpServer::HttpServer(std::string name, const HttpServerOptions& options,
                       Handler handler, RequestCounters* counters)
    : name_(std::move(name)),
      options_(options),
      handler_(std::move(handler)),
      counters_(counters) {}

HttpServer::~HttpServer() { Shutdown(); }

Status HttpServer::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  GRAFT_RETURN_IF_ERROR(listener_.Bind(options_.port));
  const auto fail = [this](const char* what) {
    const Status status =
        Status::IOError(std::string(what) + ": " + std::strerror(errno));
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    epoll_fd_ = wake_fd_ = -1;
    listener_.Close();
    return status;
  };
  const int flags = ::fcntl(listener_.fd(), F_GETFL, 0);
  if (flags < 0 || ::fcntl(listener_.fd(), F_SETFL, flags | O_NONBLOCK) != 0) {
    return fail("fcntl failed");
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return fail("epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return fail("eventfd failed");
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.ptr = &listener_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &event) != 0) {
    return fail("epoll_ctl failed");
  }
  event.data.ptr = &wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event) != 0) {
    return fail("epoll_ctl failed");
  }
  stopping_.store(false, std::memory_order_release);
  exit_reactor_.store(false, std::memory_order_release);
  pool_ = std::make_unique<common::ThreadPool>(options_.handler_threads);
  started_ = true;
  reactor_ = std::thread([this] { ReactorLoop(); });
  return Status::Ok();
}

void HttpServer::Shutdown() {
  if (!started_) return;
  const auto wake = [this] {
    const uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof(one));
  };
  // The reactor closes the listener and every waiting connection; admitted
  // requests keep their handlers and answer with Connection: close.
  {
    // Under mu_: the reactor admits under mu_, so every request it admits
    // after this point sees stopping_, and every earlier one is already
    // counted in inflight_ for the drain below.
    std::lock_guard<std::mutex> lock(mu_);
    stopping_.store(true, std::memory_order_release);
  }
  wake();
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait(lock, [this] {
      return inflight_.load(std::memory_order_acquire) == 0;
    });
  }
  pool_.reset();  // every slot is released; joins handlers mid-write
  exit_reactor_.store(true, std::memory_order_release);
  wake();
  reactor_.join();
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  conns_.clear();
  fresh_.clear();
  idle_.clear();
  lingering_.clear();
  closed_.clear();
  listener_.Close();
  ::close(epoll_fd_);
  ::close(wake_fd_);
  epoll_fd_ = wake_fd_ = -1;
  started_ = false;
}

void HttpServer::ReleaseSlot() {
  if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(drain_mu_);
    drain_cv_.notify_all();
  }
}

std::list<HttpServer::Conn*>& HttpServer::WaitList(Waiting waiting) {
  switch (waiting) {
    case Waiting::kFresh: return fresh_;
    case Waiting::kIdle: return idle_;
    default: return lingering_;
  }
}

void HttpServer::WaitLocked(Conn* conn, Waiting waiting) {
  std::list<Conn*>& list = WaitList(waiting);
  conn->waiting = waiting;
  conn->since = Clock::now();
  conn->wait_pos = list.insert(list.end(), conn);
  epoll_event event{};
  event.events = EPOLLIN | EPOLLONESHOT;
  event.data.ptr = conn;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &event) != 0) {
    CloseLocked(conn);
    return;
  }
  if (waiting == Waiting::kIdle) {
    while (idle_.size() > options_.max_inflight) CloseLocked(idle_.front());
  }
}

void HttpServer::UnwaitLocked(Conn* conn) {
  if (conn->waiting == Waiting::kNone) return;
  WaitList(conn->waiting).erase(conn->wait_pos);
  conn->waiting = Waiting::kNone;
}

void HttpServer::CloseLocked(Conn* conn) {
  if (conn->fd < 0) return;
  UnwaitLocked(conn);
  // Explicit removal: a forked child sharing the socket would otherwise
  // keep it in the interest list after close().
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conn->fd = -1;
  closed_.push_back(conn);
}

void HttpServer::SweepLocked(Clock::time_point now) {
  const auto io_timeout = std::chrono::milliseconds(options_.io_timeout_ms);
  for (std::list<Conn*>* list : {&fresh_, &idle_}) {
    while (!list->empty() && list->front()->since + io_timeout <= now) {
      CloseLocked(list->front());
    }
  }
  while (!lingering_.empty() &&
         lingering_.front()->since + kLingerLimit <= now) {
    CloseLocked(lingering_.front());
  }
  if (accept_paused_ && now >= accept_resume_ && listener_.fd() >= 0) {
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.ptr = &listener_;
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listener_.fd(), &event);
    accept_paused_ = false;
  }
}

int HttpServer::NextTimeoutMsLocked(Clock::time_point now) const {
  Clock::time_point next = now + std::chrono::milliseconds(kMaxTickMs);
  const auto io_timeout = std::chrono::milliseconds(options_.io_timeout_ms);
  if (!fresh_.empty()) next = std::min(next, fresh_.front()->since + io_timeout);
  if (!idle_.empty()) next = std::min(next, idle_.front()->since + io_timeout);
  if (!lingering_.empty()) {
    next = std::min(next, lingering_.front()->since + kLingerLimit);
  }
  if (accept_paused_) next = std::min(next, accept_resume_);
  const auto wait =
      std::chrono::ceil<std::chrono::milliseconds>(next - now).count();
  return static_cast<int>(std::max<int64_t>(0, wait));
}

void HttpServer::ReactorLoop() {
  epoll_event events[64];
  int timeout_ms = 0;
  while (!exit_reactor_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0 && errno != EINTR) {
      std::fprintf(stderr, "[http] epoll_wait failed: %s\n",
                   std::strerror(errno));
      std::this_thread::sleep_for(kAcceptBackoff);
    }
    std::lock_guard<std::mutex> lock(mu_);
    for (int i = 0; i < n; ++i) {
      void* const tag = events[i].data.ptr;
      if (tag == &wake_fd_) {
        uint64_t count;
        (void)!::read(wake_fd_, &count, sizeof(count));
      } else if (tag == &listener_) {
        if (!stopping_.load(std::memory_order_acquire)) AcceptAll();
      } else if (static_cast<Conn*>(tag)->fd >= 0) {
        OnReadable(static_cast<Conn*>(tag));
      }
    }
    if (stopping_.load(std::memory_order_acquire) && listener_.fd() >= 0) {
      (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener_.fd(), nullptr);
      listener_.Close();
      while (!fresh_.empty()) CloseLocked(fresh_.front());
      while (!idle_.empty()) CloseLocked(idle_.front());
    }
    const Clock::time_point now = Clock::now();
    SweepLocked(now);
    // Every event that could name a closed connection has been handled,
    // and closed descriptors produce no further events.
    for (Conn* conn : closed_) conns_.erase(conn->self);
    closed_.clear();
    timeout_ms = NextTimeoutMsLocked(now);
  }
}

void HttpServer::AcceptAll() {
  while (true) {
    const int fd = ::accept4(listener_.fd(), nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // Out of descriptors or memory: level-triggered readiness would spin
      // the reactor, so stop listening for a moment instead.
      epoll_event event{};
      event.data.ptr = &listener_;
      (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listener_.fd(), &event);
      accept_paused_ = true;
      accept_resume_ = Clock::now() + kAcceptBackoff;
      return;
    }
    if (!SetSocketTimeouts(fd, options_.io_timeout_ms).ok()) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    counters_->connections_accepted.fetch_add(1, std::memory_order_relaxed);
    Conn& conn = conns_.emplace_back();
    conn.self = std::prev(conns_.end());
    conn.fd = fd;
    conn.waiting = Waiting::kFresh;
    conn.since = Clock::now();
    conn.wait_pos = fresh_.insert(fresh_.end(), &conn);
    epoll_event event{};
    event.events = EPOLLIN | EPOLLONESHOT;
    event.data.ptr = &conn;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
      CloseLocked(&conn);
    }
  }
}

void HttpServer::OnReadable(Conn* conn) {
  // Keeps waiting in the same list, deadline unchanged.
  const auto rearm = [this, conn] {
    epoll_event event{};
    event.events = EPOLLIN | EPOLLONESHOT;
    event.data.ptr = conn;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &event) != 0) {
      CloseLocked(conn);
    }
  };
  if (conn->waiting == Waiting::kLingering) {
    if (DrainAvailable(conn->fd)) {
      rearm();
    } else {
      CloseLocked(conn);
    }
    return;
  }
  char byte;
  const ssize_t n = ::recv(conn->fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
    rearm();  // spurious wake-up
    return;
  }
  if (n <= 0) {
    CloseLocked(conn);  // the client closed (or reset) a waiting connection
    return;
  }

  // A request is arriving: per-request admission.
  UnwaitLocked(conn);
  counters_->requests_total.fetch_add(1, std::memory_order_relaxed);
  const size_t inflight = inflight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (inflight > options_.max_inflight) {
    Reject(conn, Status::FailedPrecondition(name_ +
                                            " overloaded; retry"));
    return;
  }
  if (stopping_.load(std::memory_order_acquire)) {
    Reject(conn, Status::FailedPrecondition(name_ + " shutting down"));
    return;
  }
  const Clock::time_point admitted = Clock::now();
  if (!pool_->Submit([this, conn, admitted] { Serve(conn, admitted); })) {
    Reject(conn, Status::FailedPrecondition(name_ + " shutting down"));
  }
}

void HttpServer::Reject(Conn* conn, const Status& reason) {
  // Fast 503 from the reactor: no handler, no queue. Closing with request
  // bytes unread would send an RST that can destroy the 503 before the
  // client reads it, so: discard what has arrived, write the response,
  // half-close (FIN), and linger until the client's FIN (bounded by
  // kLingerLimit) before closing.
  counters_->RecordResponseCode(503);
  ReleaseSlot();
  const bool open = DrainAvailable(conn->fd);
  const std::string wire =
      SerializeResponse(503, "application/json", ErrorBody(reason),
                        RetryAfterHeader(options_.retry_after_s));
  if (!open || ::send(conn->fd, wire.data(), wire.size(),
                      MSG_NOSIGNAL | MSG_DONTWAIT) < 0) {
    CloseLocked(conn);
    return;
  }
  ::shutdown(conn->fd, SHUT_WR);
  WaitLocked(conn, Waiting::kLingering);
}

void HttpServer::Serve(Conn* conn, Clock::time_point admitted) {
  const uint64_t queued_micros = MicrosSince(admitted);
  StatusOr<HttpRequest> request = ReadRequest(conn->fd);
  Response response;
  if (!request.ok()) {
    counters_->malformed_requests.fetch_add(1, std::memory_order_relaxed);
    response = ErrorResponse(400, request.status());
  } else {
    response = handler_(*request, queued_micros);
  }
  const bool keep_alive = request.ok() && request->keep_alive &&
                          !stopping_.load(std::memory_order_acquire);
  // Count and release before writing: a client that has read this
  // response must find it counted, and no longer in flight, on /stats.
  counters_->RecordResponseCode(response.status_code);
  ReleaseSlot();
  const Status written = WriteResponse(
      conn->fd, response.status_code, response.content_type, response.body,
      response.retry_after_s > 0 ? RetryAfterHeader(response.retry_after_s)
                                 : std::string(),
      keep_alive);
  std::lock_guard<std::mutex> lock(mu_);
  if (keep_alive && written.ok() &&
      !stopping_.load(std::memory_order_acquire)) {
    WaitLocked(conn, Waiting::kIdle);
  } else {
    CloseLocked(conn);
  }
}

}  // namespace graft::server
