#include "server/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace graft::server {

namespace {

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

// Strips one trailing '\r' (the parser splits on '\n').
std::string_view StripCr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') {
    line.remove_suffix(1);
  }
  return line;
}

// True when the comma-separated header value `list` contains `token`
// (ASCII case-insensitive), e.g. "keep-alive, Upgrade" has "keep-alive".
bool HasToken(std::string_view list, std::string_view token) {
  while (!list.empty()) {
    const size_t comma = list.find(',');
    std::string_view item = list.substr(0, comma);
    list = comma == std::string_view::npos ? std::string_view()
                                           : list.substr(comma + 1);
    while (!item.empty() && (item.front() == ' ' || item.front() == '\t')) {
      item.remove_prefix(1);
    }
    while (!item.empty() && (item.back() == ' ' || item.back() == '\t')) {
      item.remove_suffix(1);
    }
    if (ToLower(item) == token) return true;
  }
  return false;
}

// Offset just past the blank line that ends an HTTP head in `buffer`, or
// npos while it has not arrived. Accepts CRLF and bare LF endings.
size_t HeadEnd(std::string_view buffer) {
  const size_t crlf = buffer.find("\r\n\r\n");
  const size_t lf = buffer.find("\n\n");
  if (crlf == std::string_view::npos && lf == std::string_view::npos) {
    return std::string_view::npos;
  }
  if (lf == std::string_view::npos ||
      (crlf != std::string_view::npos && crlf < lf)) {
    return crlf + 4;
  }
  return lf + 2;
}

// HTTP/1.1 persistence for a message with these (lower-cased) headers: 1.1
// keeps the connection unless told "close", 1.0 only on "keep-alive".
bool KeepsConnection(bool http11,
                     const std::map<std::string, std::string>& headers) {
  const auto connection = headers.find("connection");
  const std::string_view tokens = connection == headers.end()
                                      ? std::string_view()
                                      : std::string_view(connection->second);
  return http11 ? !HasToken(tokens, "close") : HasToken(tokens, "keep-alive");
}

// SendAll's loop; returns 0, or the errno of the send that failed.
int SendAllOrErrno(int fd, std::string_view data) {
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + written, data.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    written += static_cast<size_t>(n);
  }
  return 0;
}

}  // namespace

Status SetSocketTimeouts(int fd, int timeout_ms) {
  timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  if (setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0 ||
      setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
    return Status::IOError("setsockopt timeout failed: " +
                           std::string(std::strerror(errno)));
  }
  return Status::Ok();
}

void IgnoreSigpipeOnce() {
  // MSG_NOSIGNAL covers send(); SIG_IGN covers everything else (e.g. a
  // write on a connect()ed socket whose peer vanished between calls, or
  // platform paths that bypass send). Belt and suspenders: a dead peer
  // must be an IOError on one connection, never process death.
  static const bool ignored = [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = SIG_IGN;
    sigemptyset(&sa.sa_mask);
    return ::sigaction(SIGPIPE, &sa, nullptr) == 0;
  }();
  (void)ignored;
}

Status SendAll(int fd, std::string_view data) {
  const int err = SendAllOrErrno(fd, data);
  if (err != 0) {
    return Status::IOError("send failed: " + std::string(std::strerror(err)));
  }
  return Status::Ok();
}

StatusOr<std::string> UrlDecode(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '+') {
      out.push_back(' ');
    } else if (c == '%') {
      if (i + 2 >= text.size()) {
        return Status::InvalidArgument("truncated percent-escape");
      }
      const int hi = HexValue(text[i + 1]);
      const int lo = HexValue(text[i + 2]);
      if (hi < 0 || lo < 0) {
        return Status::InvalidArgument("invalid percent-escape in URL");
      }
      out.push_back(static_cast<char>(hi * 16 + lo));
      i += 2;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

StatusOr<HttpRequest> ParseRequestHead(std::string_view head) {
  HttpRequest request;

  const size_t line_end = head.find('\n');
  if (line_end == std::string_view::npos) {
    return Status::InvalidArgument("request line missing line terminator");
  }
  const std::string_view request_line = StripCr(head.substr(0, line_end));

  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      request_line.find(' ', sp2 + 1) != std::string_view::npos) {
    return Status::InvalidArgument("malformed request line");
  }
  request.method = std::string(request_line.substr(0, sp1));
  const std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = request_line.substr(sp2 + 1);
  if (request.method.empty() || target.empty()) {
    return Status::InvalidArgument("malformed request line");
  }
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    return Status::InvalidArgument("unsupported HTTP version: " +
                                   std::string(version));
  }
  if (target[0] != '/') {
    return Status::InvalidArgument("request target must be origin-form");
  }
  request.version = std::string(version);

  // Split target into path and query string.
  const size_t question = target.find('?');
  const std::string_view raw_path = target.substr(0, question);
  GRAFT_ASSIGN_OR_RETURN(request.path, UrlDecode(raw_path));
  if (question != std::string_view::npos) {
    std::string_view query = target.substr(question + 1);
    while (!query.empty()) {
      const size_t amp = query.find('&');
      const std::string_view pair = query.substr(0, amp);
      query = amp == std::string_view::npos ? std::string_view()
                                            : query.substr(amp + 1);
      if (pair.empty()) continue;
      const size_t eq = pair.find('=');
      const std::string_view raw_key = pair.substr(0, eq);
      const std::string_view raw_value =
          eq == std::string_view::npos ? std::string_view()
                                       : pair.substr(eq + 1);
      GRAFT_ASSIGN_OR_RETURN(std::string key, UrlDecode(raw_key));
      GRAFT_ASSIGN_OR_RETURN(std::string value, UrlDecode(raw_value));
      if (key.empty()) {
        return Status::InvalidArgument("empty query parameter name");
      }
      request.params[std::move(key)] = std::move(value);
    }
  }

  // Header lines.
  std::string_view rest = head.substr(line_end + 1);
  while (!rest.empty()) {
    const size_t next = rest.find('\n');
    const std::string_view line =
        StripCr(next == std::string_view::npos ? rest : rest.substr(0, next));
    rest = next == std::string_view::npos ? std::string_view()
                                          : rest.substr(next + 1);
    if (line.empty()) break;  // end of head
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return Status::InvalidArgument("malformed header line");
    }
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.remove_prefix(1);
    }
    while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) {
      value.remove_suffix(1);
    }
    request.headers[ToLower(line.substr(0, colon))] = std::string(value);
  }
  request.keep_alive =
      KeepsConnection(request.version == "HTTP/1.1", request.headers);
  return request;
}

std::string_view StatusReason(int status_code) {
  switch (status_code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 502: return "Bad Gateway";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

std::string SerializeResponse(int status_code, std::string_view content_type,
                              std::string_view body,
                              std::string_view extra_headers,
                              bool keep_alive) {
  std::string out;
  out.reserve(body.size() + 128 + extra_headers.size());
  out += "HTTP/1.1 ";
  out += std::to_string(status_code);
  out += ' ';
  out += StatusReason(status_code);
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += keep_alive ? "\r\nConnection: keep-alive\r\n"
                    : "\r\nConnection: close\r\n";
  out += extra_headers;  // each entry CRLF-terminated by the caller
  out += "\r\n";
  out += body;
  return out;
}

void JsonAppendEscaped(std::string* out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
}

TcpListener::~TcpListener() { Close(); }

Status TcpListener::Bind(uint16_t port, int backlog) {
  IgnoreSigpipeOnce();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::IOError("socket failed: " +
                           std::string(std::strerror(errno)));
  }
  const int one = 1;
  (void)setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    // EADDRINUSE gets a precise, actionable message: startup must fail
    // fast and say which port is taken, not hang or report a vague errno.
    const Status status =
        errno == EADDRINUSE
            ? Status::IOError("port " + std::to_string(port) +
                              " is already in use on 127.0.0.1 (pick "
                              "another --port or stop the other process)")
            : Status::IOError("bind failed: " +
                              std::string(std::strerror(errno)));
    Close();
    return status;
  }
  if (::listen(fd_, backlog) != 0) {
    const Status status = Status::IOError(
        "listen failed: " + std::string(std::strerror(errno)));
    Close();
    return status;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const Status status = Status::IOError(
        "getsockname failed: " + std::string(std::strerror(errno)));
    Close();
    return status;
  }
  port_ = ntohs(addr.sin_port);
  return Status::Ok();
}

StatusOr<int> TcpListener::Accept(int io_timeout_ms) const {
  while (true) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("accept failed: " +
                             std::string(std::strerror(errno)));
    }
    const Status timeouts = SetSocketTimeouts(fd, io_timeout_ms);
    if (!timeouts.ok()) {
      ::close(fd);
      return timeouts;
    }
    return fd;
  }
}

void TcpListener::Interrupt() {
  if (fd_ >= 0) {
    // shutdown() makes a blocked (or future) accept() on fd_ fail with
    // EINVAL without invalidating the fd number, so a concurrent Accept
    // never touches a recycled descriptor.
    ::shutdown(fd_, SHUT_RDWR);
  }
}

void TcpListener::Close() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<HttpRequest> ReadRequest(int fd) {
  std::string head;
  head.reserve(512);
  char buf[2048];
  size_t head_end = std::string::npos;
  while ((head_end = HeadEnd(head)) == std::string::npos) {
    if (head.size() > kMaxRequestHeadBytes) {
      return Status::InvalidArgument("request head too large");
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::IOError("timed out reading request");
      }
      return Status::IOError("recv failed: " +
                             std::string(std::strerror(errno)));
    }
    if (n == 0) {
      if (head.empty()) {
        return Status::IOError("connection closed before request");
      }
      return Status::InvalidArgument("connection closed mid-request");
    }
    head.append(buf, static_cast<size_t>(n));
  }
  GRAFT_ASSIGN_OR_RETURN(HttpRequest request, ParseRequestHead(head));
  const auto content_length = request.headers.find("content-length");
  if (content_length != request.headers.end() &&
      content_length->second != "0") {
    return Status::InvalidArgument("request bodies are not supported");
  }
  // A pipelined next request is not served; answering "close" tells the
  // client so instead of leaving its bytes unread on a kept connection.
  if (head_end < head.size()) request.keep_alive = false;
  return request;
}

Status WriteResponse(int fd, int status_code, std::string_view content_type,
                     std::string_view body, std::string_view extra_headers,
                     bool keep_alive) {
  return SendAll(fd, SerializeResponse(status_code, content_type, body,
                                       extra_headers, keep_alive));
}

std::string UrlEncode(std::string_view text) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    const unsigned char u = static_cast<unsigned char>(c);
    const bool unreserved = (u >= 'A' && u <= 'Z') || (u >= 'a' && u <= 'z') ||
                            (u >= '0' && u <= '9') || u == '-' || u == '_' ||
                            u == '.' || u == '~';
    if (unreserved) {
      out.push_back(c);
    } else {
      out.push_back('%');
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 0xF]);
    }
  }
  return out;
}

Status HttpConnection::Connect(uint16_t port, int timeout_ms) {
  IgnoreSigpipeOnce();
  Close();
  closed_before_response_ = false;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IOError("socket failed: " +
                           std::string(std::strerror(errno)));
  }
  const Status timeouts = SetSocketTimeouts(fd, timeout_ms);
  if (!timeouts.ok()) {
    ::close(fd);
    return timeouts;
  }
  const int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Status::IOError("connect failed: " +
                                          std::string(std::strerror(errno)));
    ::close(fd);
    return status;
  }
  fd_ = fd;
  timeout_ms_ = timeout_ms;
  reusable_ = true;
  return Status::Ok();
}

void HttpConnection::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reusable_ = false;
}

bool HttpConnection::IdleAndOpen() const {
  if (fd_ < 0) return false;
  char byte;
  const ssize_t n = ::recv(fd_, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
  // Nothing to read is the only healthy state: 0 is the peer's FIN, data
  // is an unsolicited reply, an error is a reset.
  return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
}

StatusOr<HttpClientResponse> HttpConnection::Get(std::string_view target,
                                                 int timeout_ms,
                                                 bool keep_alive) {
  closed_before_response_ = false;
  if (fd_ < 0) return Status::FailedPrecondition("connection is not open");
  // Every failure below leaves the stream at an unknown position.
  struct CloseOnFailure {
    HttpConnection* connection;
    bool armed = true;
    ~CloseOnFailure() {
      if (armed) connection->Close();
    }
  } guard{this};

  if (timeout_ms != timeout_ms_) {
    GRAFT_RETURN_IF_ERROR(SetSocketTimeouts(fd_, timeout_ms));
    timeout_ms_ = timeout_ms;
  }
  std::string request = "GET ";
  request += target;
  request += keep_alive ? " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"
                        : " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: "
                          "close\r\n\r\n";
  const int send_error = SendAllOrErrno(fd_, request);
  if (send_error != 0) {
    closed_before_response_ = send_error == EPIPE || send_error == ECONNRESET;
    return Status::IOError("send failed: " +
                           std::string(std::strerror(send_error)));
  }

  // Reads more bytes into `raw`; 0 at EOF.
  std::string raw;
  char buf[16384];
  const auto fill = [&]() -> StatusOr<size_t> {
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n >= 0) {
        raw.append(buf, static_cast<size_t>(n));
        return static_cast<size_t>(n);
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::IOError("timed out reading response");
      }
      if (raw.empty() && errno == ECONNRESET) closed_before_response_ = true;
      return Status::IOError("recv failed: " +
                             std::string(std::strerror(errno)));
    }
  };

  size_t head_end = std::string::npos;
  while ((head_end = HeadEnd(raw)) == std::string::npos) {
    if (raw.size() > kMaxRequestHeadBytes) {
      return Status::DataLoss("HTTP response head too large");
    }
    GRAFT_ASSIGN_OR_RETURN(const size_t n, fill());
    if (n == 0) {
      if (raw.empty()) {
        closed_before_response_ = true;
        return Status::IOError("connection closed before response");
      }
      return Status::DataLoss("HTTP response missing header terminator");
    }
  }

  // "HTTP/1.1 200 OK\r\n...\r\n\r\n<body>"
  if (raw.size() < 12 || raw.compare(0, 5, "HTTP/") != 0) {
    return Status::DataLoss("malformed HTTP response");
  }
  HttpClientResponse response;
  const size_t sp = raw.find(' ');
  if (sp == std::string::npos || sp + 4 > head_end) {
    return Status::DataLoss("malformed HTTP status line");
  }
  response.status_code = std::atoi(raw.c_str() + sp + 1);
  // Capture response headers (lower-cased names) so clients and tests can
  // assert on them, e.g. Retry-After on 503/504.
  const std::string_view head(raw.data(), head_end);
  size_t line_start = head.find('\n');
  while (line_start != std::string_view::npos && line_start + 1 < head.size()) {
    const size_t line_end_raw = head.find('\n', line_start + 1);
    const size_t line_end =
        line_end_raw == std::string_view::npos ? head.size() : line_end_raw;
    std::string_view line = head.substr(line_start + 1, line_end - line_start - 1);
    line = StripCr(line);
    const size_t colon = line.find(':');
    if (colon != std::string_view::npos) {
      std::string_view value = line.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
      response.headers[ToLower(line.substr(0, colon))] = std::string(value);
    }
    line_start = line_end_raw;
  }

  constexpr size_t kMaxResponseBytes = 64u << 20;
  const auto length = response.headers.find("content-length");
  bool reusable =
      KeepsConnection(raw.compare(0, 8, "HTTP/1.1") == 0, response.headers);
  if (length != response.headers.end()) {
    char* end = nullptr;
    const unsigned long long declared =
        std::strtoull(length->second.c_str(), &end, 10);
    if (length->second.empty() || *end != '\0' ||
        declared > kMaxResponseBytes) {
      return Status::DataLoss("bad Content-Length in HTTP response");
    }
    while (raw.size() - head_end < declared) {
      GRAFT_ASSIGN_OR_RETURN(const size_t n, fill());
      if (n == 0) return Status::DataLoss("connection closed mid-body");
    }
    // Bytes past the declared body mean the stream is out of step.
    if (raw.size() - head_end > declared) reusable = false;
    response.body = raw.substr(head_end, declared);
  } else {
    // No length: the body runs to EOF, which also ends the connection.
    while (true) {
      GRAFT_ASSIGN_OR_RETURN(const size_t n, fill());
      if (n == 0) break;
      if (raw.size() > kMaxResponseBytes) {
        return Status::OutOfRange("response too large");
      }
    }
    reusable = false;
    response.body = raw.substr(head_end);
  }
  guard.armed = false;
  if (!reusable || !keep_alive) Close();
  return response;
}

StatusOr<HttpClientResponse> HttpGet(uint16_t port, std::string_view target,
                                     int timeout_ms) {
  HttpConnection connection;
  GRAFT_RETURN_IF_ERROR(connection.Connect(port, timeout_ms));
  return connection.Get(target, timeout_ms, /*keep_alive=*/false);
}

}  // namespace graft::server
