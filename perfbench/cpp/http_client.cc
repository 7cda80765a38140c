#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>

#include "server/http.h"

namespace perfbench {

using graft::Status;

namespace {

// Case-insensitive search for a header line "name: value" in a response
// head; returns the trimmed value or an empty view.
std::string_view HeaderValue(std::string_view head, std::string_view name) {
  size_t line_start = head.find("\r\n");
  while (line_start != std::string_view::npos) {
    line_start += 2;
    const size_t line_end = head.find("\r\n", line_start);
    const std::string_view line = head.substr(
        line_start, line_end == std::string_view::npos
                        ? std::string_view::npos
                        : line_end - line_start);
    const size_t colon = line.find(':');
    if (colon == name.size()) {
      bool same = true;
      for (size_t i = 0; i < colon; ++i) {
        if (std::tolower(static_cast<unsigned char>(line[i])) !=
            std::tolower(static_cast<unsigned char>(name[i]))) {
          same = false;
          break;
        }
      }
      if (same) {
        std::string_view value = line.substr(colon + 1);
        while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
        while (!value.empty() && value.back() == ' ') value.remove_suffix(1);
        return value;
      }
    }
    line_start = line_end;
  }
  return {};
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

HttpConnection::HttpConnection(uint16_t port, int timeout_ms)
    : port_(port), timeout_ms_(timeout_ms) {
  graft::server::IgnoreSigpipeOnce();
}

HttpConnection::~HttpConnection() { Close(); }

void HttpConnection::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status HttpConnection::Connect(HttpReply* reply) {
  const auto start = std::chrono::steady_clock::now();
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IOError(std::string("socket: ") + std::strerror(errno));
  timeval tv{};
  tv.tv_sec = timeout_ms_ / 1000;
  tv.tv_usec = (timeout_ms_ % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError(std::string("connect: ") + std::strerror(err));
  }
  fd_ = fd;
  ++connects_;
  reply->connects += 1;
  reply->connect_us += std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  return Status::Ok();
}

Status HttpConnection::Exchange(std::string_view request, HttpReply* reply,
                                bool* keep_open, bool* nothing_received) {
  *nothing_received = true;
  *keep_open = false;
  GRAFT_RETURN_IF_ERROR(graft::server::SendAll(fd_, request));
  buffer_.clear();
  size_t head_end = std::string::npos;
  char chunk[16384];
  while (head_end == std::string::npos) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::IOError(n == 0 ? "connection closed before response"
                                    : std::string("recv: ") +
                                          std::strerror(errno));
    }
    *nothing_received = false;
    buffer_.append(chunk, static_cast<size_t>(n));
    head_end = buffer_.find("\r\n\r\n");
    if (head_end == std::string::npos && buffer_.size() > 65536) {
      return Status::IOError("response head too large");
    }
  }
  const std::string_view head(buffer_.data(), head_end);
  // "HTTP/1.x NNN Reason"
  if (head.size() < 12 || head.substr(0, 7) != "HTTP/1.") {
    return Status::IOError("malformed status line");
  }
  const bool http10 = head[7] == '0';
  reply->status_code = std::atoi(std::string(head.substr(9, 3)).c_str());
  const std::string_view length_text = HeaderValue(head, "content-length");
  if (length_text.empty()) return Status::IOError("response without Content-Length");
  const size_t length = std::strtoull(std::string(length_text).c_str(), nullptr, 10);
  const std::string_view connection = HeaderValue(head, "connection");
  *keep_open = http10 ? EqualsIgnoreCase(connection, "keep-alive")
                      : !EqualsIgnoreCase(connection, "close");
  const size_t body_start = head_end + 4;
  while (buffer_.size() < body_start + length) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::IOError("connection closed mid-body");
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  reply->body.assign(buffer_, body_start, length);
  return Status::Ok();
}

Status HttpConnection::Get(std::string_view target, HttpReply* reply) {
  reply->status_code = 0;
  reply->body.clear();
  reply->connects = 0;
  reply->connect_us = 0.0;
  std::string request = "GET ";
  request += target;
  request += " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: keep-alive\r\n\r\n";
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool reused = fd_ >= 0;
    if (!reused) GRAFT_RETURN_IF_ERROR(Connect(reply));
    bool keep_open = false;
    bool nothing_received = false;
    const Status status =
        Exchange(request, reply, &keep_open, &nothing_received);
    if (!status.ok() || !keep_open) Close();
    if (status.ok()) return status;
    // Only a reused connection that died before answering is retried: the
    // server closed it while idle, which keep-alive clients must expect.
    if (!(reused && nothing_received)) return status;
  }
  return Status::IOError("unreachable");
}

}  // namespace perfbench
