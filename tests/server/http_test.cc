// HTTP plumbing units: URL decoding, request-head parsing (including the
// hardening paths — every malformed input must come back as a Status),
// keep-alive semantics (version x Connection header, the response's
// Connection header, pipelined bytes), response serialization, and JSON
// escaping.

#include "server/http.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>

namespace graft::server {
namespace {

TEST(UrlDecodeTest, PassThroughAndPlus) {
  auto decoded = UrlDecode("abc-def_~.x+y");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, "abc-def_~.x y");
}

TEST(UrlDecodeTest, PercentEscapes) {
  auto decoded = UrlDecode("%28windows%20emulator%29WINDOW%5B50%5D");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, "(windows emulator)WINDOW[50]");
}

TEST(UrlDecodeTest, RejectsTruncatedEscape) {
  EXPECT_FALSE(UrlDecode("abc%2").ok());
  EXPECT_FALSE(UrlDecode("abc%").ok());
}

TEST(UrlDecodeTest, RejectsInvalidHex) {
  EXPECT_FALSE(UrlDecode("%zz").ok());
  EXPECT_FALSE(UrlDecode("%4g").ok());
}

TEST(UrlEncodeTest, RoundTripsThroughDecode) {
  const std::string original = "(foss | \"free software\")WINDOW[50] 100%";
  auto decoded = UrlDecode(UrlEncode(original));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, original);
}

TEST(ParseRequestHeadTest, ParsesLineParamsAndHeaders) {
  auto request = ParseRequestHead(
      "GET /search?q=free%20software&k=10&scheme=MeanSum HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "X-Trace:  abc \r\n"
      "\r\n");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->method, "GET");
  EXPECT_EQ(request->path, "/search");
  EXPECT_EQ(request->params.at("q"), "free software");
  EXPECT_EQ(request->params.at("k"), "10");
  EXPECT_EQ(request->params.at("scheme"), "MeanSum");
  EXPECT_EQ(request->headers.at("host"), "localhost");
  EXPECT_EQ(request->headers.at("x-trace"), "abc");  // trimmed, key lowered
}

TEST(ParseRequestHeadTest, AcceptsBareLfLineEndings) {
  auto request = ParseRequestHead("GET /healthz HTTP/1.0\nHost: x\n\n");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->path, "/healthz");
}

TEST(ParseRequestHeadTest, ValuelessAndEmptyParams) {
  auto request = ParseRequestHead("GET /search?q=&flag&&a=1 HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->params.at("q"), "");
  EXPECT_EQ(request->params.at("flag"), "");
  EXPECT_EQ(request->params.at("a"), "1");
}

TEST(ParseRequestHeadTest, RejectsMalformedInputs) {
  // No line terminator at all.
  EXPECT_FALSE(ParseRequestHead("GET /x HTTP/1.1").ok());
  // Too few / too many request-line tokens.
  EXPECT_FALSE(ParseRequestHead("GET /x\r\n\r\n").ok());
  EXPECT_FALSE(ParseRequestHead("GET /x HTTP/1.1 extra\r\n\r\n").ok());
  // Unsupported version.
  EXPECT_FALSE(ParseRequestHead("GET /x HTTP/2.0\r\n\r\n").ok());
  EXPECT_FALSE(ParseRequestHead("GET /x SPDY\r\n\r\n").ok());
  // Non-origin-form target.
  EXPECT_FALSE(ParseRequestHead("GET http://a/b HTTP/1.1\r\n\r\n").ok());
  // Bad percent-escape in target.
  EXPECT_FALSE(ParseRequestHead("GET /x?q=%zz HTTP/1.1\r\n\r\n").ok());
  // Header line without a colon, and empty header name.
  EXPECT_FALSE(
      ParseRequestHead("GET /x HTTP/1.1\r\nbroken header\r\n\r\n").ok());
  EXPECT_FALSE(ParseRequestHead("GET /x HTTP/1.1\r\n: v\r\n\r\n").ok());
  // Empty parameter name.
  EXPECT_FALSE(ParseRequestHead("GET /x?=v HTTP/1.1\r\n\r\n").ok());
}

TEST(SerializeResponseTest, WellFormed) {
  const std::string wire = SerializeResponse(200, "application/json", "{}");
  EXPECT_EQ(wire,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            "Content-Length: 2\r\nConnection: close\r\n\r\n{}");
}

TEST(ParseRequestHeadTest, KeepAliveFollowsVersionAndConnectionHeader) {
  const struct {
    const char* version;
    const char* connection;  // nullptr = no Connection header
    bool keep_alive;
  } cases[] = {
      {"HTTP/1.1", nullptr, true},
      {"HTTP/1.1", "close", false},
      {"HTTP/1.1", "keep-alive", true},
      {"HTTP/1.0", nullptr, false},
      {"HTTP/1.0", "close", false},
      {"HTTP/1.0", "keep-alive", true},
      // Tokens are a case-insensitive, comma-separated list.
      {"HTTP/1.1", "Upgrade, Close", false},
      {"HTTP/1.0", "Keep-Alive , Upgrade", true},
  };
  for (const auto& c : cases) {
    std::string head = std::string("GET /healthz ") + c.version + "\r\n";
    if (c.connection != nullptr) {
      head += std::string("Connection: ") + c.connection + "\r\n";
    }
    head += "\r\n";
    auto request = ParseRequestHead(head);
    ASSERT_TRUE(request.ok()) << head;
    EXPECT_EQ(request->version, c.version) << head;
    EXPECT_EQ(request->keep_alive, c.keep_alive) << head;
  }
}

TEST(SerializeResponseTest, ConnectionHeaderMatchesKeepAlive) {
  EXPECT_EQ(SerializeResponse(200, "text/plain", "ok", {}, /*keep_alive=*/true),
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
            "Content-Length: 2\r\nConnection: keep-alive\r\n\r\nok");
  EXPECT_EQ(SerializeResponse(503, "text/plain", "", "Retry-After: 1\r\n",
                              /*keep_alive=*/false),
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\n"
            "Content-Length: 0\r\nConnection: close\r\nRetry-After: 1\r\n"
            "\r\n");
}

TEST(ReadRequestTest, PipelinedBytesTurnTheAnswerIntoClose) {
  const struct {
    std::string wire;
    bool keep_alive;
  } cases[] = {
      {"GET /a HTTP/1.1\r\nHost: x\r\n\r\n", true},
      {"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n", false},
      {"GET /a HTTP/1.1\n\nG", false},
  };
  for (const auto& c : cases) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_TRUE(SendAll(fds[0], c.wire).ok());
    auto request = ReadRequest(fds[1]);
    ::close(fds[0]);
    ::close(fds[1]);
    ASSERT_TRUE(request.ok()) << request.status();
    EXPECT_EQ(request->path, "/a");
    EXPECT_EQ(request->keep_alive, c.keep_alive) << c.wire;
  }
}

TEST(SerializeResponseTest, ReasonPhrases) {
  EXPECT_EQ(StatusReason(503), "Service Unavailable");
  EXPECT_EQ(StatusReason(504), "Gateway Timeout");
  EXPECT_EQ(StatusReason(418), "Unknown");
}

TEST(JsonAppendEscapedTest, EscapesControlAndSpecials) {
  std::string out;
  JsonAppendEscaped(&out, "a\"b\\c\nd\te\x01" "f");
  EXPECT_EQ(out, "a\\\"b\\\\c\\nd\\te\\u0001f");
}

TEST(ListenerTest, EphemeralBindReportsPort) {
  TcpListener listener;
  ASSERT_TRUE(listener.Bind(0).ok());
  EXPECT_GT(listener.port(), 0);
}

TEST(ListenerTest, ClientServerRoundTrip) {
  TcpListener listener;
  ASSERT_TRUE(listener.Bind(0).ok());
  std::thread server([&] {
    auto fd = listener.Accept();
    ASSERT_TRUE(fd.ok()) << fd.status();
    auto request = ReadRequest(*fd);
    ASSERT_TRUE(request.ok()) << request.status();
    EXPECT_EQ(request->path, "/ping");
    ASSERT_TRUE(WriteResponse(*fd, 200, "text/plain", "pong").ok());
    ::close(*fd);
  });
  auto response = HttpGet(listener.port(), "/ping");
  server.join();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status_code, 200);
  EXPECT_EQ(response->body, "pong");
}

TEST(ListenerTest, BindFailsFastWithClearErrorWhenPortTaken) {
  TcpListener first;
  ASSERT_TRUE(first.Bind(0).ok());
  TcpListener second;
  const Status status = second.Bind(first.port());
  EXPECT_FALSE(status.ok());
  // The message must name the port and say what to do — the graft_server /
  // graft_router startup error a misconfigured operator actually reads.
  EXPECT_NE(status.message().find(std::to_string(first.port())),
            std::string::npos)
      << status;
  EXPECT_NE(status.message().find("already in use"), std::string::npos)
      << status;
  first.Close();
}

TEST(SendAllTest, PeerClosingMidResponseDoesNotKillTheProcess) {
  // Regression for the transport hardening: a peer that disappears while
  // the server is still writing must surface as an IOError on that fd —
  // not as a SIGPIPE that terminates the process. A large body guarantees
  // the kernel send buffer fills and the write hits the dead socket.
  TcpListener listener;
  ASSERT_TRUE(listener.Bind(0).ok());
  std::thread server([&] {
    auto fd = listener.Accept(2000);
    ASSERT_TRUE(fd.ok()) << fd.status();
    auto request = ReadRequest(*fd);
    ASSERT_TRUE(request.ok()) << request.status();
    // 32 MiB: far beyond any socket buffer, so SendAll is mid-flight when
    // the client hangs up.
    const std::string huge(32 * 1024 * 1024, 'x');
    const Status sent = WriteResponse(*fd, 200, "text/plain", huge);
    // Either the peer died mid-write (IOError) or the kernel buffered a
    // surprising amount (ok); both are fine — being alive is the test.
    EXPECT_TRUE(sent.ok() || sent.code() == StatusCode::kIOError)
        << sent;
    ::close(*fd);
  });

  // A raw client that sends the request and slams the connection shut
  // without reading a single response byte.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(listener.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const std::string request = "GET /never-read HTTP/1.1\r\n\r\n";
    ASSERT_TRUE(SendAll(fd, request).ok());
    // RST on close (SO_LINGER 0) so the server's in-flight writes fail
    // immediately instead of filling a dead socket's window.
    linger hard{.l_onoff = 1, .l_linger = 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    ::close(fd);
  }
  server.join();
  // The process is alive to run this line — SIGPIPE did not fire.
  SUCCEED();
}

}  // namespace
}  // namespace graft::server
