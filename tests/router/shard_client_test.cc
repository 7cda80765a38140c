// ShardClient retry discipline against live stub replicas: retries with
// budget-bounded backoff, round-robin failover, ejection after consecutive
// failures, probe-driven readmission, and the 4xx-is-an-answer rule — plus
// pooled keep-alive connections: reuse, same-port restarts, and the one
// fresh retry of a reused connection the peer closed.

#include "router/shard_client.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "server/http.h"
#include "server/http_server.h"

namespace graft::router {
namespace {

// A keep-alive stub on the shared connection layer: answers every request
// with `reply()` and counts accepted connections.
class KeepAliveStub {
 public:
  KeepAliveStub(std::function<server::Response()> reply, uint16_t port = 0)
      : http_("stub", Options(port),
              [reply = std::move(reply)](const server::HttpRequest&,
                                         uint64_t) { return reply(); },
              &counters_) {}
  explicit KeepAliveStub(std::string body, uint16_t port = 0)
      : KeepAliveStub(
            [body = std::move(body)] {
              server::Response response;
              response.body = body;
              return response;
            },
            port) {}

  Status Start() { return http_.Start(); }
  void Stop() { http_.Shutdown(); }
  uint16_t port() const { return http_.port(); }
  uint64_t connections() const { return counters_.connections_accepted.load(); }
  uint64_t requests() const { return counters_.requests_total.load(); }

 private:
  static server::HttpServerOptions Options(uint16_t port) {
    server::HttpServerOptions options;
    options.port = port;
    options.handler_threads = 2;
    return options;
  }

  server::RequestCounters counters_;
  server::HttpServer http_;
};

// A one-thread HTTP stub: answers every request via a handler returning
// (status_code, body). Stop() is clean and re-entrant.
class StubServer {
 public:
  using Handler = std::function<std::pair<int, std::string>(
      const server::HttpRequest&)>;

  explicit StubServer(Handler handler) : handler_(std::move(handler)) {}
  ~StubServer() { Stop(); }

  Status Start() {
    GRAFT_RETURN_IF_ERROR(listener_.Bind(0));
    running_ = true;
    thread_ = std::thread([this] { Loop(); });
    return Status::Ok();
  }

  void Stop() {
    if (!running_) return;
    stopping_.store(true);
    listener_.Interrupt();
    thread_.join();
    listener_.Close();
    running_ = false;
  }

  uint16_t port() const { return listener_.port(); }
  uint64_t requests() const { return requests_.load(); }

 private:
  void Loop() {
    while (!stopping_.load()) {
      StatusOr<int> accepted = listener_.Accept(2000);
      if (!accepted.ok()) {
        if (stopping_.load()) return;
        continue;
      }
      const int fd = *accepted;
      StatusOr<server::HttpRequest> request = server::ReadRequest(fd);
      if (request.ok()) {
        requests_.fetch_add(1);
        const auto [code, body] = handler_(*request);
        (void)server::WriteResponse(fd, code, "application/json", body);
      }
      ::close(fd);
    }
  }

  Handler handler_;
  server::TcpListener listener_;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> requests_{0};
  bool running_ = false;
};

ShardClientOptions FastOptions() {
  ShardClientOptions options;
  options.max_attempts = 3;
  options.backoff_base_ms = 1;
  options.backoff_max_ms = 4;
  options.eject_after = 2;
  options.io_timeout_ms = 2000;
  return options;
}

TEST(ShardClientTest, ReturnsHealthyReply) {
  StubServer server([](const server::HttpRequest& request) {
    EXPECT_EQ(request.path, "/ping");
    return std::make_pair(200, std::string("{\"pong\":true}"));
  });
  ASSERT_TRUE(server.Start().ok());
  ShardClient client(0, {server.port()}, FastOptions(), 1);
  size_t attempts = 0;
  uint16_t port = 0;
  auto reply = client.Get("/ping", 5000, &attempts, &port);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->status_code, 200);
  EXPECT_EQ(reply->body, "{\"pong\":true}");
  EXPECT_EQ(attempts, 1u);
  EXPECT_EQ(port, server.port());
}

TEST(ShardClientTest, RetriesTransportErrorsUpToMaxAttempts) {
  // Bind-then-close: the port is (very likely) unbound, so every connect
  // fails fast.
  uint16_t dead_port;
  {
    server::TcpListener listener;
    ASSERT_TRUE(listener.Bind(0).ok());
    dead_port = listener.port();
    listener.Close();
  }
  ShardClient client(0, {dead_port}, FastOptions(), 1);
  size_t attempts = 0;
  auto reply = client.Get("/ping", 5000, &attempts);
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(attempts, 3u);
  EXPECT_EQ(client.counters().retries.load(), 2u);
  // eject_after=2 consecutive failures ejected the lone replica.
  EXPECT_TRUE(client.replica_ejected(0));
  EXPECT_EQ(client.healthy_count(), 0u);
  EXPECT_FALSE(client.any_healthy());
}

TEST(ShardClientTest, FailsOverToSecondReplica) {
  uint16_t dead_port;
  {
    server::TcpListener listener;
    ASSERT_TRUE(listener.Bind(0).ok());
    dead_port = listener.port();
    listener.Close();
  }
  StubServer healthy([](const server::HttpRequest&) {
    return std::make_pair(200, std::string("ok"));
  });
  ASSERT_TRUE(healthy.Start().ok());
  ShardClient client(0, {dead_port, healthy.port()}, FastOptions(), 1);
  // Two logical gets: whatever rotation order each starts on, both must
  // land on the healthy replica within the retry budget.
  for (int i = 0; i < 2; ++i) {
    uint16_t port = 0;
    auto reply = client.Get("/ping", 5000, nullptr, &port);
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->status_code, 200);
    EXPECT_EQ(port, healthy.port());
  }
}

TEST(ShardClientTest, FourHundredsAreAnswersNotRetries) {
  std::atomic<int> hits{0};
  StubServer server([&hits](const server::HttpRequest&) {
    hits.fetch_add(1);
    return std::make_pair(409, std::string("{\"error\":\"conflict\"}"));
  });
  ASSERT_TRUE(server.Start().ok());
  ShardClient client(0, {server.port()}, FastOptions(), 1);
  size_t attempts = 0;
  auto reply = client.Get("/ping", 5000, &attempts);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->status_code, 409);
  EXPECT_EQ(attempts, 1u);
  EXPECT_EQ(hits.load(), 1);
  // A 4xx is a healthy transport: no failure recorded, replica stays in.
  EXPECT_FALSE(client.replica_ejected(0));
}

TEST(ShardClientTest, FiveHundredsAreRetriedAndCanEject) {
  StubServer server([](const server::HttpRequest&) {
    return std::make_pair(503, std::string("overloaded"));
  });
  ASSERT_TRUE(server.Start().ok());
  ShardClient client(0, {server.port()}, FastOptions(), 1);
  auto reply = client.Get("/ping", 5000);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->status_code, 503);   // last reply surfaces to the caller
  EXPECT_EQ(server.requests(), 3u);     // all attempts burned
  EXPECT_TRUE(client.replica_ejected(0));
  EXPECT_GE(client.counters().ejections.load(), 1u);
}

TEST(ShardClientTest, ProbeReadmitsRecoveredReplica) {
  std::atomic<bool> healthy{false};
  StubServer server([&healthy](const server::HttpRequest& request) {
    if (!healthy.load()) return std::make_pair(500, std::string("down"));
    if (request.path == "/healthz") {
      return std::make_pair(200, std::string("{\"status\":\"ok\"}"));
    }
    return std::make_pair(200, std::string("ok"));
  });
  ASSERT_TRUE(server.Start().ok());
  ShardClient client(0, {server.port()}, FastOptions(), 1);
  (void)client.Get("/ping", 5000);  // burns attempts, ejects the replica
  ASSERT_TRUE(client.replica_ejected(0));

  client.ProbeEjected();  // still down: stays ejected
  EXPECT_TRUE(client.replica_ejected(0));

  healthy.store(true);
  client.ProbeEjected();
  EXPECT_FALSE(client.replica_ejected(0));
  EXPECT_EQ(client.counters().readmissions.load(), 1u);
  EXPECT_GE(client.counters().probes.load(), 2u);

  auto reply = client.Get("/ping", 5000);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->status_code, 200);
}

TEST(ShardClientTest, BudgetBoundsTotalSpend) {
  uint16_t dead_port;
  {
    server::TcpListener listener;
    ASSERT_TRUE(listener.Bind(0).ok());
    dead_port = listener.port();
    listener.Close();
  }
  ShardClientOptions slow = FastOptions();
  slow.max_attempts = 50;
  slow.backoff_base_ms = 40;
  slow.backoff_max_ms = 40;
  ShardClient client(0, {dead_port}, slow, 1);
  const auto start = std::chrono::steady_clock::now();
  auto reply = client.Get("/ping", 100);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_FALSE(reply.ok());
  // Budget 100ms; allow slack for a slow connect-refused, but nowhere near
  // what 50 attempts with 40ms backoffs would take (~2s).
  EXPECT_LT(elapsed.count(), 1000);
}

TEST(ShardClientTest, AllEjectedStillAttemptsLastResort) {
  // One replica, ejected after its first failure. PickReplica must still
  // hand it out — a fully dark shard keeps getting last-resort attempts,
  // which doubles as an inline readmission path once it recovers.
  StubServer server([](const server::HttpRequest&) {
    return std::make_pair(500, std::string("down"));
  });
  ASSERT_TRUE(server.Start().ok());
  ShardClientOptions options = FastOptions();
  options.eject_after = 1;
  options.max_attempts = 1;
  ShardClient client(0, {server.port()}, options, 1);
  auto first = client.GetOnce("/ping", 2000);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->status_code, 500);
  ASSERT_TRUE(client.replica_ejected(0));

  auto second = client.GetOnce("/ping", 2000);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(client.counters().attempts.load(), 2u);
  EXPECT_EQ(server.requests(), 2u);
}

TEST(ShardClientTest, PooledGetsReuseOneConnection) {
  KeepAliveStub stub("{\"pong\":true}");
  ASSERT_TRUE(stub.Start().ok());
  ShardClient client(0, {stub.port()}, FastOptions(), 1);
  constexpr uint64_t kGets = 50;
  for (uint64_t i = 0; i < kGets; ++i) {
    size_t attempts = 0;
    auto reply = client.Get("/ping", 5000, &attempts);
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_EQ(reply->body, "{\"pong\":true}");
    EXPECT_EQ(attempts, 1u);
  }
  EXPECT_EQ(stub.connections(), 1u);
  EXPECT_EQ(stub.requests(), kGets);
  EXPECT_EQ(client.counters().attempts.load(), kGets);
  EXPECT_EQ(client.counters().failures.load(), 0u);
  stub.Stop();
}

TEST(ShardClientTest, SamePortRestartIsReachedWithoutAFailure) {
  auto first = std::make_unique<KeepAliveStub>("one");
  ASSERT_TRUE(first->Start().ok());
  const uint16_t port = first->port();
  ShardClient client(0, {port}, FastOptions(), 1);
  auto before = client.Get("/ping", 5000);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(before->body, "one");

  // The replica restarts on the same port; the pooled connection to the
  // old process is dead.
  first->Stop();
  first.reset();
  KeepAliveStub second("two", port);
  ASSERT_TRUE(second.Start().ok());

  size_t attempts = 0;
  auto after = client.Get("/ping", 5000, &attempts);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->body, "two");
  EXPECT_EQ(attempts, 1u);
  EXPECT_EQ(client.counters().failures.load(), 0u);
  EXPECT_EQ(client.counters().attempts.load(), 2u);
  EXPECT_FALSE(client.replica_ejected(0));
  second.Stop();
}

TEST(ShardClientTest, ReusedConnectionClosedBeforeReplyIsRetriedOnce) {
  // A raw replica whose first connection answers one request with
  // keep-alive, then reads the next request and hangs up without a reply —
  // a server closing an idle connection just as the client reuses it.
  // Later connections are answered normally.
  server::TcpListener listener;
  ASSERT_TRUE(listener.Bind(0).ok());
  std::atomic<int> connections{0};
  std::thread replica([&] {
    for (int c = 0; c < 2; ++c) {
      StatusOr<int> fd = listener.Accept(5000);
      if (!fd.ok()) return;
      connections.fetch_add(1);
      auto first = server::ReadRequest(*fd);
      if (first.ok()) {
        (void)server::WriteResponse(*fd, 200, "application/json",
                                    c == 0 ? "kept" : "fresh", {},
                                    /*keep_alive=*/c == 0);
      }
      if (c == 0) (void)server::ReadRequest(*fd);  // read, never answer
      ::close(*fd);
    }
  });
  ShardClient client(0, {listener.port()}, FastOptions(), 1);
  auto kept = client.Get("/ping", 5000);
  ASSERT_TRUE(kept.ok()) << kept.status();
  EXPECT_EQ(kept->body, "kept");

  size_t attempts = 0;
  auto retried = client.Get("/ping", 5000, &attempts);
  replica.join();
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_EQ(retried->body, "fresh");
  EXPECT_EQ(attempts, 1u);
  EXPECT_EQ(connections.load(), 2);
  EXPECT_EQ(client.counters().attempts.load(), 2u);
  EXPECT_EQ(client.counters().failures.load(), 0u);
  EXPECT_EQ(client.counters().retries.load(), 0u);
}

TEST(ShardClientTest, FailedAttemptsCloseAndEjectionDropsThePool) {
  std::atomic<bool> failing{false};
  KeepAliveStub stub([&failing] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    server::Response response;
    response.status_code = failing.load() ? 500 : 200;
    response.body = "x";
    return response;
  });
  ASSERT_TRUE(stub.Start().ok());
  ShardClientOptions options = FastOptions();
  options.eject_after = 1;
  options.max_attempts = 1;
  ShardClient client(0, {stub.port()}, options, 1);

  // Two overlapping Gets leave two pooled connections.
  std::thread other([&] { EXPECT_TRUE(client.Get("/ping", 5000).ok()); });
  EXPECT_TRUE(client.Get("/ping", 5000).ok());
  other.join();
  ASSERT_EQ(stub.connections(), 2u);

  // A 5xx is a failed attempt: its connection is closed, and the ejection
  // it causes drops the other pooled connection too...
  failing.store(true);
  auto failed = client.Get("/ping", 5000);
  ASSERT_TRUE(failed.ok()) << failed.status();
  EXPECT_EQ(failed->status_code, 500);
  ASSERT_TRUE(client.replica_ejected(0));

  // ...so the next (last-resort) attempt has to connect afresh.
  failing.store(false);
  auto recovered = client.Get("/ping", 5000);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->status_code, 200);
  EXPECT_EQ(stub.connections(), 3u);
  stub.Stop();
}

}  // namespace
}  // namespace graft::router
