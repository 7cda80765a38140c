#include "router/shard_client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/failpoint.h"

namespace graft::router {

namespace {

using Clock = std::chrono::steady_clock;

// The four wire failure modes the chaos tests strike (header comment).
GRAFT_DEFINE_FAILPOINT(g_fp_connect, "router.client.connect");
GRAFT_DEFINE_FAILPOINT(g_fp_slow_reply, "router.client.slow_reply");
GRAFT_DEFINE_FAILPOINT(g_fp_garbled_body, "router.client.garbled_body");
GRAFT_DEFINE_FAILPOINT(g_fp_cut_body, "router.client.cut_body");

uint64_t ElapsedMs(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - t0)
          .count());
}

// A failed attempt is a transport error or a reply that says "the path
// failed, try elsewhere" (5xx, incl. overload/timeout). 2xx and 4xx are
// answers: retrying a deterministic 400/404/409 would only duplicate it.
bool IsRetryableReply(const server::HttpClientResponse& response) {
  return response.status_code >= 500;
}

}  // namespace

ShardClient::ShardClient(size_t shard_id, std::vector<uint16_t> replica_ports,
                         ShardClientOptions options, uint64_t seed,
                         size_t max_idle_per_replica)
    : shard_id_(shard_id),
      options_(options),
      max_idle_per_replica_(max_idle_per_replica),
      // Seed must never be zero (xorshift fixed point); fold in the shard
      // id so equal seeds still decorrelate across shards.
      jitter_state_((seed ^ (shard_id * 0x9E3779B97F4A7C15ull)) | 1) {
  replicas_.reserve(replica_ports.size());
  for (const uint16_t port : replica_ports) {
    auto replica = std::make_unique<ReplicaState>();
    replica->port = port;
    replicas_.push_back(std::move(replica));
  }
}

size_t ShardClient::healthy_count() const {
  size_t healthy = 0;
  for (const auto& replica : replicas_) {
    if (!replica->ejected.load(std::memory_order_acquire)) ++healthy;
  }
  return healthy;
}

ShardClient::ReplicaState* ShardClient::PickReplica() {
  const size_t n = replicas_.size();
  const size_t start = rotation_.fetch_add(1, std::memory_order_relaxed);
  for (size_t i = 0; i < n; ++i) {
    ReplicaState* replica = replicas_[(start + i) % n].get();
    if (!replica->ejected.load(std::memory_order_acquire)) return replica;
  }
  return replicas_[start % n].get();
}

void ShardClient::RecordSuccess(ReplicaState* replica) {
  replica->consecutive_failures.store(0, std::memory_order_release);
  if (replica->ejected.exchange(false, std::memory_order_acq_rel)) {
    counters_.readmissions.fetch_add(1, std::memory_order_relaxed);
  }
}

void ShardClient::RecordFailure(ReplicaState* replica) {
  counters_.failures.fetch_add(1, std::memory_order_relaxed);
  const uint32_t failures =
      replica->consecutive_failures.fetch_add(1, std::memory_order_acq_rel) +
      1;
  if (failures >= options_.eject_after &&
      !replica->ejected.exchange(true, std::memory_order_acq_rel)) {
    counters_.ejections.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(replica->pool_mu);
    replica->pool.clear();
  }
}

StatusOr<server::HttpClientResponse> ShardClient::Exchange(
    ReplicaState* replica, const std::string& target, int timeout_ms,
    std::unique_ptr<server::HttpConnection>* connection) {
  {
    std::lock_guard<std::mutex> lock(replica->pool_mu);
    while (!replica->pool.empty() && *connection == nullptr) {
      *connection = std::move(replica->pool.back());
      replica->pool.pop_back();
      // Closed by the peer while pooled (idle timeout, restart): drop it.
      if (!(*connection)->IdleAndOpen()) connection->reset();
    }
  }
  bool reused = *connection != nullptr;
  while (true) {
    if (*connection == nullptr) {
      *connection = std::make_unique<server::HttpConnection>();
      GRAFT_RETURN_IF_ERROR(
          (*connection)->Connect(replica->port, timeout_ms));
    }
    StatusOr<server::HttpClientResponse> response =
        (*connection)->Get(target, timeout_ms);
    // A failed Get has closed the connection. Only a reused one that the
    // peer had closed before answering gets its one fresh retry.
    if (response.ok() || !reused || !(*connection)->closed_before_response()) {
      return response;
    }
    connection->reset();
    reused = false;
  }
}

void ShardClient::Release(ReplicaState* replica,
                          std::unique_ptr<server::HttpConnection> connection) {
  if (!connection->reusable()) return;
  std::lock_guard<std::mutex> lock(replica->pool_mu);
  // Checked under the lock: an ejection clears the pool under it too, so a
  // connection can never be pooled to an ejected replica.
  if (!replica->ejected.load(std::memory_order_acquire) &&
      replica->pool.size() < max_idle_per_replica_) {
    replica->pool.push_back(std::move(connection));
  }
}

uint64_t ShardClient::NextJitter(uint64_t range) {
  if (range == 0) return 0;
  uint64_t state = jitter_state_.load(std::memory_order_relaxed);
  uint64_t next;
  do {
    next = state;
    next ^= next << 13;
    next ^= next >> 7;
    next ^= next << 17;
  } while (!jitter_state_.compare_exchange_weak(state, next,
                                                std::memory_order_relaxed));
  return next % range;
}

StatusOr<server::HttpClientResponse> ShardClient::GetOnce(
    const std::string& target, uint64_t budget_ms, uint16_t* port_out) {
  counters_.attempts.fetch_add(1, std::memory_order_relaxed);
  ReplicaState* replica = PickReplica();
  if (port_out != nullptr) *port_out = replica->port;

#ifdef GRAFT_FAILPOINTS_ENABLED
  {
    // Injected connect failure: the attempt dies before any I/O.
    const Status injected = g_fp_connect.Check();
    if (!injected.ok()) {
      RecordFailure(replica);
      return injected;
    }
    // Straggler injection: a delay-action failpoint sleeps inside Check().
    (void)g_fp_slow_reply.Check();
  }
#endif

  const int timeout_ms = static_cast<int>(std::min<uint64_t>(
      budget_ms == 0 ? 1 : budget_ms,
      static_cast<uint64_t>(options_.io_timeout_ms)));
  std::unique_ptr<server::HttpConnection> connection;
  StatusOr<server::HttpClientResponse> response =
      Exchange(replica, target, timeout_ms, &connection);
  if (!response.ok()) {
    RecordFailure(replica);
    return response;
  }

#ifdef GRAFT_FAILPOINTS_ENABLED
  if (!g_fp_garbled_body.Check().ok()) {
    // Wire corruption: scramble the body bytes; the caller's parser must
    // refuse the result rather than merge garbage.
    for (char& c : response->body) c = static_cast<char>(~c);
  }
  if (!g_fp_cut_body.Check().ok()) {
    // Mid-stream cut: only the first half of the body arrived.
    response->body.resize(response->body.size() / 2);
  }
#endif

  // A failed attempt closes its connection (it leaves with this scope).
  if (IsRetryableReply(*response)) {
    RecordFailure(replica);
  } else {
    RecordSuccess(replica);
    Release(replica, std::move(connection));
  }
  return response;
}

StatusOr<server::HttpClientResponse> ShardClient::Get(
    const std::string& target, uint64_t budget_ms, size_t* attempts_out,
    uint16_t* port_out) {
  const Clock::time_point start = Clock::now();
  StatusOr<server::HttpClientResponse> last =
      Status::IOError("shard " + std::to_string(shard_id_) +
                      ": no attempt made (budget exhausted)");
  size_t attempts = 0;
  for (size_t attempt = 0; attempt < options_.max_attempts; ++attempt) {
    const uint64_t elapsed = ElapsedMs(start);
    if (elapsed >= budget_ms) break;
    if (attempt > 0) {
      counters_.retries.fetch_add(1, std::memory_order_relaxed);
      // Exponential backoff with full jitter in [backoff/2, backoff],
      // never sleeping past the remaining budget.
      const uint64_t backoff = std::min(
          options_.backoff_max_ms, options_.backoff_base_ms << (attempt - 1));
      const uint64_t jittered = backoff / 2 + NextJitter(backoff / 2 + 1);
      const uint64_t remaining = budget_ms - elapsed;
      const uint64_t sleep_ms = std::min(jittered, remaining);
      if (sleep_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      }
      if (ElapsedMs(start) >= budget_ms) break;
    }
    ++attempts;
    last = GetOnce(target, budget_ms - ElapsedMs(start), port_out);
    if (last.ok() && !IsRetryableReply(*last)) break;
  }
  if (attempts_out != nullptr) *attempts_out = attempts;
  return last;
}

void ShardClient::ProbeEjected() {
  for (const auto& replica : replicas_) {
    if (!replica->ejected.load(std::memory_order_acquire)) continue;
    counters_.probes.fetch_add(1, std::memory_order_relaxed);
    StatusOr<server::HttpClientResponse> probe =
        server::HttpGet(replica->port, "/healthz", options_.io_timeout_ms);
    if (probe.ok() && probe->status_code == 200) {
      RecordSuccess(replica.get());
    }
  }
}

}  // namespace graft::router
