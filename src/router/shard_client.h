// Fault-tolerant HTTP client for one shard of a scatter-gather topology.
//
// A shard is served by one or more replica processes (graft_server
// instances over the same index partition). ShardClient owns the replica
// health state and the retry discipline:
//
//   * replica selection is round-robin over non-ejected replicas, so load
//     spreads and a single bad replica cannot absorb every attempt;
//   * a replica is EJECTED after `eject_after` consecutive failures; an
//     ejected replica takes no traffic until a background health probe
//     (ProbeEjected, driven by the ScatterGather probe thread) sees its
//     /healthz answer 200 again and readmits it;
//   * Get() makes up to `max_attempts` attempts, rotating replicas, with
//     exponential backoff + decorrelated jitter between attempts — all
//     bounded by the caller's remaining deadline budget: the client never
//     spends more wall clock than the request has left;
//   * an HTTP 5xx/503/504 reply and a transport error both count as
//     attempt failures; 2xx and 4xx (including 409) are returned to the
//     caller — a 4xx is the shard speaking, not the path failing, and
//     retrying it would duplicate a deterministic answer;
//   * connections are pooled per replica: an attempt takes an open
//     keep-alive connection (server::HttpConnection) when one is idle, and
//     gives it back after a response that allows reuse. The pool holds at
//     most as many connections as the router runs concurrent legs (the
//     constructor's `max_idle_per_replica`); every failed attempt closes
//     its connection, and ejecting a replica drops its pool;
//   * a shard may close an idle connection at any time (its idle timeout,
//     a restart). A pooled connection found closed before use is
//     discarded, and a reused connection that the peer closed before any
//     response byte arrived is retried once on a fresh connection. That
//     retry is neither an attempt nor a failure: the request never reached
//     a live server. Health probes use one-shot server::HttpGet.
//
// Failpoints (compiled under GRAFT_FAILPOINTS_ENABLED) let the chaos tests
// strike each distinct wire failure mode:
//
//   router.client.connect       attempt fails as if connect() failed
//   router.client.slow_reply    attempt sleeps (delay action) before I/O,
//                               simulating a straggler replica
//   router.client.garbled_body  the reply body is bit-scrambled, as if
//                               corrupted on the wire — the caller's parser
//                               must reject it
//   router.client.cut_body      the reply body is cut mid-stream (first
//                               half only), as if the peer died mid-send
//
// Thread-safe: concurrent Get() calls (fan-out + hedges) share the health
// state through atomics; the only lock on the request path is the
// per-replica pool mutex around taking or returning a connection.

#ifndef GRAFT_ROUTER_SHARD_CLIENT_H_
#define GRAFT_ROUTER_SHARD_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/counters.h"
#include "common/status.h"
#include "server/http.h"

namespace graft::router {

struct ShardClientOptions {
  // Total attempts per Get() across replicas (1 = no retries).
  size_t max_attempts = 3;
  // Exponential backoff between attempts: base * 2^attempt, capped, with
  // full jitter (uniform in [backoff/2, backoff]). Bounded additionally by
  // the remaining deadline.
  uint64_t backoff_base_ms = 5;
  uint64_t backoff_max_ms = 100;
  // Consecutive failures that eject a replica from rotation.
  uint32_t eject_after = 3;
  // Per-attempt socket timeout cap; each attempt's timeout is
  // min(io_timeout_ms, remaining budget).
  int io_timeout_ms = 5000;
};

// Cumulative per-shard wire counters (relaxed atomics; read by /metrics).
struct ShardClientCounters {
  std::atomic<uint64_t> attempts{0};
  std::atomic<uint64_t> failures{0};      // failed attempts (transport/5xx)
  std::atomic<uint64_t> retries{0};       // attempts after the first
  std::atomic<uint64_t> ejections{0};
  std::atomic<uint64_t> readmissions{0};
  std::atomic<uint64_t> probes{0};        // health probes sent
};

// Every ShardClientCounters counter: one object per shard in the router's
// /stats "shards" array, one {shard="i"}-labelled series per exported row
// in its /metrics.
inline constexpr common::CounterRow<ShardClientCounters, std::atomic<uint64_t>>
    kShardClientCounters[] = {
        {&ShardClientCounters::attempts, "attempts",
         "graft_router_shard_attempts_total", "Wire attempts per shard."},
        {&ShardClientCounters::failures, "failures",
         "graft_router_shard_failures_total",
         "Failed attempts (transport or 5xx) per shard."},
        {&ShardClientCounters::retries, "retries"},
        {&ShardClientCounters::ejections, "ejections",
         "graft_router_shard_ejections_total",
         "Replica ejections per shard."},
        {&ShardClientCounters::readmissions, "readmissions",
         "graft_router_shard_readmissions_total",
         "Probe-driven replica readmissions per shard."},
        {&ShardClientCounters::probes, "probes"},
};
static_assert(sizeof(ShardClientCounters) ==
                  std::size(kShardClientCounters) *
                      sizeof(std::atomic<uint64_t>),
              "every ShardClientCounters field needs a row");

class ShardClient {
 public:
  // `replica_ports` must be non-empty; `seed` decorrelates the jitter
  // streams of different shards deterministically (tests pass fixed
  // seeds). `max_idle_per_replica` caps each replica's connection pool;
  // ScatterGather passes its fan-out width.
  ShardClient(size_t shard_id, std::vector<uint16_t> replica_ports,
              ShardClientOptions options, uint64_t seed,
              size_t max_idle_per_replica = 4);

  ShardClient(const ShardClient&) = delete;
  ShardClient& operator=(const ShardClient&) = delete;

  // One logical GET with retries/failover, spending at most `budget_ms`.
  // Returns the first 2xx/4xx reply, or the last failure when every
  // attempt (or the budget) is exhausted. `attempts_out`, when non-null,
  // receives the number of attempts consumed (per-shard outcome
  // reporting).
  StatusOr<server::HttpClientResponse> Get(const std::string& target,
                                           uint64_t budget_ms,
                                           size_t* attempts_out = nullptr,
                                           uint16_t* port_out = nullptr);

  // A single attempt against the next replica in rotation, no retries and
  // no backoff — the hedge leg of a hedged request, and the building block
  // Get() loops over.
  StatusOr<server::HttpClientResponse> GetOnce(const std::string& target,
                                               uint64_t budget_ms,
                                               uint16_t* port_out = nullptr);

  // Probes every ejected replica's /healthz once; readmits on 200. Called
  // by the ScatterGather background probe thread.
  void ProbeEjected();

  size_t shard_id() const { return shard_id_; }
  size_t replica_count() const { return replicas_.size(); }
  size_t healthy_count() const;
  bool any_healthy() const { return healthy_count() > 0; }
  uint16_t replica_port(size_t i) const { return replicas_[i]->port; }
  bool replica_ejected(size_t i) const {
    return replicas_[i]->ejected.load(std::memory_order_acquire);
  }

  const ShardClientCounters& counters() const { return counters_; }

 private:
  struct ReplicaState {
    uint16_t port = 0;
    std::atomic<uint32_t> consecutive_failures{0};
    std::atomic<bool> ejected{false};
    std::mutex pool_mu;  // guards pool
    std::vector<std::unique_ptr<server::HttpConnection>> pool;  // idle
  };

  // Picks the next non-ejected replica (round-robin); falls back to any
  // replica when all are ejected — a fully dark shard still gets one
  // last-resort attempt, which doubles as an inline readmission chance.
  ReplicaState* PickReplica();

  void RecordSuccess(ReplicaState* replica);
  void RecordFailure(ReplicaState* replica);

  // One request on `replica` over a pooled or fresh connection, with the
  // stale-connection retry (header comment). Not counted anywhere. On
  // success `*connection` holds the connection, for Release.
  StatusOr<server::HttpClientResponse> Exchange(
      ReplicaState* replica, const std::string& target, int timeout_ms,
      std::unique_ptr<server::HttpConnection>* connection);

  // Returns a connection that served a successful attempt to the pool.
  void Release(ReplicaState* replica,
               std::unique_ptr<server::HttpConnection> connection);

  // Deterministic per-client jitter stream (xorshift); thread-safe via CAS.
  uint64_t NextJitter(uint64_t range);

  const size_t shard_id_;
  const ShardClientOptions options_;
  const size_t max_idle_per_replica_;
  std::vector<std::unique_ptr<ReplicaState>> replicas_;
  std::atomic<size_t> rotation_{0};
  std::atomic<uint64_t> jitter_state_;
  ShardClientCounters counters_;
};

}  // namespace graft::router

#endif  // GRAFT_ROUTER_SHARD_CLIENT_H_
