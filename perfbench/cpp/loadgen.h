// Single-process open-loop load generator.
//
// A phase replays a precomputed arrival schedule against one HTTP port.
// At most `threads` generator threads run, each owning one connection
// slot, so threads and connections never exceed that count. A thread takes
// the next arrival, sleeps until it is due, sends it and waits for the
// reply. Latency is measured from the due time, so a stalled service also
// charges the requests queued behind it. Lateness is measured only when a
// slot was free at the due time: that delay is the generator's own.

#ifndef GRAFT_PERFBENCH_LOADGEN_H_
#define GRAFT_PERFBENCH_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "http_client.h"
#include "workload.h"

namespace perfbench {

struct Sample {
  uint32_t request = 0;
  bool ran = false;  // false: dropped by PhaseOptions::stop_after_s
  // Seconds from the phase start.
  double due_s = 0.0;
  double claim_s = 0.0;  // a generator slot picked the arrival up
  double send_s = 0.0;
  double done_s = 0.0;
  int status_code = 0;        // 0 = transport error
  bool answer_matches = false;
  uint32_t connects = 0;
  double connect_us = 0.0;
  // From the response's "timings" block (0 when absent).
  double server_queue_ms = 0.0;
  double server_engine_ms = 0.0;
  double server_total_ms = 0.0;
  // Router responses: per-shard legs.
  double shard_ms_max = 0.0;
  uint32_t shard_legs = 0;
  uint32_t shard_attempts = 0;

  bool ok() const { return status_code == 200 && answer_matches; }
  double latency_ms() const { return (done_s - due_s) * 1000.0; }
};

// Called on the generator thread right after a 200 reply was checked.
using AfterReply = std::function<void(const Sample&)>;

struct PhaseOptions {
  uint16_t port = 0;
  size_t threads = 1;
  int timeout_ms = 10000;
  const std::vector<SearchRequest>* requests = nullptr;
  // expected[i]: the exact "results":[...] fragment for requests[i].
  const std::vector<std::string>* expected = nullptr;
  const AfterReply* after = nullptr;
  // > 0: arrivals not yet picked up this many seconds after the phase
  // start are dropped (their samples keep status 0 and are not returned).
  double stop_after_s = 0.0;
};

// `*realtime_threads`, when non-null, receives how many generator threads
// obtained real-time scheduling priority.
std::vector<Sample> RunPhase(const std::vector<Arrival>& arrivals,
                             const PhaseOptions& options,
                             size_t* realtime_threads = nullptr);

// Nearest-rank percentile of `values` (sorted in place), p in [0, 1].
double Percentile(std::vector<double>* values, double p);

}  // namespace perfbench

#endif  // GRAFT_PERFBENCH_LOADGEN_H_
