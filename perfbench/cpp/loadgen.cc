#include "loadgen.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <string_view>
#include <thread>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double NumberAfter(std::string_view body, std::string_view key,
                   size_t from = 0, size_t* next = nullptr) {
  const size_t at = body.find(key, from);
  if (at == std::string_view::npos) {
    if (next != nullptr) *next = std::string_view::npos;
    return 0.0;
  }
  const size_t start = at + key.size();
  if (next != nullptr) *next = start;
  return std::strtod(std::string(body.substr(start, 32)).c_str(), nullptr);
}

void ReadTimings(std::string_view body, Sample* s) {
  const size_t timings = body.find("\"timings\":{");
  if (timings == std::string_view::npos) return;
  s->server_queue_ms = NumberAfter(body, "\"queue_ms\":", timings);
  s->server_engine_ms = NumberAfter(body, "\"engine_ms\":", timings);
  s->server_total_ms = NumberAfter(body, "\"total_ms\":", timings);
  // Router bodies list their shard legs before the timings block.
  const size_t shards = body.find("\"shards\":[");
  if (shards == std::string_view::npos || shards > timings) return;
  size_t cursor = shards;
  while (true) {
    size_t next = 0;
    const double attempts = NumberAfter(body, "\"attempts\":", cursor, &next);
    if (next == std::string_view::npos || next > timings) break;
    const double leg_ms = NumberAfter(body, "\"latency_ms\":", next, &next);
    if (next == std::string_view::npos || next > timings) break;
    s->shard_legs += 1;
    s->shard_attempts += static_cast<uint32_t>(attempts);
    s->shard_ms_max = std::max(s->shard_ms_max, leg_ms);
    cursor = next;
  }
}

}  // namespace

std::vector<Sample> RunPhase(const std::vector<Arrival>& arrivals,
                             const PhaseOptions& options,
                             size_t* realtime_threads) {
  std::vector<Sample> samples(arrivals.size());
  std::atomic<size_t> next{0};
  std::atomic<size_t> realtime{0};
  std::atomic<size_t> dropped{0};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto since_t0 = [t0](Clock::time_point t) {
    return std::chrono::duration<double>(t - t0).count();
  };

  const auto worker = [&] {
    // The generator stands in for clients on other machines: it must not
    // queue behind the service's threads for a CPU, or its own lateness
    // would be charged to the service. Real-time priority where permitted.
    sched_param param{};
    param.sched_priority = 1;
    if (pthread_setschedparam(pthread_self(), SCHED_FIFO, &param) == 0) {
      realtime.fetch_add(1, std::memory_order_relaxed);
    }
    HttpConnection connection(options.port, options.timeout_ms);
    HttpReply reply;
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= arrivals.size()) break;
      const Arrival& arrival = arrivals[i];
      Sample& s = samples[i];
      s.request = arrival.request;
      s.due_s = arrival.due_s;
      s.ran = true;
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(arrival.due_s));
      const Clock::time_point claim = Clock::now();
      if (options.stop_after_s > 0 && since_t0(claim) > options.stop_after_s) {
        s.ran = false;
        dropped.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (claim < due) std::this_thread::sleep_until(due);
      const Clock::time_point send = Clock::now();
      const SearchRequest& request = (*options.requests)[arrival.request];
      const graft::Status status = connection.Get(request.target, &reply);
      const Clock::time_point done = Clock::now();
      s.claim_s = since_t0(claim);
      s.send_s = since_t0(send);
      s.done_s = since_t0(done);
      s.connects = reply.connects;
      s.connect_us = reply.connect_us;
      if (!status.ok()) continue;  // status_code stays 0
      s.status_code = reply.status_code;
      if (reply.status_code != 200) continue;
      // The results fragment closes the body: {...,"results":[...]}
      const std::string_view body = reply.body;
      const size_t at = body.rfind("\"results\":[");
      const std::string& expected = (*options.expected)[arrival.request];
      s.answer_matches = at != std::string_view::npos && !body.empty() &&
                         body.back() == '}' &&
                         body.substr(at, body.size() - 1 - at) == expected;
      ReadTimings(body, &s);
      if (options.after != nullptr) (*options.after)(s);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(options.threads);
  for (size_t t = 0; t < options.threads; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  if (realtime_threads != nullptr) *realtime_threads = realtime.load();
  if (dropped.load() > 0) {
    std::erase_if(samples, [](const Sample& s) { return !s.ran; });
  }
  return samples;
}

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values->size())));
  return (*values)[std::min(values->size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace perfbench
