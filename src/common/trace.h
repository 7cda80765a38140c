// Low-overhead query tracing: per-query spans.
//
// QueryTrace is a per-query span collection. Callers that want a trace
// (EXPLAIN ANALYZE, ?explain=1, tests) hand one to the engine via
// SearchOptions::trace; the engine opens spans for parse →
// canonicalize/optimize (one span per attempted rewrite, carrying the gate
// verdict) → execute → rank → merge. Recording is mutex-guarded because
// segmented execution closes spans from pool workers. Without a trace —
// the default — every instrumentation point is a ScopedSpan over a null
// QueryTrace, which bench_parallel_throughput's trace-overhead guard bounds
// at <2% of query time.
//
// Span timestamps come from the monotonic clock; durations are exact, wall
// times are not reconstructable (by design — nothing here needs them).

#ifndef GRAFT_COMMON_TRACE_H_
#define GRAFT_COMMON_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace graft::common {

// Nanoseconds on the monotonic clock (CLOCK_MONOTONIC).
uint64_t MonotonicNanos();

struct TraceSpan {
  std::string name;
  std::string detail;    // freeform annotation (gate verdicts, counts, ...)
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;   // == start_ns for point events
  uint32_t depth = 0;    // nesting depth within the opening thread

  uint64_t DurationNanos() const {
    return end_ns >= start_ns ? end_ns - start_ns : 0;
  }
};

// Span collection for one query. Thread-safe: pool workers may open/close
// spans concurrently with the coordinating thread. Nesting depth is
// tracked per opening thread, so concurrent segment spans render as
// siblings, not as accidental children of each other.
class QueryTrace {
 public:
  QueryTrace() = default;
  QueryTrace(QueryTrace&& other) noexcept;
  QueryTrace& operator=(QueryTrace&& other) noexcept;
  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  // Opens a span and returns its id (stable across later Begin/End calls).
  size_t BeginSpan(std::string_view name, std::string_view detail = {});

  // Closes the span; detail (if non-empty) replaces the span's detail.
  void EndSpan(size_t id, std::string_view detail = {});

  // Records a zero-duration span at the current nesting depth.
  void AddEvent(std::string_view name, std::string_view detail = {});

  std::vector<TraceSpan> spans() const;
  size_t span_count() const;

  // Indented rendering, one span per line:
  //   [   123.4us] execute  (segments=4)
  std::string ToText() const;

 private:
  mutable std::mutex mu_;
  std::vector<TraceSpan> spans_;
  // Per-thread stack of open span ids (LIFO per thread via ScopedSpan).
  std::unordered_map<std::thread::id, std::vector<size_t>> open_;
};

// RAII span. A null trace makes every operation a no-op, so call sites
// never branch on "is tracing on".
class ScopedSpan {
 public:
  ScopedSpan(QueryTrace* trace, std::string_view name,
             std::string_view detail = {})
      : trace_(trace) {
    if (trace_ != nullptr) {
      id_ = trace_->BeginSpan(name, detail);
    }
  }
  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Closes early (idempotent); detail replaces the span's annotation.
  void End(std::string_view detail = {}) {
    if (trace_ != nullptr && !ended_) {
      trace_->EndSpan(id_, detail);
      ended_ = true;
    }
  }

 private:
  QueryTrace* trace_;
  size_t id_ = 0;
  bool ended_ = false;
};

}  // namespace graft::common

#endif  // GRAFT_COMMON_TRACE_H_
