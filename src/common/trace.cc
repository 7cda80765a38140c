#include "common/trace.h"

#include <time.h>

#include <algorithm>
#include <cstdio>

namespace graft::common {

uint64_t MonotonicNanos() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

QueryTrace::QueryTrace(QueryTrace&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.mu_);
  spans_ = std::move(other.spans_);
  open_ = std::move(other.open_);
}

QueryTrace& QueryTrace::operator=(QueryTrace&& other) noexcept {
  if (this != &other) {
    std::scoped_lock lock(mu_, other.mu_);
    spans_ = std::move(other.spans_);
    open_ = std::move(other.open_);
  }
  return *this;
}

size_t QueryTrace::BeginSpan(std::string_view name, std::string_view detail) {
  const uint64_t now = MonotonicNanos();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<size_t>& stack = open_[std::this_thread::get_id()];
  TraceSpan span;
  span.name = std::string(name);
  span.detail = std::string(detail);
  span.start_ns = now;
  span.end_ns = 0;
  span.depth = static_cast<uint32_t>(stack.size());
  const size_t id = spans_.size();
  spans_.push_back(std::move(span));
  stack.push_back(id);
  return id;
}

void QueryTrace::EndSpan(size_t id, std::string_view detail) {
  const uint64_t now = MonotonicNanos();
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= spans_.size()) {
    return;
  }
  TraceSpan& span = spans_[id];
  if (span.end_ns == 0) {
    span.end_ns = std::max(now, span.start_ns);
  }
  if (!detail.empty()) {
    span.detail = std::string(detail);
  }
  // Pop the id from its opening thread's stack (LIFO in practice; a
  // defensive erase keeps mismatched closes from corrupting depths).
  for (auto& [tid, stack] : open_) {
    const auto it = std::find(stack.begin(), stack.end(), id);
    if (it != stack.end()) {
      stack.erase(it, stack.end());
      break;
    }
  }
}

void QueryTrace::AddEvent(std::string_view name, std::string_view detail) {
  const uint64_t now = MonotonicNanos();
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<size_t>& stack = open_[std::this_thread::get_id()];
  TraceSpan span;
  span.name = std::string(name);
  span.detail = std::string(detail);
  span.start_ns = now;
  span.end_ns = now;
  span.depth = static_cast<uint32_t>(stack.size());
  spans_.push_back(std::move(span));
}

std::vector<TraceSpan> QueryTrace::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceSpan> out = spans_;
  const uint64_t now = MonotonicNanos();
  for (TraceSpan& span : out) {
    if (span.end_ns == 0) {
      span.end_ns = std::max(now, span.start_ns);  // still open: clamp
    }
  }
  return out;
}

size_t QueryTrace::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::string QueryTrace::ToText() const {
  const std::vector<TraceSpan> snapshot = spans();
  std::string out;
  char line[64];
  for (const TraceSpan& span : snapshot) {
    std::snprintf(line, sizeof(line), "[%10.1fus] ",
                  static_cast<double>(span.DurationNanos()) / 1000.0);
    out += line;
    out.append(2 * static_cast<size_t>(span.depth), ' ');
    out += span.name;
    if (!span.detail.empty()) {
      out += "  (";
      out += span.detail;
      out += ")";
    }
    out += "\n";
  }
  return out;
}

}  // namespace graft::common
