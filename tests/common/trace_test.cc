// Unit tests for the query tracer: span nesting, per-thread depth
// bookkeeping, and the RAII wrapper's null/no-op and idempotence
// contracts. The cross-thread test runs under TSan in CI (the segmented
// engine closes spans from pool workers, so QueryTrace must be clean
// there).

#include "common/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace graft::common {
namespace {

TEST(MonotonicNanosTest, NeverDecreases) {
  const uint64_t a = MonotonicNanos();
  const uint64_t b = MonotonicNanos();
  EXPECT_GE(b, a);
  EXPECT_GT(a, 0u);
}

TEST(QueryTraceTest, RecordsNestedDepths) {
  QueryTrace trace;
  const size_t outer = trace.BeginSpan("outer");
  const size_t inner = trace.BeginSpan("inner");
  trace.AddEvent("event", "note");
  trace.EndSpan(inner);
  trace.EndSpan(outer, "done");

  const std::vector<TraceSpan> spans = trace.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[0].detail, "done");  // EndSpan detail replaces
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[2].name, "event");
  EXPECT_EQ(spans[2].depth, 2u);  // inside both open spans
  EXPECT_EQ(spans[2].detail, "note");
  EXPECT_EQ(spans[2].start_ns, spans[2].end_ns);  // point event
  EXPECT_GE(spans[0].DurationNanos(), spans[1].DurationNanos());
}

TEST(QueryTraceTest, SiblingSpansShareDepth) {
  QueryTrace trace;
  const size_t first = trace.BeginSpan("first");
  trace.EndSpan(first);
  const size_t second = trace.BeginSpan("second");
  trace.EndSpan(second);
  const std::vector<TraceSpan> spans = trace.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[1].depth, 0u);
}

TEST(QueryTraceTest, CrossThreadSpansAreSiblingsNotChildren) {
  QueryTrace trace;
  const size_t root = trace.BeginSpan("root");
  // Pool workers open spans concurrently; depth is tracked per opening
  // thread, so worker spans must come out at depth 0 (their own thread has
  // no enclosing span), never nested under each other.
  std::vector<std::thread> workers;
  for (int i = 0; i < 4; ++i) {
    workers.emplace_back([&trace, i] {
      ScopedSpan span(&trace, "segment " + std::to_string(i));
      trace.AddEvent("work");
    });
  }
  for (std::thread& worker : workers) worker.join();
  trace.EndSpan(root);

  const std::vector<TraceSpan> spans = trace.spans();
  ASSERT_EQ(spans.size(), 9u);  // root + 4 x (segment + event)
  int segments = 0;
  for (const TraceSpan& span : spans) {
    if (span.name.rfind("segment ", 0) == 0) {
      EXPECT_EQ(span.depth, 0u) << span.name;
      ++segments;
    }
    if (span.name == "work") {
      EXPECT_EQ(span.depth, 1u);  // under its own thread's segment span
    }
  }
  EXPECT_EQ(segments, 4);
}

TEST(QueryTraceTest, ToTextIndentsByDepth) {
  QueryTrace trace;
  const size_t outer = trace.BeginSpan("outer");
  const size_t inner = trace.BeginSpan("inner", "detail");
  trace.EndSpan(inner);
  trace.EndSpan(outer);
  const std::string text = trace.ToText();
  EXPECT_NE(text.find("outer"), std::string::npos);
  EXPECT_NE(text.find("inner"), std::string::npos);
  EXPECT_NE(text.find("(detail)"), std::string::npos);
  // The nested span is indented further than its parent.
  const size_t outer_pos = text.find("outer");
  const size_t inner_pos = text.find("inner");
  const size_t outer_line = text.rfind('\n', outer_pos);
  const size_t inner_line = text.rfind('\n', inner_pos);
  const size_t outer_col =
      outer_pos - (outer_line == std::string::npos ? 0 : outer_line);
  const size_t inner_col =
      inner_pos - (inner_line == std::string::npos ? 0 : inner_line);
  EXPECT_GT(inner_col, outer_col);
}

TEST(ScopedSpanTest, NullTraceIsNoOp) {
  ScopedSpan span(nullptr, "nothing");
  span.End("ignored");  // must not crash
}

TEST(ScopedSpanTest, EndIsIdempotent) {
  QueryTrace trace;
  {
    ScopedSpan span(&trace, "once");
    span.End("first");
    span.End("second");  // ignored: already ended
  }                      // destructor End also ignored
  const std::vector<TraceSpan> spans = trace.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].detail, "first");
}

}  // namespace
}  // namespace graft::common
