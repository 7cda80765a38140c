// Declared counter tables and the renderers every surface shares.
//
// Each counter family — exec::ExecStats, server::ServerStats, the router's
// RouterStats / GatherCounters / ShardClientCounters, and
// index::BlockCache::Snapshot — declares its counters once, as a constexpr
// array of rows next to the struct. A row names the member, its JSON key
// and, when the counter is exported, its Prometheus name and help text.
// Accumulation, /stats JSON, /metrics exposition and EXPLAIN ANALYZE are
// loops over that array, so adding a counter is one struct field plus one
// row (and one doc row; tools/check_docs.py enforces it). The struct
// members stay plain named fields for the code that increments them.

#ifndef GRAFT_COMMON_COUNTERS_H_
#define GRAFT_COMMON_COUNTERS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace graft::common {

// One counter of family `Struct`. `Field` is uint64_t for per-query and
// snapshot structs, std::atomic<uint64_t> for live service counters.
template <typename Struct, typename Field = uint64_t>
struct CounterRow {
  Field Struct::*member;
  const char* name;         // JSON key
  const char* metric = "";  // Prometheus name; "" = not exported
  const char* help = "";    // Prometheus HELP text
};

inline uint64_t CounterValue(uint64_t value) { return value; }
inline uint64_t CounterValue(const std::atomic<uint64_t>& value) {
  return value.load(std::memory_order_relaxed);
}

// Appends `"name":value` for every row of `rows` (a table, or a filtered
// view of one), comma-separated, with no enclosing braces: callers splice
// the pairs into larger objects.
template <typename Struct, typename Rows>
void AppendJsonCounters(std::string* out, const Struct& s, Rows&& rows) {
  bool first = true;
  for (const auto& row : rows) {
    if (!first) *out += ',';
    first = false;
    *out += '"';
    *out += row.name;
    *out += "\":";
    *out += std::to_string(CounterValue(s.*row.member));
  }
}

// The HELP and TYPE lines of one exported row. Prometheus naming decides
// the type: a name ending in _total is a counter, anything else a gauge.
template <typename Row>
void AppendPrometheusHeader(std::string* out, const Row& row) {
  const std::string_view metric = row.metric;
  *out += "# HELP ";
  *out += metric;
  *out += ' ';
  *out += row.help;
  *out += "\n# TYPE ";
  *out += metric;
  *out += metric.ends_with("_total") ? " counter\n" : " gauge\n";
}

// Appends HELP, TYPE and one sample for every exported row of `rows`.
template <typename Struct, typename Rows>
void AppendPrometheusCounters(std::string* out, const Struct& s,
                              const Rows& rows) {
  for (const auto& row : rows) {
    if (*row.metric == '\0') continue;
    AppendPrometheusHeader(out, row);
    *out += row.metric;
    *out += ' ';
    *out += std::to_string(CounterValue(s.*row.member));
    *out += '\n';
  }
}

// Labelled series over `count` instances of one family: for every exported
// row, HELP and TYPE once, then one sample `metric{label="i"} value` per
// instance, reading instance i as `instance(i)`.
template <typename Rows, typename Instance>
void AppendLabelledPrometheusCounters(std::string* out, const Rows& rows,
                                      std::string_view label, size_t count,
                                      const Instance& instance) {
  for (const auto& row : rows) {
    if (*row.metric == '\0') continue;
    AppendPrometheusHeader(out, row);
    for (size_t i = 0; i < count; ++i) {
      *out += row.metric;
      *out += '{';
      *out += label;
      *out += "=\"" + std::to_string(i) + "\"} ";
      *out += std::to_string(CounterValue(instance(i).*row.member));
      *out += '\n';
    }
  }
}

}  // namespace graft::common

#endif  // GRAFT_COMMON_COUNTERS_H_
