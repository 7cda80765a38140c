#include "server/server_stats.h"

#include <algorithm>
#include <cstdio>

#include "core/rewrite_rules.h"
#include "exec/operators.h"
#include "sa/scoring_scheme.h"
#include "server/http.h"

namespace graft::server {

// One server-side slot per exec-side slot: StampRuleCounters writes by
// registry index, so the two arrays must stay width-matched.
static_assert(ServerStats::kMaxRules == exec::ExecStats::kMaxRules,
              "per-rule counter widths diverged");

namespace {

// Bucket index: number of significant bits in `micros` (0 -> bucket 0).
size_t BucketFor(uint64_t micros) {
  size_t bits = 0;
  while (micros != 0 && bits + 1 < LatencyHistogram::kBuckets) {
    micros >>= 1;
    ++bits;
  }
  return bits;
}

void AppendMs(std::string* out, double micros) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", micros / 1000.0);
  *out += buf;
}

}  // namespace

void LatencyHistogram::Record(uint64_t micros) {
  buckets_[BucketFor(micros)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_micros_.fetch_add(micros, std::memory_order_relaxed);
  uint64_t seen = max_micros_.load(std::memory_order_relaxed);
  while (micros > seen && !max_micros_.compare_exchange_weak(
                              seen, micros, std::memory_order_relaxed)) {
  }
}

double LatencyHistogram::PercentileMicros(double q) const {
  uint64_t counts[kBuckets];
  uint64_t total = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample (1-based), then walk buckets.
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(q * total + 0.5));
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (counts[i] == 0) continue;
    if (seen + counts[i] >= rank) {
      // Interpolate inside [lo, hi): bucket i holds values with i
      // significant bits, i.e. [2^(i-1), 2^i) for i >= 1 and {0} for 0.
      const double lo = i == 0 ? 0.0 : static_cast<double>(uint64_t{1} << (i - 1));
      const double hi = static_cast<double>(uint64_t{1} << i);
      const double frac =
          static_cast<double>(rank - seen) / static_cast<double>(counts[i]);
      // The interpolated position can overshoot the largest sample actually
      // recorded (bucket upper bounds are powers of two) — clamp so
      // reported percentiles never exceed the true max.
      const double max_seen =
          static_cast<double>(max_micros_.load(std::memory_order_relaxed));
      return std::min(lo + (hi - lo) * frac, max_seen);
    }
    seen += counts[i];
  }
  return static_cast<double>(max_micros_.load(std::memory_order_relaxed));
}

std::string LatencyHistogram::ToJson() const {
  std::string out = "{\"count\":";
  out += std::to_string(count());
  const uint64_t n = count();
  out += ",\"mean_ms\":";
  AppendMs(&out, n == 0 ? 0.0
                        : static_cast<double>(
                              sum_micros_.load(std::memory_order_relaxed)) /
                              static_cast<double>(n));
  out += ",\"p50_ms\":";
  AppendMs(&out, PercentileMicros(0.50));
  out += ",\"p95_ms\":";
  AppendMs(&out, PercentileMicros(0.95));
  out += ",\"p99_ms\":";
  AppendMs(&out, PercentileMicros(0.99));
  out += ",\"max_ms\":";
  AppendMs(&out,
           static_cast<double>(max_micros_.load(std::memory_order_relaxed)));
  out += "}";
  return out;
}

SchemeCounters::SchemeCounters() {
  for (const sa::ScoringScheme* scheme : sa::SchemeRegistry::Global().All()) {
    names_.emplace_back(scheme->name());
  }
  names_.emplace_back("(other)");
  counts_ = std::vector<std::atomic<uint64_t>>(names_.size());
}

void SchemeCounters::Record(std::string_view scheme_name) {
  for (size_t i = 0; i + 1 < names_.size(); ++i) {
    if (names_[i] == scheme_name) {
      counts_[i].fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  counts_.back().fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::pair<std::string, uint64_t>> SchemeCounters::NonZero()
    const {
  std::vector<std::pair<std::string, uint64_t>> out;
  for (size_t i = 0; i < names_.size(); ++i) {
    const uint64_t n = counts_[i].load(std::memory_order_relaxed);
    if (n != 0) {
      out.emplace_back(names_[i], n);
    }
  }
  return out;
}

std::string SchemeCounters::ToJson() const {
  std::string out = "{";
  bool first = true;
  for (size_t i = 0; i < names_.size(); ++i) {
    const uint64_t n = counts_[i].load(std::memory_order_relaxed);
    if (n == 0) continue;
    if (!first) out += ",";
    first = false;
    out += "\"";
    JsonAppendEscaped(&out, names_[i]);
    out += "\":";
    out += std::to_string(n);
  }
  out += "}";
  return out;
}

void RequestCounters::RecordResponseCode(int status_code) {
  if (status_code >= 200 && status_code < 300) {
    responses_ok.fetch_add(1, std::memory_order_relaxed);
  } else if (status_code >= 400 && status_code < 500) {
    client_errors.fetch_add(1, std::memory_order_relaxed);
  } else if (status_code == 503) {
    rejected_overload.fetch_add(1, std::memory_order_relaxed);
  } else if (status_code == 504) {
    deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
  } else {
    server_errors.fetch_add(1, std::memory_order_relaxed);
  }
}

std::string ServerStats::ToJson() const {
  std::string out = "{";
  common::AppendJsonCounters(&out, *this, kServerCounters);
  out += ",\"rule_fired\":{";
  {
    const auto& rules = core::RewriteRuleRegistry::Global().All();
    bool first = true;
    for (size_t i = 0; i < rules.size() && i < kMaxRules; ++i) {
      const uint64_t n = rule_fired[i].load(std::memory_order_relaxed);
      if (n == 0) continue;
      if (!first) out += ",";
      first = false;
      out += "\"" + rules[i].id + "\":" + std::to_string(n);
    }
  }
  out += "}";
  out += ",\"search_latency\":";
  out += search_latency.ToJson();
  out += ",\"scheme_counts\":";
  out += scheme_counts.ToJson();
  out += "}";
  return out;
}

namespace {

void AppendDouble(std::string* out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  *out += buf;
}

}  // namespace

std::string ServerStats::ToPrometheus() const {
  std::string out;
  common::AppendPrometheusCounters(&out, *this, kServerCounters);

  {
    const auto& rules = core::RewriteRuleRegistry::Global().All();
    bool any = false;
    for (size_t i = 0; i < rules.size() && i < kMaxRules; ++i) {
      any = any || rule_fired[i].load(std::memory_order_relaxed) != 0;
    }
    if (any) {
      out +=
          "# HELP graft_rewrite_rule_fired_total Rewrite-rule applications "
          "per catalog rule across served searches.\n"
          "# TYPE graft_rewrite_rule_fired_total counter\n";
      for (size_t i = 0; i < rules.size() && i < kMaxRules; ++i) {
        const uint64_t n = rule_fired[i].load(std::memory_order_relaxed);
        if (n == 0) continue;
        // Rule ids are stable lowercase identifiers — no label escaping
        // needed beyond quoting.
        out += "graft_rewrite_rule_fired_total{rule=\"" + rules[i].id +
               "\"} " + std::to_string(n) + "\n";
      }
    }
  }

  out +=
      "# HELP graft_search_latency_microseconds /search latency "
      "(queued + handled).\n"
      "# TYPE graft_search_latency_microseconds summary\n";
  const struct {
    const char* label;
    double q;
  } quantiles[] = {{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}};
  for (const auto& quantile : quantiles) {
    out += "graft_search_latency_microseconds{quantile=\"";
    out += quantile.label;
    out += "\"} ";
    AppendDouble(&out, search_latency.PercentileMicros(quantile.q));
    out += "\n";
  }
  out += "graft_search_latency_microseconds_sum ";
  out += std::to_string(search_latency.sum_micros());
  out += "\ngraft_search_latency_microseconds_count ";
  out += std::to_string(search_latency.count());
  out += "\n";

  const auto schemes = scheme_counts.NonZero();
  if (!schemes.empty()) {
    out +=
        "# HELP graft_search_by_scheme_total /search requests per scoring "
        "scheme.\n# TYPE graft_search_by_scheme_total counter\n";
    for (const auto& [name, n] : schemes) {
      // Scheme names are registry identifiers ([A-Za-z0-9_-]) — no label
      // escaping needed beyond quoting.
      out += "graft_search_by_scheme_total{scheme=\"" + name + "\"} " +
             std::to_string(n) + "\n";
    }
  }
  return out;
}

}  // namespace graft::server
