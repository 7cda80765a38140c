// Seeded request logs and open-loop arrival schedules.
//
// The benchmark derives every input from the run's seed: the corpus seed,
// the query log and the Poisson arrival times. The service under test only
// ever sees the generated HTTP requests.

#ifndef GRAFT_PERFBENCH_WORKLOAD_H_
#define GRAFT_PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "index/inverted_index.h"

namespace perfbench {

struct SearchRequest {
  std::string query;
  std::string scheme;
  size_t k = 10;
  bool positional = false;  // phrase / WINDOW / PROXIMITY
  std::string target;       // "/search?q=...&scheme=...&k=..."
};

// Distinct requests plus their popularity; a schedule samples request i
// with probability weights[i] / sum(weights).
struct RequestLog {
  std::vector<SearchRequest> distinct;
  std::vector<double> weights;
};

// Q4-Q11 (paper Section 8) plus the pure-keyword PK1-PK8 queries, each
// under all eight registered schemes, k = 10, equally likely.
RequestLog PaperLog();

// The Zipf log's shape. ZipfLogParameters() gives each value with its
// source: a published query-log figure, or, where there is none, a label
// saying the value is an assumption of this workload.
//
// Terms in more than this share of documents are stopwords and never
// queried.
inline constexpr double kStopwordDfFrac = 0.10;
// Positional predicates only draw terms in at most this share of
// documents, so a phrase or window join stays bounded.
inline constexpr double kPositionalDfCapFrac = 0.02;
// Zipf exponent over document-frequency rank.
inline constexpr double kTermSkew = 1.0;
// Odds of a keyword query having 1, 2, 3 or 4 terms (mean 2.2).
inline constexpr double kTermCountWeights[] = {0.30, 0.35, 0.20, 0.15};
// Share of keyword queries joined by AND; the rest are joined by OR.
inline constexpr double kConjunctionShare = 0.5;

struct ZipfLogOptions {
  size_t distinct_queries = 600;
  double positional_share = 0.15;
  std::vector<size_t> ks;
  std::vector<double> k_weights;
};

// A Zipf-sampled log over `index`'s vocabulary: 1-4-term AND/OR keyword
// queries plus a `positional_share` of phrase / WINDOW / PROXIMITY queries,
// each under a scheme drawn uniformly from all eight.
RequestLog ZipfLog(const graft::index::InvertedIndex& index,
                   const ZipfLogOptions& options, uint64_t seed);

struct LogParameter {
  std::string name;
  std::string value;
  std::string source;
};

// Every parameter of ZipfLog(index, options, ...) with its source.
std::vector<LogParameter> ZipfLogParameters(const ZipfLogOptions& options);

// The label of a value that no query-log study fixes.
inline constexpr const char* kAssumption = "assumption of this workload";

// `a` and `b` interleaved: each request comes from `a` with probability
// `share_a`.
RequestLog MixLogs(const RequestLog& a, const RequestLog& b, double share_a);

struct Arrival {
  double due_s = 0.0;  // offset from the phase start
  uint32_t request = 0;
};

// Poisson arrivals at `rate_qps` over `seconds`, requests drawn by weight.
std::vector<Arrival> PoissonSchedule(const RequestLog& log, double rate_qps,
                                     double seconds, uint64_t seed);

// Share of `arrivals` that go to the most requested tenth of the distinct
// requests they touch.
double HotSetShare(const std::vector<Arrival>& arrivals);
size_t DistinctTouched(const std::vector<Arrival>& arrivals);

}  // namespace perfbench

#endif  // GRAFT_PERFBENCH_WORKLOAD_H_
