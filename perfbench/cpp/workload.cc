#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <random>
#include <set>
#include <tuple>
#include <unordered_map>

#include "bench/bench_util.h"
#include "server/http.h"

namespace perfbench {

namespace {

constexpr const char* kAllSchemes[] = {
    "AnySum",         "AnyProd", "SumBest",    "Lucene",
    "JoinNormalized", "MeanSum", "EventModel", "BestSumMinDist"};

// PK1-PK8: pure keyword conjunctions/disjunctions, the pruning sweep's
// mix in bench/bench_parallel_throughput.cc. Q4-Q11 come from the paper's
// query list in bench/bench_util.h.
constexpr const char* kKeywordQueries[] = {
    "san francisco fault line",
    "dinosaur species list",
    "image | picture | drawing | illustration",
    "fishing | hunting | rules | regulations",
    "windows emulator",
    "city",
    "city state",
    "city | state | world",
};

// Positional query shapes: a two-term phrase, a 2-3-term WINDOW, or a
// two-term PROXIMITY, with these odds and widths.
constexpr double kPhraseShare = 0.4;
constexpr double kWindowShare = 0.3;
constexpr int kWindowWidths[] = {10, 20, 50};
constexpr int kProximitySpans[] = {4, 10};

std::string Target(const SearchRequest& r) {
  return "/search?q=" + graft::server::UrlEncode(r.query) +
         "&scheme=" + r.scheme + "&k=" + std::to_string(r.k);
}

// Samples ranks 0..n-1 with P(r) proportional to 1 / (r + 1)^skew.
class ZipfRanks {
 public:
  ZipfRanks(size_t n, double skew) {
    cumulative_.reserve(n);
    double sum = 0.0;
    for (size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), skew);
      cumulative_.push_back(sum);
    }
  }
  size_t Next(std::mt19937_64& rng) const {
    std::uniform_real_distribution<double> u(0.0, cumulative_.back());
    const double x = u(rng);
    return static_cast<size_t>(
        std::lower_bound(cumulative_.begin(), cumulative_.end(), x) -
        cumulative_.begin());
  }
  bool empty() const { return cumulative_.empty(); }

 private:
  std::vector<double> cumulative_;
};

// Distinct terms drawn from `ranks` over `vocab`.
std::vector<std::string> DrawTerms(const std::vector<std::string>& vocab,
                                   const ZipfRanks& ranks, size_t count,
                                   std::mt19937_64& rng) {
  std::vector<std::string> terms;
  for (size_t attempts = 0; terms.size() < count && attempts < 64;
       ++attempts) {
    const std::string& term = vocab[ranks.Next(rng)];
    if (std::find(terms.begin(), terms.end(), term) == terms.end()) {
      terms.push_back(term);
    }
  }
  return terms;
}

std::string Join(const std::vector<std::string>& terms, const char* sep) {
  std::string out;
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) out += sep;
    out += terms[i];
  }
  return out;
}

}  // namespace

RequestLog PaperLog() {
  std::vector<const char*> queries;
  for (const auto& q : graft::bench::kPaperQueries) queries.push_back(q.text);
  queries.insert(queries.end(), std::begin(kKeywordQueries),
                 std::end(kKeywordQueries));
  RequestLog log;
  for (const char* query : queries) {
    for (const char* scheme : kAllSchemes) {
      SearchRequest r;
      r.query = query;
      r.scheme = scheme;
      r.k = 10;
      r.positional = r.query.find('"') != std::string::npos ||
                     r.query.find('[') != std::string::npos;
      r.target = Target(r);
      log.distinct.push_back(std::move(r));
      log.weights.push_back(1.0);
    }
  }
  return log;
}

RequestLog ZipfLog(const graft::index::InvertedIndex& index,
                   const ZipfLogOptions& options, uint64_t seed) {
  // Vocabulary by descending document frequency (ties by text, so the
  // order is a function of the corpus alone).
  std::vector<std::pair<uint64_t, std::string>> by_df;
  by_df.reserve(index.term_count());
  const double docs = static_cast<double>(index.doc_count());
  for (uint32_t t = 0; t < index.term_count(); ++t) {
    const uint64_t df = index.DocFreq(t);
    if (static_cast<double>(df) > kStopwordDfFrac * docs) continue;
    by_df.emplace_back(df, index.TermText(t));
  }
  std::sort(by_df.begin(), by_df.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<std::string> vocab;
  std::vector<std::string> positional_vocab;
  for (const auto& [df, term] : by_df) {
    vocab.push_back(term);
    if (static_cast<double>(df) <= kPositionalDfCapFrac * docs) {
      positional_vocab.push_back(term);
    }
  }
  const ZipfRanks term_ranks(vocab.size(), kTermSkew);
  const ZipfRanks positional_ranks(positional_vocab.size(), kTermSkew);

  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::discrete_distribution<size_t> term_count(std::begin(kTermCountWeights),
                                                std::end(kTermCountWeights));
  std::discrete_distribution<size_t> pick_k(options.k_weights.begin(),
                                            options.k_weights.end());
  std::uniform_int_distribution<size_t> pick_scheme(0, std::size(kAllSchemes) - 1);

  RequestLog log;
  std::set<std::tuple<std::string, std::string, size_t>> seen;
  for (size_t attempts = 0; log.distinct.size() < options.distinct_queries &&
                            attempts < options.distinct_queries * 20;
       ++attempts) {
    SearchRequest r;
    r.scheme = kAllSchemes[pick_scheme(rng)];
    r.k = options.ks[pick_k(rng)];
    if (!positional_ranks.empty() && unit(rng) < options.positional_share) {
      r.positional = true;
      // Each draw is its own statement so the sequence of random numbers
      // does not depend on operand evaluation order.
      const double shape = unit(rng);
      if (shape < kPhraseShare) {
        const auto terms = DrawTerms(positional_vocab, positional_ranks, 2, rng);
        r.query = "\"" + Join(terms, " ") + "\"";
      } else if (shape < kPhraseShare + kWindowShare) {
        const size_t count = 2 + rng() % 2;
        const auto terms = DrawTerms(positional_vocab, positional_ranks, count, rng);
        const int window = kWindowWidths[rng() % std::size(kWindowWidths)];
        r.query = "(" + Join(terms, " ") + ")WINDOW[" + std::to_string(window) + "]";
      } else {
        const auto terms = DrawTerms(positional_vocab, positional_ranks, 2, rng);
        const int span = kProximitySpans[rng() % std::size(kProximitySpans)];
        r.query = "(" + Join(terms, " ") + ")PROXIMITY[" + std::to_string(span) + "]";
      }
    } else {
      const size_t count = 1 + term_count(rng);
      const std::vector<std::string> terms =
          DrawTerms(vocab, term_ranks, count, rng);
      const bool conjunction = unit(rng) < kConjunctionShare;
      r.query = Join(terms, conjunction ? " " : " | ");
    }
    if (!seen.emplace(r.query, r.scheme, r.k).second) continue;
    r.target = Target(r);
    log.distinct.push_back(std::move(r));
  }
  // Every distinct request is equally likely: the skew lives in the
  // vocabulary, and no single request can dominate a seed's figures.
  log.weights.assign(log.distinct.size(), 1.0);
  return log;
}

std::vector<LogParameter> ZipfLogParameters(const ZipfLogOptions& options) {
  const auto list = [](const auto& values) {
    std::string out;
    for (const auto& v : values) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", static_cast<double>(v));
      if (!out.empty()) out += "/";
      out += buf;
    }
    return out;
  };
  const auto number = [&](double v) { return list(std::vector<double>{v}); };
  const std::string assumption = kAssumption;
  std::vector<LogParameter> params = {
      {"terms_per_keyword_query", "1/2/3/4 at " + list(kTermCountWeights),
       "mean 2.2 terms, after Jansen, Spink & Saracevic 2000, 'Real life, "
       "real users, and real needs' (IP&M 36(2)): Excite log, 2.21 terms per "
       "query; Silverstein et al. 1999, 'Analysis of a very large web search "
       "engine query log' (SIGIR Forum 33(1)): AltaVista log, 2.35. The split "
       "over 1-4 terms is an " + assumption + " with that mean"},
      {"and_share", number(kConjunctionShare),
       assumption + ": even odds, so the conjunctive and disjunctive top-k "
       "paths carry equal weight; web logs show explicit Boolean operators "
       "are rare (Jansen, Spink & Saracevic 2000)"},
      {"term_zipf_exponent", number(kTermSkew),
       "Zipf-like term and query popularity: Xie & O'Hallaron 2002, "
       "'Locality in search engine queries and its implications for "
       "caching' (INFOCOM); Baeza-Yates et al. 2007, 'The impact of caching "
       "on search engines' (SIGIR). The exponent 1.0, and ranking terms by "
       "corpus document frequency, are an " + assumption + ", not fitted to "
       "a log"},
      {"stopword_df_frac", number(kStopwordDfFrac), assumption},
      {"schemes", "all eight, uniform", assumption},
      {"k", list(options.ks) + " at " + list(options.k_weights), assumption},
      {"distinct_requests", std::to_string(options.distinct_queries),
       assumption + ": each equally likely, so no single request sets a "
       "seed's figures"},
  };
  if (options.positional_share == 0.0) return params;
  params.insert(params.end(), {
      {"positional_share", number(options.positional_share),
       assumption + ": enough phrase/WINDOW/PROXIMITY queries to exercise "
       "the positional operators, not fitted to a log"},
      {"positional_df_cap_frac", number(kPositionalDfCapFrac),
       assumption + ": keeps phrase and window joins bounded"},
      {"positional_shapes",
       "phrase " + number(kPhraseShare) + ", WINDOW[" +
           list(kWindowWidths) + "] " + number(kWindowShare) +
           ", PROXIMITY[" + list(kProximitySpans) + "] " +
           number(1.0 - kPhraseShare - kWindowShare),
       assumption},
  });
  return params;
}

RequestLog MixLogs(const RequestLog& a, const RequestLog& b, double share_a) {
  double sum_a = 0.0;
  double sum_b = 0.0;
  for (double w : a.weights) sum_a += w;
  for (double w : b.weights) sum_b += w;
  RequestLog mixed;
  for (size_t i = 0; i < a.distinct.size(); ++i) {
    mixed.distinct.push_back(a.distinct[i]);
    mixed.weights.push_back(share_a * a.weights[i] / sum_a);
  }
  for (size_t i = 0; i < b.distinct.size(); ++i) {
    mixed.distinct.push_back(b.distinct[i]);
    mixed.weights.push_back((1.0 - share_a) * b.weights[i] / sum_b);
  }
  return mixed;
}

std::vector<Arrival> PoissonSchedule(const RequestLog& log, double rate_qps,
                                     double seconds, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate_qps);
  std::discrete_distribution<uint32_t> pick(log.weights.begin(),
                                            log.weights.end());
  std::vector<Arrival> arrivals;
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    arrivals.push_back(Arrival{t, pick(rng)});
  }
  return arrivals;
}

size_t DistinctTouched(const std::vector<Arrival>& arrivals) {
  std::set<uint32_t> touched;
  for (const Arrival& a : arrivals) touched.insert(a.request);
  return touched.size();
}

double HotSetShare(const std::vector<Arrival>& arrivals) {
  if (arrivals.empty()) return 0.0;
  std::unordered_map<uint32_t, size_t> counts;
  for (const Arrival& a : arrivals) ++counts[a.request];
  std::vector<size_t> sorted;
  for (const auto& [request, count] : counts) sorted.push_back(count);
  std::sort(sorted.rbegin(), sorted.rend());
  const size_t hot = std::max<size_t>(1, sorted.size() / 10);
  size_t hot_requests = 0;
  for (size_t i = 0; i < hot; ++i) hot_requests += sorted[i];
  return static_cast<double>(hot_requests) /
         static_cast<double>(arrivals.size());
}

}  // namespace perfbench
