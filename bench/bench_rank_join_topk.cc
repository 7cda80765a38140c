// Rank-join / rank-union top-k (Section 5.2.1): early-termination gains
// for diagonal schemes with monotone combinators, against scoring every
// matching document. Every run goes through Engine::SearchQuery, the way
// a serving process runs it:
//
//   full        rank processing off: the optimized plan scores every
//               match, then truncates to k;
//   term-bound  MaxScore bounded by list-wide term upper bounds only
//               (allow_block_max_pruning = false) — the TA-style threshold
//               stop of the paper's rank-join / rank-union;
//   block-max   MaxScore with per-block score ceilings (the default).
//
// All three must return the same top-k to the last bit; the binary exits
// non-zero otherwise. GRAFT_BENCH_DOCS sets the corpus size (default
// 30000).

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "mcalc/parser.h"

int main() {
  using namespace graft;
  const index::InvertedIndex& index = bench::SharedBenchIndex();
  core::Engine engine(&index);

  struct Case {
    const char* label;
    const char* query;
    const char* scheme;
  };
  const Case cases[] = {
      {"rank-join", "free software", "Lucene"},
      {"rank-join", "free software", "AnySum"},
      {"rank-join", "free service internet", "Lucene"},
      {"rank-union", "fishing | hunting | dinosaur", "Lucene"},
      {"rank-union", "free | windows | service", "AnySum"},
  };
  struct Mode {
    const char* name;
    bool rank;
    bool block_max;
  };
  constexpr Mode kModes[] = {
      {"full", false, false},
      {"term-bound", true, false},
      {"block-max", true, true},
  };

  std::printf("Top-k rank processing vs full evaluation (%llu docs)\n",
              static_cast<unsigned long long>(index.doc_count()));
  std::printf("%-10s %-28s %-6s %4s | %9s %9s %9s | %8s %8s %8s\n", "kind",
              "query", "scheme", "k", "full(ms)", "term(ms)", "bmax(ms)",
              "scored:f", "term", "bmax");
  std::printf("-------------------------------------------------------------"
              "------------------------------------------\n");

  for (const Case& c : cases) {
    auto query = mcalc::ParseQuery(c.query);
    if (!query.ok()) continue;
    const sa::ScoringScheme& scheme =
        *sa::SchemeRegistry::Global().Lookup(c.scheme);
    for (const size_t k : {size_t{10}, size_t{100}}) {
      double ms[3];
      unsigned long long scored[3];
      std::vector<ma::ScoredDoc> want;
      for (size_t m = 0; m < 3; ++m) {
        core::SearchOptions options;
        options.top_k = k;
        options.allow_rank_processing = kModes[m].rank;
        options.allow_block_max_pruning = kModes[m].block_max;
        auto run = engine.SearchQuery(*query, scheme, options);
        if (!run.ok()) {
          std::fprintf(stderr, "%s %s: %s\n", c.query, kModes[m].name,
                       run.status().ToString().c_str());
          return 1;
        }
        if (run->used_rank_processing != kModes[m].rank ||
            run->used_block_max_pruning != kModes[m].block_max) {
          std::fprintf(stderr, "%s %s %s: gate refused the mode\n", c.query,
                       c.scheme, kModes[m].name);
          return 1;
        }
        // Full ranking counts every match it visited; top-k counts the
        // candidates MaxScore scored.
        scored[m] = kModes[m].rank ? run->exec_stats.docs_scored
                                   : run->exec_stats.docs_visited;
        if (m == 0) {
          want = run->results;
        } else if (run->results.size() != want.size()) {
          std::fprintf(stderr, "%s %s: %zu results vs full %zu\n", c.query,
                       kModes[m].name, run->results.size(), want.size());
          return 1;
        } else {
          for (size_t i = 0; i < want.size(); ++i) {
            if (run->results[i].doc != want[i].doc ||
                run->results[i].score != want[i].score) {
              std::fprintf(stderr, "%s %s: rank %zu differs from full\n",
                           c.query, kModes[m].name, i);
              return 1;
            }
          }
        }
        ms[m] = 1e3 * bench::MeasureSeconds([&] {
          auto r = engine.SearchQuery(*query, scheme, options);
          (void)r;
        });
      }
      std::printf("%-10s %-28s %-6s %4zu | %9.3f %9.3f %9.3f | %8llu %8llu "
                  "%8llu\n",
                  c.label, c.query, c.scheme, k, ms[0], ms[1], ms[2],
                  scored[0], scored[1], scored[2]);
    }
  }
  std::printf("\nscored:f is the documents the full plan visited; term and "
              "bmax are the\ncandidates MaxScore scored under term bounds "
              "and block-max ceilings.\nAll three top-k lists are "
              "bit-identical (checked).\n");
  return 0;
}
