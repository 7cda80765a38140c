// Enterprise-search scenario (the paper's motivating domain: Westlaw,
// PubMed, patent and legal search): expert users issue precise positional
// queries and pick the ranking function that suits the task.
//
// Demonstrates:
//   * expressive positional predicates (WINDOW, PROXIMITY, DISTANCE, ORDER)
//     including a user-defined plug-in predicate (SAMESENTENCE),
//   * how different scoring schemes rank the same result set differently,
//   * top-k early-terminating execution (rank-join) where the gate allows.
//
// Build & run:  ./build/examples/enterprise_search

#include <cstdio>
#include <vector>

#include "core/engine.h"
#include "mcalc/parser.h"
#include "text/corpus.h"

int main() {
  // A larger synthetic collection standing in for an enterprise corpus.
  graft::text::CorpusConfig config = graft::text::WikipediaLikeConfig(20000);
  graft::index::IndexBuilder builder;
  graft::text::CorpusGenerator generator(config);
  generator.Generate(
      [&builder](uint64_t, const std::vector<std::string_view>& tokens) {
        builder.AddDocument(tokens);
      });
  graft::index::InvertedIndex index = builder.Build();
  std::printf("corpus: %llu documents / %llu words / %zu terms\n\n",
              static_cast<unsigned long long>(index.doc_count()),
              static_cast<unsigned long long>(index.total_words()),
              index.term_count());

  // Register a plug-in positional predicate: both keywords in the same
  // simulated sentence (sentences approximated as 18-word segments).
  graft::mcalc::PredicateDef same_sentence;
  same_sentence.name = "SAMESENTENCE";
  same_sentence.min_vars = 2;
  same_sentence.max_vars = -1;
  same_sentence.num_params = 0;
  same_sentence.evaluator = [](std::span<const graft::Offset> positions,
                               std::span<const int64_t>) {
    if (positions.size() < 2) return true;
    const graft::Offset sentence = positions[0] / 18;
    for (const graft::Offset p : positions) {
      if (p / 18 != sentence) return false;
    }
    return true;
  };
  auto registered =
      graft::mcalc::PredicateRegistry::Global().Register(same_sentence);
  (void)registered;

  graft::core::Engine engine(&index);

  const char* queries[] = {
      // Regulatory research: all terms within a tight window.
      "arizona ((fishing | hunting) (rules | regulations))WINDOW[20]",
      // Prior-art style phrase + proximity.
      "\"free software\" (windows emulator)PROXIMITY[12]",
      // Plug-in predicate.
      "(wireless internet)SAMESENTENCE service",
      // Ordered mention: 'fault' before 'line' anywhere in the document.
      "(fault line)ORDER san",
  };

  for (const char* query : queries) {
    std::printf("== %s\n", query);
    for (const char* scheme : {"MeanSum", "BestSumMinDist", "EventModel"}) {
      auto result = engine.Search(query, scheme);
      if (!result.ok()) {
        std::printf("  %s: error %s\n", scheme,
                    result.status().ToString().c_str());
        continue;
      }
      std::printf("  %-16s %4zu hits  [%s]\n", scheme,
                  result->results.size(),
                  result->applied_optimizations.c_str());
      for (size_t i = 0; i < std::min<size_t>(3, result->results.size());
           ++i) {
        std::printf("      doc %-6u %.4f\n", result->results[i].doc,
                    result->results[i].score);
      }
    }
    std::printf("\n");
  }

  // Top-k with early termination for an eligible scheme: MaxScore's
  // rank-join, bounded by term-level upper bounds alone and then by
  // per-block score ceilings, against the full match count.
  const char* text = "free software service";
  graft::core::SearchOptions full_options;
  full_options.allow_rank_processing = false;
  auto full = engine.Search(text, "Lucene", full_options);
  for (const bool block_max : {false, true}) {
    graft::core::SearchOptions options;
    options.top_k = 10;
    options.allow_block_max_pruning = block_max;
    auto top = engine.Search(text, "Lucene", options);
    if (!top.ok() || !full.ok()) continue;
    std::printf("rank-join top-10 for '%s' (Lucene, %s): scored %llu of "
                "%zu matches\n",
                text, block_max ? "block-max ceilings" : "term bounds",
                static_cast<unsigned long long>(top->exec_stats.docs_scored),
                full->results.size());
    if (block_max) continue;
    for (const graft::ma::ScoredDoc& hit : top->results) {
      std::printf("  doc %-6u %.4f\n", hit.doc, hit.score);
    }
  }
  return 0;
}
