// Golden snapshot tests for EXPLAIN: the static plan rendering (query, Φ,
// scheme, the full rewrite-attempt table with gate verdicts, cost estimate,
// physical plan) is compared byte-for-byte against checked-in snapshots in
// tests/golden/. Only Engine::Explain is snapshotted — EXPLAIN ANALYZE
// carries timings, which cannot be golden.
//
// To regenerate after an intentional plan/format change:
//
//   ./graft_tests --update-golden --gtest_filter='ExplainGolden*'
//   (or GRAFT_UPDATE_GOLDEN=1 ./graft_tests ...)
//
// then review the snapshot diff like any other code change. The corpus is
// five hand-written documents, so every golden is small enough to read in
// review and the cost estimates are stable.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "index/inverted_index.h"
#include "text/tokenizer.h"

#ifndef GRAFT_TEST_GOLDEN_DIR
#error "GRAFT_TEST_GOLDEN_DIR must point at tests/golden"
#endif

namespace graft::core {
namespace {

bool UpdateGoldenRequested() {
  if (const char* env = std::getenv("GRAFT_UPDATE_GOLDEN");
      env != nullptr && *env != '\0' && std::string(env) != "0") {
    return true;
  }
  // gtest ignores flags it does not recognize, so --update-golden survives
  // in the command line; read it back from /proc (this repo is linux-only).
  std::ifstream cmdline("/proc/self/cmdline", std::ios::binary);
  std::stringstream buffer;
  buffer << cmdline.rdbuf();
  const std::string args = buffer.str();  // NUL-separated argv
  return args.find("--update-golden") != std::string::npos;
}

const index::InvertedIndex& GoldenIndex() {
  static const index::InvertedIndex& index = *[] {
    // Fixed micro-corpus covering the query vocabulary: term frequencies
    // (and therefore cost estimates and join orders) are part of the
    // snapshot contract.
    const char* docs[] = {
        "free software foundation ships free software for windows users",
        "the windows emulator runs free software on any machine",
        "foss means free and open software the emulator is foss",
        "windows users install the emulator to try foss software",
        "software engineering notes nothing about emulators or windows",
    };
    auto* built = new index::InvertedIndex([&] {
      index::IndexBuilder builder;
      for (const char* doc : docs) {
        builder.AddDocumentStrings(text::Tokenize(doc));
      }
      return builder.Build();
    }());
    return built;
  }();
  return index;
}

const Engine& GoldenEngine() {
  static const Engine engine(&GoldenIndex());
  return engine;
}

std::string GoldenPath(const std::string& name) {
  return std::string(GRAFT_TEST_GOLDEN_DIR) + "/" + name + ".txt";
}

void CheckGolden(const std::string& name, const std::string& query,
                 const std::string& scheme,
                 const SearchOptions& options = {}) {
  auto rendered = GoldenEngine().Explain(query, scheme, options);
  ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();

  const std::string path = GoldenPath(name);
  if (UpdateGoldenRequested()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << *rendered;
    ASSERT_TRUE(out.good()) << "short write to " << path;
    std::fprintf(stderr, "[golden] updated %s\n", path.c_str());
    return;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden " << path
      << " — run graft_tests --update-golden (or GRAFT_UPDATE_GOLDEN=1) "
         "to create it, then check it in";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string expected = buffer.str();
  EXPECT_EQ(*rendered, expected)
      << "EXPLAIN output drifted from " << path
      << " — if the change is intentional, regenerate with "
         "--update-golden and review the diff";
}

// One query per optimizer regime (the header comment of optimizer.h):
// constant-scheme pre-counting, eager aggregation, eager counting,
// positional row-first, and a rank-eligible top-k shape.

TEST(ExplainGolden, ConjunctionMeanSum) {
  CheckGolden("explain_conjunction_meansum", "free software", "MeanSum");
}

TEST(ExplainGolden, ConjunctionAnySum) {
  CheckGolden("explain_conjunction_anysum", "free software", "AnySum");
}

TEST(ExplainGolden, DisjunctionLucene) {
  CheckGolden("explain_disjunction_lucene", "foss | (free software)",
              "Lucene");
}

TEST(ExplainGolden, WindowBestSumMinDist) {
  CheckGolden("explain_window_bestsumdist", "(windows emulator)WINDOW[50]",
              "BestSumMinDist");
}

TEST(ExplainGolden, NegationEventModel) {
  CheckGolden("explain_negation_eventmodel", "free software !windows",
              "EventModel");
}

TEST(ExplainGolden, PhraseSumBest) {
  CheckGolden("explain_phrase_sumbest",
              "\"free software\" (foss | emulator)", "SumBest");
}

// Top-k plans: the strategy line and the block-max prune gate verdict are
// part of the snapshot. AnySum is fully licensed (pruned plan); MeanSum is
// blocked on the bounded property (α not upper-boundable), so the same
// query falls back — the blocked verdict must appear in the rewrite table.

TEST(ExplainGolden, TopKPrunedAnySum) {
  SearchOptions options;
  options.top_k = 10;
  CheckGolden("explain_topk_pruned_anysum", "free software", "AnySum",
              options);
}

TEST(ExplainGolden, TopKBlockedMeanSum) {
  SearchOptions options;
  options.top_k = 10;
  CheckGolden("explain_topk_blocked_meansum", "free software", "MeanSum",
              options);
}

// A licensed scheme whose block-max pruning stands down: with pruning
// switched off, a conjunction runs MaxScore on term bounds and the
// strategy line carries the verdict; a request statistics overlay that
// overrides a per-document statistic (a doc length) sends a disjunction
// to full ranking + truncate. A collection-level overlay alone (the
// router's pinned statistics) keeps the pruned plan.

TEST(ExplainGolden, TopKRankJoinPruningOffAnySum) {
  SearchOptions options;
  options.top_k = 10;
  options.allow_block_max_pruning = false;
  CheckGolden("explain_topk_rankjoin_pruning_off_anysum", "free software",
              "AnySum", options);
}

TEST(ExplainGolden, TopKRankUnionStatsOverlayLucene) {
  index::StatsOverlay overlay;
  overlay.SetCollectionSize(1000);
  SearchOptions options;
  options.top_k = 10;
  options.stats_overlay = &overlay;
  CheckGolden("explain_topk_rankunion_overlay_lucene", "free | software",
              "Lucene", options);
}

TEST(ExplainGolden, TopKRankUnionDocOverlayLucene) {
  index::StatsOverlay overlay;
  overlay.SetCollectionSize(1000);
  overlay.SetDocLength(0, 3);
  SearchOptions options;
  options.top_k = 10;
  options.stats_overlay = &overlay;
  CheckGolden("explain_topk_rankunion_doc_overlay_lucene", "free | software",
              "Lucene", options);
}

}  // namespace
}  // namespace graft::core
