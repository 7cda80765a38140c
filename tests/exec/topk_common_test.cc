// The shared machinery of the two top-k operators (exec/topk_common.h):
// the query-shape probe, the running top-k list and the column scorer;
// plus what sharing them promises — MaxScore and HRJN return the full
// engine's ranking prefix with identical score bits — MaxScore's gate,
// and the access counter HRJN reports.

#include "exec/topk_common.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/engine.h"
#include "exec/maxscore_topk.h"
#include "exec/rank_join.h"
#include "mcalc/parser.h"
#include "text/corpus.h"

namespace graft::exec {
namespace {

const index::InvertedIndex& CorpusIndex() {
  static const index::InvertedIndex& index = *[] {
    text::CorpusConfig config = text::WikipediaLikeConfig(3000, /*seed=*/13);
    index::IndexBuilder builder;
    text::CorpusGenerator generator(config);
    generator.Generate(
        [&builder](uint64_t, const std::vector<std::string_view>& tokens) {
          builder.AddDocument(tokens);
        });
    return new index::InvertedIndex(builder.Build());
  }();
  return index;
}

TEST(TopKShapeTest, ProbesPureKeywordConjunctionsAndDisjunctions) {
  struct Case {
    const char* text;
    topk::Shape shape;
    std::vector<std::string> keywords;
  };
  const Case cases[] = {
      // A single keyword processes as a conjunction of one column.
      {"service", topk::Shape::kConjunction, {"service"}},
      {"free software windows", topk::Shape::kConjunction,
       {"free", "software", "windows"}},
      {"free | software", topk::Shape::kDisjunction, {"free", "software"}},
      {"\"free software\"", topk::Shape::kUnsupported, {}},
      {"free (software | windows)", topk::Shape::kUnsupported, {}},
  };
  for (const Case& test_case : cases) {
    auto query = mcalc::ParseQuery(test_case.text);
    ASSERT_TRUE(query.ok()) << test_case.text;
    std::vector<const mcalc::Node*> keywords;
    EXPECT_EQ(topk::QueryShape(*query, &keywords), test_case.shape)
        << test_case.text;
    if (test_case.shape == topk::Shape::kUnsupported) continue;
    // Keyword order is the query's: the scorer folds columns in it.
    ASSERT_EQ(keywords.size(), test_case.keywords.size()) << test_case.text;
    for (size_t i = 0; i < keywords.size(); ++i) {
      EXPECT_EQ(keywords[i]->keyword, test_case.keywords[i])
          << test_case.text << " keyword " << i;
    }
  }
}

TEST(TopListTest, KeepsTheKBestInRankingOrder) {
  topk::TopList top(3);
  EXPECT_FALSE(top.full());
  EXPECT_EQ(top.Worst(), -std::numeric_limits<double>::infinity());

  EXPECT_EQ(top.Offer(/*doc=*/7, 1.0), 1u);
  EXPECT_EQ(top.Offer(/*doc=*/4, 3.0), 1u);
  EXPECT_FALSE(top.full());
  EXPECT_EQ(top.Worst(), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(top.Offer(/*doc=*/9, 2.0), 1u);
  EXPECT_TRUE(top.full());
  EXPECT_EQ(top.Worst(), 1.0);

  // A fourth candidate evicts the worst: insert + eviction.
  EXPECT_EQ(top.Offer(/*doc=*/2, 2.0), 2u);
  EXPECT_EQ(top.Worst(), 2.0);
  // Equal scores rank by ascending doc, so doc 5 beats doc 9 and evicts it.
  EXPECT_EQ(top.Offer(/*doc=*/5, 2.0), 2u);

  const std::vector<ma::ScoredDoc> docs = std::move(top).Take();
  ASSERT_EQ(docs.size(), 3u);
  EXPECT_EQ(docs[0].doc, 4u);
  EXPECT_EQ(docs[0].score, 3.0);
  EXPECT_EQ(docs[1].doc, 2u);
  EXPECT_EQ(docs[1].score, 2.0);
  EXPECT_EQ(docs[2].doc, 5u);
  EXPECT_EQ(docs[2].score, 2.0);
}

// The column scorer on its own reproduces every score of the full
// engine's ranking, conjunction (⊘) and disjunction (⊚, where a document
// may miss a column and scores the ∅ cell for it).
TEST(ColumnScorerTest, ScoresEqualTheFullEngineBitIdentically) {
  const index::InvertedIndex& index = CorpusIndex();
  const index::StatsView view(&index);
  core::Engine engine(&index);
  core::SearchOptions options;
  options.allow_rank_processing = false;
  for (const char* text : {"free software windows", "free | windows"}) {
    for (const char* name : {"AnySum", "AnyProd", "Lucene"}) {
      auto query = mcalc::ParseQuery(text);
      ASSERT_TRUE(query.ok());
      const sa::ScoringScheme* scheme =
          sa::SchemeRegistry::Global().Lookup(name);
      auto full = engine.SearchQuery(*query, *scheme, options);
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      ASSERT_FALSE(full->results.empty()) << text << " " << name;

      std::vector<const mcalc::Node*> keywords;
      const topk::Shape shape = topk::QueryShape(*query, &keywords);
      ASSERT_NE(shape, topk::Shape::kUnsupported);
      std::vector<TermId> terms;
      for (const mcalc::Node* keyword : keywords) {
        terms.push_back(index.LookupTerm(keyword->keyword));
        ASSERT_NE(terms.back(), kInvalidTerm) << keyword->keyword;
      }
      const topk::ColumnScorer scorer(&view, scheme, shape, terms);

      for (const ma::ScoredDoc& hit : full->results) {
        std::vector<uint32_t> tfs;
        for (const TermId term : terms) {
          const index::PostingList& list = index.postings(term);
          const size_t pos = list.GallopTo(0, hit.doc);
          tfs.push_back(pos < list.doc_count() && list.doc_at(pos) == hit.doc
                            ? list.tf_at(pos)
                            : 0);
        }
        EXPECT_EQ(scorer.Score(hit.doc, tfs), hit.score)
            << text << " " << name << " doc " << hit.doc;
      }
    }
  }
}

struct TopKCase {
  std::string query;
  std::string scheme;
};

class TopKExactnessTest : public ::testing::TestWithParam<TopKCase> {};

// Both operators score through the one ColumnScorer, so both must
// reproduce the optimized engine's full ranking prefix bit-identically:
// same docs, same score bits.
TEST_P(TopKExactnessTest, BothOperatorsEqualFullRankingPrefixBitIdentically) {
  const TopKCase& test_case = GetParam();
  auto query = mcalc::ParseQuery(test_case.query);
  ASSERT_TRUE(query.ok());
  const sa::ScoringScheme* scheme =
      sa::SchemeRegistry::Global().Lookup(test_case.scheme);
  ASSERT_NE(scheme, nullptr);
  ASSERT_TRUE(MaxScoreTopK::Supports(*query, *scheme, CorpusIndex(),
                                     /*overlay=*/nullptr));
  ASSERT_TRUE(TopKRankEngine::Supports(*query, *scheme));

  core::Engine engine(&CorpusIndex());
  core::SearchOptions options;
  options.allow_rank_processing = false;
  auto full = engine.SearchQuery(*query, *scheme, options);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  constexpr size_t kK = 10;
  const size_t expected = std::min(kK, full->results.size());

  TopKRankEngine hrjn(&CorpusIndex(), scheme);
  auto hrjn_top = hrjn.TopK(*query, kK);
  ASSERT_TRUE(hrjn_top.ok()) << hrjn_top.status().ToString();
  ASSERT_EQ(hrjn_top->size(), expected);

  MaxScoreTopK maxscore(&CorpusIndex(), scheme);
  auto maxscore_top = maxscore.TopK(*query, kK);
  ASSERT_TRUE(maxscore_top.ok()) << maxscore_top.status().ToString();
  ASSERT_EQ(maxscore_top->size(), expected);

  for (size_t i = 0; i < expected; ++i) {
    EXPECT_EQ((*hrjn_top)[i].doc, full->results[i].doc) << "HRJN rank " << i;
    EXPECT_EQ((*hrjn_top)[i].score, full->results[i].score)
        << "HRJN rank " << i;
    EXPECT_EQ((*maxscore_top)[i].doc, full->results[i].doc)
        << "MaxScore rank " << i;
    EXPECT_EQ((*maxscore_top)[i].score, full->results[i].score)
        << "MaxScore rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    EligibleSchemes, TopKExactnessTest,
    ::testing::Values(TopKCase{"free software", "AnySum"},
                      TopKCase{"free software", "AnyProd"},
                      TopKCase{"free software", "Lucene"},
                      TopKCase{"free software windows", "Lucene"},
                      TopKCase{"san francisco", "AnySum"},
                      TopKCase{"free | software | service", "AnySum"},
                      TopKCase{"fishing | hunting | dinosaur", "Lucene"},
                      TopKCase{"free | windows", "AnyProd"},
                      TopKCase{"service", "AnySum"},
                      TopKCase{"neverseenword free", "Lucene"},
                      TopKCase{"neverseenword | free", "Lucene"}));

TEST(MaxScoreGateTest, FollowsTheRankGatePlusIdempotence) {
  auto conjunctive = mcalc::ParseQuery("free software");
  auto disjunctive = mcalc::ParseQuery("free | software");
  auto with_predicate = mcalc::ParseQuery("\"free software\"");
  ASSERT_TRUE(conjunctive.ok());
  ASSERT_TRUE(disjunctive.ok());
  ASSERT_TRUE(with_predicate.ok());
  const index::InvertedIndex& index = CorpusIndex();
  const auto& registry = sa::SchemeRegistry::Global();

  // The licensed set is HRJN's: diagonal, monotone ⊘/⊚, idempotent ⊕ —
  // and each of these schemes is bounded, which MaxScore also needs.
  for (const char* name : {"AnySum", "AnyProd", "Lucene"}) {
    EXPECT_TRUE(MaxScoreTopK::Supports(*conjunctive, *registry.Lookup(name),
                                       index, /*overlay=*/nullptr))
        << name;
    EXPECT_TRUE(MaxScoreTopK::Supports(*disjunctive, *registry.Lookup(name),
                                       index, /*overlay=*/nullptr))
        << name;
  }
  for (const char* name : {"SumBest", "EventModel", "BestSumMinDist",
                           "JoinNormalized", "MeanSum"}) {
    EXPECT_FALSE(MaxScoreTopK::Supports(*conjunctive, *registry.Lookup(name),
                                        index, /*overlay=*/nullptr))
        << name;
  }

  // The verdicts are EXPLAIN text, not just booleans.
  const sa::ScoringScheme& anysum = *registry.Lookup("AnySum");
  EXPECT_NE(MaxScoreTopK::GateVerdict(*conjunctive,
                                      *registry.Lookup("MeanSum"), index,
                                      /*overlay=*/nullptr)
                .find("blocked by gate"),
            std::string::npos);
  EXPECT_NE(MaxScoreTopK::GateVerdict(*with_predicate, anysum, index,
                                      /*overlay=*/nullptr)
                .find("not a pure keyword"),
            std::string::npos);
  // Ceilings are evaluated at query time through the scoring StatsView,
  // so an empty or collection-level overlay (the router's pinned N, total
  // words, df/cf) leaves an otherwise licensed query licensed ...
  index::StatsOverlay overlay;
  EXPECT_EQ(MaxScoreTopK::GateVerdict(*conjunctive, anysum, index, &overlay),
            "");
  overlay.SetCollectionSize(index.doc_count() * 3);
  overlay.SetTotalWords(12345);
  overlay.SetDocFreq("free", 2);
  overlay.SetCollectionFreq("free", 7);
  EXPECT_EQ(MaxScoreTopK::GateVerdict(*conjunctive, anysum, index, &overlay),
            "");
  EXPECT_EQ(MaxScoreTopK::GateVerdict(*disjunctive, anysum, index, &overlay),
            "");
  // ... while a per-document override makes the stored (tf, doc length)
  // frontier points stand for statistics no document has, so it blocks.
  index::StatsOverlay doc_lengths = overlay;
  doc_lengths.SetDocLength(0, 1);
  EXPECT_EQ(
      MaxScoreTopK::GateVerdict(*conjunctive, anysum, index, &doc_lengths),
      "blocked: stats overlay overrides per-document statistics");
}

TEST(MaxScoreGateTest, BlockedRunReturnsFailedPrecondition) {
  auto query = mcalc::ParseQuery("free software");
  auto phrase = mcalc::ParseQuery("\"free software\"");
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(phrase.ok());
  const auto& registry = sa::SchemeRegistry::Global();
  MaxScoreTopK meansum(&CorpusIndex(), registry.Lookup("MeanSum"));
  EXPECT_EQ(meansum.TopK(*query, 10).status().code(),
            StatusCode::kFailedPrecondition);
  MaxScoreTopK anysum(&CorpusIndex(), registry.Lookup("AnySum"));
  EXPECT_EQ(anysum.TopK(*phrase, 10).status().code(),
            StatusCode::kFailedPrecondition);
  // The operator enforces the overlay half of the gate itself.
  index::StatsOverlay doc_lengths;
  doc_lengths.SetDocLength(0, 1);
  MaxScoreTopK overridden(&CorpusIndex(), registry.Lookup("AnySum"),
                          &doc_lengths);
  EXPECT_EQ(overridden.TopK(*query, 10).status().code(),
            StatusCode::kFailedPrecondition);
}

// HRJN's one access counter: the sorted-stream entries it pulled, which
// the engine reports as ExecStats::topk_sorted_accesses.
TEST(TopKAccessModelTest, HrjnReportsEntriesPulledAsSortedAccesses) {
  auto query = mcalc::ParseQuery("free software");
  ASSERT_TRUE(query.ok());
  const sa::ScoringScheme* scheme =
      sa::SchemeRegistry::Global().Lookup("Lucene");

  TopKRankEngine hrjn(&CorpusIndex(), scheme);
  auto top = hrjn.TopK(*query, 5);
  ASSERT_TRUE(top.ok());
  const RankStats& stats = hrjn.stats();
  EXPECT_GT(stats.entries_pulled, 0u);
  // The threshold stop must beat full exhaustion on a selective top-5.
  EXPECT_GT(stats.entries_pruned(), 0u);

  core::Engine engine(&CorpusIndex());
  core::SearchOptions options;
  options.top_k = 5;
  options.allow_block_max_pruning = false;  // HRJN serves
  auto result = engine.SearchQuery(*query, *scheme, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->topk_operator, "hrjn");
  EXPECT_EQ(result->exec_stats.topk_sorted_accesses, stats.entries_pulled);
  ASSERT_EQ(result->results.size(), top->size());
  for (size_t i = 0; i < top->size(); ++i) {
    EXPECT_EQ(result->results[i].doc, (*top)[i].doc) << "rank " << i;
    EXPECT_EQ(result->results[i].score, (*top)[i].score) << "rank " << i;
  }
}

}  // namespace
}  // namespace graft::exec
