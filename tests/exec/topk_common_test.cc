// The top-k operator's shared machinery (exec/topk_common.h): the
// query-shape probe, the running top-k list and the column scorer; plus
// what MaxScore promises under both bounds, block-max ceilings and term
// bounds alone — the full engine's ranking prefix with identical score
// bits, the k edge cases, absent terms, the term-bound early stop — and
// its gate, on its own and as the engine's rank-join / rank-union path.

#include "exec/topk_common.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/engine.h"
#include "exec/maxscore_topk.h"
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
          tfs.push_back(index.TermFreqInDoc(term, hit.doc));
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

// Both bound modes score through the one ColumnScorer, so both must
// reproduce the optimized engine's full ranking prefix bit-identically:
// same docs, same score bits.
TEST_P(TopKExactnessTest, BothModesEqualFullRankingPrefixBitIdentically) {
  const TopKCase& test_case = GetParam();
  auto query = mcalc::ParseQuery(test_case.query);
  ASSERT_TRUE(query.ok());
  const sa::ScoringScheme* scheme =
      sa::SchemeRegistry::Global().Lookup(test_case.scheme);
  ASSERT_NE(scheme, nullptr);
  ASSERT_TRUE(MaxScoreTopK::Supports(*query, *scheme, /*overlay=*/nullptr));

  core::Engine engine(&CorpusIndex());
  core::SearchOptions options;
  options.allow_rank_processing = false;
  auto full = engine.SearchQuery(*query, *scheme, options);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  constexpr size_t kK = 10;
  const size_t expected = std::min(kK, full->results.size());
  for (const bool block_max : {true, false}) {
    SCOPED_TRACE(block_max ? "block-max" : "term-bound");
    MaxScoreTopK op(&CorpusIndex(), scheme, /*overlay=*/nullptr, {},
                    block_max);
    auto top = op.TopK(*query, kK);
    ASSERT_TRUE(top.ok()) << top.status().ToString();
    ASSERT_EQ(top->size(), expected);
    for (size_t i = 0; i < expected; ++i) {
      EXPECT_EQ((*top)[i].doc, full->results[i].doc) << "rank " << i;
      EXPECT_EQ((*top)[i].score, full->results[i].score) << "rank " << i;
    }
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
                      TopKCase{"neverseenword | free", "Lucene"},
                      TopKCase{"free | windows", "Lucene"}));

TEST(MaxScoreGateTest, FollowsTheRankGatePlusIdempotence) {
  auto conjunctive = mcalc::ParseQuery("free software");
  auto disjunctive = mcalc::ParseQuery("free | software");
  auto with_predicate = mcalc::ParseQuery("\"free software\"");
  ASSERT_TRUE(conjunctive.ok());
  ASSERT_TRUE(disjunctive.ok());
  ASSERT_TRUE(with_predicate.ok());
  const index::InvertedIndex& index = CorpusIndex();
  const auto& registry = sa::SchemeRegistry::Global();

  // The licensed set is the Table-1 rank gate's (diagonal, monotone ⊘/⊚)
  // narrowed to idempotent ⊕ — and each of these schemes is bounded,
  // which the ceilings also need. JoinNormalized and MeanSum pass the
  // rank gate, but their ⊕ accumulates multiplicities no single α bounds.
  for (const char* name : {"AnySum", "AnyProd", "Lucene"}) {
    EXPECT_TRUE(MaxScoreTopK::Supports(*conjunctive, *registry.Lookup(name),
                                       /*overlay=*/nullptr))
        << name;
    EXPECT_TRUE(MaxScoreTopK::Supports(*disjunctive, *registry.Lookup(name),
                                       /*overlay=*/nullptr))
        << name;
  }
  for (const char* name : {"SumBest", "EventModel", "BestSumMinDist",
                           "JoinNormalized", "MeanSum"}) {
    EXPECT_FALSE(MaxScoreTopK::Supports(*conjunctive, *registry.Lookup(name),
                                        /*overlay=*/nullptr))
        << name;
    EXPECT_FALSE(MaxScoreTopK::Supports(*disjunctive, *registry.Lookup(name),
                                        /*overlay=*/nullptr))
        << name;
  }

  // The verdicts are EXPLAIN text, not just booleans.
  const sa::ScoringScheme& anysum = *registry.Lookup("AnySum");
  EXPECT_NE(MaxScoreTopK::GateVerdict(*conjunctive,
                                      *registry.Lookup("MeanSum"),
                                      /*overlay=*/nullptr)
                .find("blocked by gate"),
            std::string::npos);
  // Positional predicates always disqualify.
  EXPECT_NE(MaxScoreTopK::GateVerdict(*with_predicate, anysum,
                                      /*overlay=*/nullptr)
                .find("not a pure keyword"),
            std::string::npos);
  // Ceilings are evaluated at query time through the scoring StatsView,
  // so an empty or collection-level overlay (the router's pinned N, total
  // words, df/cf) leaves an otherwise licensed query licensed ...
  index::StatsOverlay overlay;
  EXPECT_EQ(MaxScoreTopK::GateVerdict(*conjunctive, anysum, &overlay), "");
  overlay.SetCollectionSize(index.doc_count() * 3);
  overlay.SetTotalWords(12345);
  overlay.SetDocFreq("free", 2);
  overlay.SetCollectionFreq("free", 7);
  EXPECT_EQ(MaxScoreTopK::GateVerdict(*conjunctive, anysum, &overlay), "");
  EXPECT_EQ(MaxScoreTopK::GateVerdict(*disjunctive, anysum, &overlay), "");
  // ... while a per-document override makes the stored (tf, doc length)
  // frontier points stand for statistics no document has, so it blocks.
  index::StatsOverlay doc_lengths = overlay;
  doc_lengths.SetDocLength(0, 1);
  EXPECT_EQ(MaxScoreTopK::GateVerdict(*conjunctive, anysum, &doc_lengths),
            "blocked: stats overlay overrides per-document statistics");
}

// The operator enforces its gate itself, under either bound.
TEST(MaxScoreGateTest, BlockedRunReturnsFailedPrecondition) {
  auto query = mcalc::ParseQuery("free software");
  auto phrase = mcalc::ParseQuery("\"free software\"");
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(phrase.ok());
  const auto& registry = sa::SchemeRegistry::Global();
  index::StatsOverlay doc_lengths;
  doc_lengths.SetDocLength(0, 1);
  for (const bool block_max : {true, false}) {
    SCOPED_TRACE(block_max ? "block-max" : "term-bound");
    for (const char* name : {"BestSumMinDist", "MeanSum"}) {
      MaxScoreTopK ineligible(&CorpusIndex(), registry.Lookup(name),
                              /*overlay=*/nullptr, {}, block_max);
      EXPECT_EQ(ineligible.TopK(*query, 10).status().code(),
                StatusCode::kFailedPrecondition)
          << name;
    }
    MaxScoreTopK anysum(&CorpusIndex(), registry.Lookup("AnySum"),
                        /*overlay=*/nullptr, {}, block_max);
    EXPECT_EQ(anysum.TopK(*phrase, 10).status().code(),
              StatusCode::kFailedPrecondition);
    MaxScoreTopK overridden(&CorpusIndex(), registry.Lookup("AnySum"),
                            &doc_lengths, {}, block_max);
    EXPECT_EQ(overridden.TopK(*query, 10).status().code(),
              StatusCode::kFailedPrecondition);
  }
}

// The engine's rank-join / rank-union path follows the Table-1 gate: with
// block-max pruning off, a licensed top-k query runs the term-bound
// operator, and an unlicensed one falls back to full ranking + truncate.
// Either way the result is the full ranking's prefix.
TEST(RankJoinGateTest, SupportsFollowsTable1) {
  struct Case {
    const char* text;
    const char* scheme;
    bool licensed;
  };
  const Case cases[] = {
      {"free software", "AnySum", true},
      {"free software", "Lucene", true},
      {"free software", "SumBest", false},
      {"free software", "EventModel", false},
      {"free software", "BestSumMinDist", false},
      {"free software", "JoinNormalized", false},
      {"free software", "MeanSum", false},
      // Positional predicates always disqualify.
      {"\"free software\"", "AnySum", false},
      // Disjunction: the rank-union gate.
      {"free | software", "AnySum", true},
      {"free | software", "SumBest", false},
  };
  core::Engine engine(&CorpusIndex());
  for (const Case& test_case : cases) {
    SCOPED_TRACE(std::string(test_case.text) + " " + test_case.scheme);
    auto query = mcalc::ParseQuery(test_case.text);
    ASSERT_TRUE(query.ok());
    const sa::ScoringScheme* scheme =
        sa::SchemeRegistry::Global().Lookup(test_case.scheme);
    ASSERT_NE(scheme, nullptr);
    EXPECT_EQ(MaxScoreTopK::Supports(*query, *scheme, /*overlay=*/nullptr),
              test_case.licensed);

    core::SearchOptions options;
    options.top_k = 10;
    options.allow_block_max_pruning = false;
    auto top = engine.SearchQuery(*query, *scheme, options);
    ASSERT_TRUE(top.ok()) << top.status();
    EXPECT_EQ(top->used_rank_processing, test_case.licensed);
    EXPECT_FALSE(top->used_block_max_pruning);

    core::SearchOptions full_options;
    full_options.allow_rank_processing = false;
    auto full = engine.SearchQuery(*query, *scheme, full_options);
    ASSERT_TRUE(full.ok()) << full.status();
    ASSERT_EQ(top->results.size(), std::min<size_t>(10, full->results.size()));
    for (size_t i = 0; i < top->results.size(); ++i) {
      EXPECT_EQ(top->results[i].doc, full->results[i].doc) << "rank " << i;
      EXPECT_EQ(top->results[i].score, full->results[i].score) << "rank " << i;
    }
  }
}

class RankExactnessTest : public ::testing::TestWithParam<TopKCase> {};

// End to end through Engine::SearchQuery: a top-k request with block-max
// pruning off takes the term-bound rank path and returns the full
// ranking's prefix with identical score bits.
TEST_P(RankExactnessTest, TopKEqualsFullRankingPrefix) {
  const TopKCase& test_case = GetParam();
  auto query = mcalc::ParseQuery(test_case.query);
  ASSERT_TRUE(query.ok());
  const sa::ScoringScheme* scheme =
      sa::SchemeRegistry::Global().Lookup(test_case.scheme);
  ASSERT_NE(scheme, nullptr);

  core::Engine engine(&CorpusIndex());
  core::SearchOptions full_options;
  full_options.allow_rank_processing = false;
  auto full = engine.SearchQuery(*query, *scheme, full_options);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  constexpr size_t kK = 10;
  core::SearchOptions options;
  options.top_k = kK;
  options.allow_block_max_pruning = false;
  auto top = engine.SearchQuery(*query, *scheme, options);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_TRUE(top->used_rank_processing);
  EXPECT_FALSE(top->used_block_max_pruning);

  const size_t expected = std::min(kK, full->results.size());
  ASSERT_EQ(top->results.size(), expected);
  for (size_t i = 0; i < expected; ++i) {
    EXPECT_EQ(top->results[i].doc, full->results[i].doc) << "rank " << i;
    EXPECT_EQ(top->results[i].score, full->results[i].score) << "rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    EligibleSchemes, RankExactnessTest,
    ::testing::Values(TopKCase{"free software", "AnySum"},
                      TopKCase{"free software", "Lucene"},
                      TopKCase{"free software windows", "Lucene"},
                      TopKCase{"san francisco", "AnySum"},
                      TopKCase{"free | software | service", "AnySum"},
                      TopKCase{"fishing | hunting | dinosaur", "Lucene"},
                      TopKCase{"free | windows", "Lucene"},
                      TopKCase{"service", "AnySum"}));

TEST(MaxScoreTest, AbsentTermEmptyConjunction) {
  auto query = mcalc::ParseQuery("free nosuchtermever");
  ASSERT_TRUE(query.ok());
  const sa::ScoringScheme* scheme =
      sa::SchemeRegistry::Global().Lookup("AnySum");
  for (const bool block_max : {true, false}) {
    MaxScoreTopK op(&CorpusIndex(), scheme, /*overlay=*/nullptr, {},
                    block_max);
    auto top = op.TopK(*query, 5);
    ASSERT_TRUE(top.ok()) << top.status();
    EXPECT_TRUE(top->empty()) << (block_max ? "block-max" : "term-bound");
  }
}

// Term bounds alone stop early: on a top-5 disjunction of a rare and a
// frequent keyword, once the heap holds five rare-keyword documents the
// frequent keyword's term bound cannot lift a document past them, so its
// postings stop driving candidates and far fewer documents are scored
// than match the union. The term-bound mode charges no pruning counter.
TEST(MaxScoreTest, TermBoundStopsBeforeScoringTheWholeUnion) {
  auto query = mcalc::ParseQuery("inauguration | free");
  ASSERT_TRUE(query.ok());
  const sa::ScoringScheme* scheme =
      sa::SchemeRegistry::Global().Lookup("AnySum");
  core::Engine engine(&CorpusIndex());
  core::SearchOptions options;
  options.allow_rank_processing = false;
  auto full = engine.SearchQuery(*query, *scheme, options);
  ASSERT_TRUE(full.ok()) << full.status();

  constexpr size_t kK = 5;
  MaxScoreTopK op(&CorpusIndex(), scheme, /*overlay=*/nullptr, {},
                  /*block_max=*/false);
  auto top = op.TopK(*query, kK);
  ASSERT_TRUE(top.ok()) << top.status();
  ASSERT_EQ(top->size(), kK);
  for (size_t i = 0; i < kK; ++i) {
    EXPECT_EQ((*top)[i].doc, full->results[i].doc) << "rank " << i;
    EXPECT_EQ((*top)[i].score, full->results[i].score) << "rank " << i;
  }
  const ExecStats& stats = op.stats();
  EXPECT_GT(stats.docs_scored, 0u);
  EXPECT_LT(stats.docs_scored, full->results.size());
  EXPECT_EQ(stats.topk_blocks_skipped, 0u);
  EXPECT_EQ(stats.topk_ceiling_probes, 0u);
}

// k == 0 asks for nothing and must return nothing, without touching the
// (empty) top-k list's k-th entry; k beyond the match count returns every
// match. Both bound modes, conjunction and disjunction.
TEST(TopKEdgeCaseTest, ZeroKAndOversizedK) {
  const sa::ScoringScheme* scheme =
      sa::SchemeRegistry::Global().Lookup("AnySum");
  core::Engine engine(&CorpusIndex());
  core::SearchOptions options;
  options.allow_rank_processing = false;
  for (const char* text : {"free software", "free | software"}) {
    auto query = mcalc::ParseQuery(text);
    ASSERT_TRUE(query.ok());
    ASSERT_TRUE(MaxScoreTopK::Supports(*query, *scheme, /*overlay=*/nullptr));
    auto full = engine.SearchQuery(*query, *scheme, options);
    ASSERT_TRUE(full.ok());
    ASSERT_FALSE(full->results.empty()) << text;
    const size_t oversized = full->results.size() + 100;

    for (const bool block_max : {true, false}) {
      const char* mode = block_max ? "block-max" : "term-bound";
      MaxScoreTopK op(&CorpusIndex(), scheme, /*overlay=*/nullptr, {},
                      block_max);
      auto empty = op.TopK(*query, 0);
      ASSERT_TRUE(empty.ok()) << mode << " " << text;
      EXPECT_TRUE(empty->empty()) << mode << " " << text;

      auto all = op.TopK(*query, oversized);
      ASSERT_TRUE(all.ok()) << mode << " " << text;
      ASSERT_EQ(all->size(), full->results.size()) << mode << " " << text;
      for (size_t i = 0; i < all->size(); ++i) {
        EXPECT_EQ((*all)[i].doc, full->results[i].doc) << mode << " " << i;
        EXPECT_EQ((*all)[i].score, full->results[i].score)
            << mode << " " << i;
      }
    }
  }
}

}  // namespace
}  // namespace graft::exec
