// Top-k rank-join / rank-union: gating, exactness against the full
// engine's ranking, and early termination; plus the k edge cases of both
// top-k operators (HRJN and block-max pruned MaxScore).

#include "exec/rank_join.h"

#include <gtest/gtest.h>

#include <cmath>

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

TEST(RankJoinGateTest, SupportsFollowsTable1) {
  auto conjunctive = mcalc::ParseQuery("free software");
  auto disjunctive = mcalc::ParseQuery("free | software");
  auto with_predicate = mcalc::ParseQuery("\"free software\"");
  ASSERT_TRUE(conjunctive.ok());
  ASSERT_TRUE(disjunctive.ok());
  ASSERT_TRUE(with_predicate.ok());

  const auto& registry = sa::SchemeRegistry::Global();
  // Diagonal + monotone ⊘ + idempotent ⊕ (the implementation's threshold
  // bound requirement): rank-join eligible.
  for (const char* name : {"AnySum", "Lucene"}) {
    EXPECT_TRUE(TopKRankEngine::Supports(*conjunctive,
                                         *registry.Lookup(name)))
        << name;
  }
  // Column-first / row-first schemes: not eligible. JoinNormalized and
  // MeanSum pass the Table-1 gate but their ⊕ accumulates multiplicities,
  // which the TA-style bounds cannot cover.
  for (const char* name : {"SumBest", "EventModel", "BestSumMinDist",
                           "JoinNormalized", "MeanSum"}) {
    EXPECT_FALSE(TopKRankEngine::Supports(*conjunctive,
                                          *registry.Lookup(name)))
        << name;
  }
  // Positional predicates always disqualify.
  EXPECT_FALSE(TopKRankEngine::Supports(*with_predicate,
                                        *registry.Lookup("AnySum")));
  // Disjunction: rank-union gate.
  EXPECT_TRUE(TopKRankEngine::Supports(*disjunctive,
                                       *registry.Lookup("AnySum")));
  EXPECT_FALSE(TopKRankEngine::Supports(*disjunctive,
                                        *registry.Lookup("SumBest")));
}

struct RankCase {
  std::string query;
  std::string scheme;
};

class RankExactnessTest : public ::testing::TestWithParam<RankCase> {};

TEST_P(RankExactnessTest, TopKEqualsFullRankingPrefix) {
  const RankCase& test_case = GetParam();
  auto query = mcalc::ParseQuery(test_case.query);
  ASSERT_TRUE(query.ok());
  const sa::ScoringScheme* scheme =
      sa::SchemeRegistry::Global().Lookup(test_case.scheme);
  ASSERT_NE(scheme, nullptr);

  // Full ranking from the regular optimized engine.
  core::Engine engine(&CorpusIndex());
  core::SearchOptions options;
  options.allow_rank_processing = false;
  auto full = engine.SearchQuery(*query, *scheme, options);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  TopKRankEngine rank_engine(&CorpusIndex(), scheme);
  constexpr size_t kK = 10;
  auto top = rank_engine.TopK(*query, kK);
  ASSERT_TRUE(top.ok()) << top.status().ToString();

  const size_t expected = std::min(kK, full->results.size());
  ASSERT_EQ(top->size(), expected);
  for (size_t i = 0; i < expected; ++i) {
    EXPECT_EQ((*top)[i].doc, full->results[i].doc) << "rank " << i;
    EXPECT_NEAR((*top)[i].score, full->results[i].score,
                1e-7 * std::max(1.0, std::fabs(full->results[i].score)))
        << "rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    EligibleSchemes, RankExactnessTest,
    ::testing::Values(RankCase{"free software", "AnySum"},
                      RankCase{"free software", "Lucene"},
                      RankCase{"free software windows", "Lucene"},
                      RankCase{"san francisco", "AnySum"},
                      RankCase{"free | software | service", "AnySum"},
                      RankCase{"fishing | hunting | dinosaur", "Lucene"},
                      RankCase{"free | windows", "Lucene"},
                      RankCase{"service", "AnySum"}));

TEST(RankJoinTest, EarlyTerminationOnSelectiveQueries) {
  auto query = mcalc::ParseQuery("free software");
  ASSERT_TRUE(query.ok());
  const sa::ScoringScheme* scheme =
      sa::SchemeRegistry::Global().Lookup("Lucene");
  TopKRankEngine rank_engine(&CorpusIndex(), scheme);
  auto top = rank_engine.TopK(*query, 5);
  ASSERT_TRUE(top.ok());
  const RankStats& stats = rank_engine.stats();
  // The threshold must fire before every candidate is examined.
  EXPECT_GT(stats.total_candidates, 0u);
  EXPECT_LT(stats.candidates_scored, stats.total_candidates);
}

TEST(RankJoinTest, RejectsIneligibleScheme) {
  auto query = mcalc::ParseQuery("free software");
  ASSERT_TRUE(query.ok());
  for (const char* name : {"BestSumMinDist", "MeanSum"}) {
    const sa::ScoringScheme* scheme =
        sa::SchemeRegistry::Global().Lookup(name);
    TopKRankEngine rank_engine(&CorpusIndex(), scheme);
    EXPECT_EQ(rank_engine.TopK(*query, 5).status().code(),
              StatusCode::kFailedPrecondition)
        << name;
  }
}

TEST(RankJoinTest, AbsentTermEmptyConjunction) {
  auto query = mcalc::ParseQuery("free nosuchtermever");
  ASSERT_TRUE(query.ok());
  const sa::ScoringScheme* scheme =
      sa::SchemeRegistry::Global().Lookup("AnySum");
  TopKRankEngine rank_engine(&CorpusIndex(), scheme);
  auto top = rank_engine.TopK(*query, 5);
  ASSERT_TRUE(top.ok());
  EXPECT_TRUE(top->empty());
}

// k == 0 asks for nothing and must return nothing, without touching the
// (empty) top-k list's k-th entry; k beyond the match count returns every
// match. Both operators, conjunction and disjunction.
TEST(TopKEdgeCaseTest, ZeroKAndOversizedK) {
  const sa::ScoringScheme* scheme =
      sa::SchemeRegistry::Global().Lookup("AnySum");
  core::Engine engine(&CorpusIndex());
  core::SearchOptions options;
  options.allow_rank_processing = false;
  for (const char* text : {"free software", "free | software"}) {
    auto query = mcalc::ParseQuery(text);
    ASSERT_TRUE(query.ok());
    ASSERT_TRUE(MaxScoreTopK::Supports(*query, *scheme, CorpusIndex(),
                                       /*overlay=*/nullptr));
    auto full = engine.SearchQuery(*query, *scheme, options);
    ASSERT_TRUE(full.ok());
    ASSERT_FALSE(full->results.empty()) << text;
    const size_t oversized = full->results.size() + 100;

    const auto check = [&](const char* name, auto&& top_k) {
      auto empty = top_k(0);
      ASSERT_TRUE(empty.ok()) << name << " " << text;
      EXPECT_TRUE(empty->empty()) << name << " " << text;

      auto all = top_k(oversized);
      ASSERT_TRUE(all.ok()) << name << " " << text;
      ASSERT_EQ(all->size(), full->results.size()) << name << " " << text;
      for (size_t i = 0; i < all->size(); ++i) {
        EXPECT_EQ((*all)[i].doc, full->results[i].doc) << name << " " << i;
        EXPECT_EQ((*all)[i].score, full->results[i].score)
            << name << " " << i;
      }
    };
    TopKRankEngine hrjn(&CorpusIndex(), scheme);
    check("hrjn", [&](size_t k) { return hrjn.TopK(*query, k); });
    MaxScoreTopK maxscore(&CorpusIndex(), scheme);
    check("maxscore", [&](size_t k) { return maxscore.TopK(*query, k); });
  }
}

}  // namespace
}  // namespace graft::exec
