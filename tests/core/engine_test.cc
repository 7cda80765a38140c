// End-to-end engine tests over the synthetic corpus: the paper's Q4-Q11
// under every scheme, options handling, and API error paths.

#include "core/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include "core/canonical_plan.h"
#include "core/optimizer.h"
#include "core/rewrite_rules.h"
#include "index/index_io.h"
#include "mcalc/parser.h"
#include "text/corpus.h"
#include "text/tokenizer.h"

namespace graft::core {
namespace {

const index::InvertedIndex& CorpusIndex() {
  static const index::InvertedIndex& index = *[] {
    text::CorpusConfig config = text::WikipediaLikeConfig(1500, /*seed=*/3);
    for (auto& bundle : config.bundles) {
      bundle.doc_fraction = std::min(1.0, bundle.doc_fraction * 25);
    }
    for (auto& phrase : config.phrases) {
      phrase.doc_fraction = std::min(1.0, phrase.doc_fraction * 12);
    }
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

struct EngineCase {
  std::string query;
  std::string scheme;
};

class EngineSweepTest : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineSweepTest, SearchSucceedsAndRanksDescending) {
  Engine engine(&CorpusIndex());
  auto result = engine.Search(GetParam().query, GetParam().scheme);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (size_t i = 1; i < result->results.size(); ++i) {
    EXPECT_GE(result->results[i - 1].score, result->results[i].score);
  }
  EXPECT_FALSE(result->plan_text.empty());
  EXPECT_FALSE(result->applied_optimizations.empty());
}

std::vector<EngineCase> SweepCases() {
  std::vector<EngineCase> cases;
  for (const char* query : {
           "san francisco fault line",
           "dinosaur species list (image | picture | drawing | illustration)",
           "\"orange county convention center\" orlando",
           "\"san francisco\" \"fault line\"",
           "(windows emulator)WINDOW[50] (foss | \"free software\")",
           "(free wireless internet)PROXIMITY[10] service",
           "arizona ((fishing | hunting) (rules | regulations))WINDOW[20]",
           "\"rick warren\" (obama inauguration)PROXIMITY[4] "
           "(controversy invocation)PROXIMITY[15]",
       }) {
    for (const char* scheme :
         {"AnySum", "SumBest", "Lucene", "JoinNormalized", "MeanSum",
          "EventModel", "BestSumMinDist"}) {
      cases.push_back(EngineCase{query, scheme});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(PaperQueriesAllSchemes, EngineSweepTest,
                         ::testing::ValuesIn(SweepCases()));

TEST(EngineTest, SweepExecCountersPinned) {
  // Every ExecStats counter, summed over the sweep's 56 full-ranking
  // searches. perfbench reports exec.rows_built and exec.postings_scanned
  // from these counters, so a change to the streaming operators that is
  // meant to keep their work must leave every sum where it is.
  Engine engine(&CorpusIndex());
  exec::ExecStats total;
  for (const EngineCase& c : SweepCases()) {
    auto result = engine.Search(c.query, c.scheme);
    ASSERT_TRUE(result.ok()) << c.query << " / " << c.scheme;
    total.Accumulate(result->exec_stats);
  }
  const std::map<std::string, uint64_t> pinned = {
      {"docs_visited", 1232},    {"rows_built", 6733},
      {"positions_scanned", 5493}, {"count_entries_scanned", 2438},
      {"blocks_decoded", 4877},  {"gallop_probes", 42967},
      {"skip_calls", 13851},     {"skip_hits", 4277},
  };
  for (const exec::ExecCounter& counter : exec::kExecCounters) {
    const auto it = pinned.find(counter.name);
    // Full ranking runs no top-k operator and an in-heap index no cache.
    EXPECT_EQ(total.*counter.member, it == pinned.end() ? 0 : it->second)
        << counter.name;
  }
}

// FNV-1a over a string, as 16 hex digits.
std::string Digest(const std::string& text) {
  uint64_t hash = 14695981039346656037ull;
  for (const unsigned char c : text) {
    hash = (hash ^ c) * 1099511628211ull;
  }
  char out[17];
  std::snprintf(out, sizeof(out), "%016llx",
                static_cast<unsigned long long>(hash));
  return out;
}

TEST(EngineTest, SweepPlanTextPinned) {
  // One digest per option set over the sweep's queries × the eight built-in
  // schemes: the optimized plan's text, its applied list and its rewrite
  // table, or the canonical plan's text. A refactor of the plan builders
  // must leave every byte (and so every digest) where it is.
  std::vector<std::string> queries;
  for (const EngineCase& c : SweepCases()) {
    if (std::find(queries.begin(), queries.end(), c.query) == queries.end()) {
      queries.push_back(c.query);
    }
  }
  const char* const kSchemes[] = {"AnySum",  "AnyProd",        "SumBest",
                                  "Lucene",  "JoinNormalized", "EventModel",
                                  "MeanSum", "BestSumMinDist"};
  const RewriteRuleRegistry& registry = RewriteRuleRegistry::Global();
  std::vector<std::pair<std::string, OptimizerOptions>> option_sets = {
      {"default", OptimizerOptions{}}, {"all_off", registry.AllRulesOff()}};
  for (const RewriteRule& rule : registry.All()) {
    if (rule.stage == RuleStage::kPlan) {
      option_sets.emplace_back("only_" + rule.id,
                               registry.OnlyRuleOptions(rule));
    }
  }
  std::map<std::string, std::string> digests;
  std::string canonical_text;
  for (const auto& [name, options] : option_sets) {
    std::string text;
    for (const std::string& query_text : queries) {
      auto query = mcalc::ParseQuery(query_text);
      ASSERT_TRUE(query.ok()) << query_text;
      for (const char* scheme_name : kSchemes) {
        const sa::ScoringScheme* scheme =
            sa::SchemeRegistry::Global().Lookup(scheme_name);
        ASSERT_NE(scheme, nullptr) << scheme_name;
        auto plan = Optimizer(scheme, options).Optimize(*query, CorpusIndex());
        ASSERT_TRUE(plan.ok()) << query_text << " / " << scheme_name;
        text += ma::PlanToString(*plan->plan) + plan->AppliedToString() +
                "\n" + FormatRewriteAttempts(plan->attempts);
        if (name == "default") {
          auto canonical = BuildCanonicalPlan(*query, *scheme);
          ASSERT_TRUE(canonical.ok()) << query_text << " / " << scheme_name;
          ASSERT_TRUE(
              ma::ResolvePlan(canonical->plan.get(), CorpusIndex()).ok());
          canonical_text += ma::PlanToString(*canonical->plan);
        }
      }
    }
    digests[name] = Digest(text);
  }
  digests["canonical"] = Digest(canonical_text);
  const std::map<std::string, std::string> pinned = {
      {"all_off", "6406dc2568fea829"},
      {"canonical", "5a16fe55aa40a39d"},
      {"default", "ea7f6a36cbb1353e"},
      {"only_alternate_elimination", "c04c1a39c0cf2ced"},
      {"only_eager_aggregation", "5dae51f178b3edeb"},
      {"only_eager_counting", "31dc67c8efc49460"},
      {"only_forward_scan_join", "c04c1a39c0cf2ced"},
      {"only_join_reordering", "08cce9d7a043e831"},
      {"only_pre_counting", "740b181d4101d703"},
      {"only_selection_pushing", "459679e015f67e31"},
      {"only_sort_elimination", "4c3b3472cb7690e5"},
      {"only_zigzag_join", "6406dc2568fea829"},
  };
  EXPECT_EQ(digests.size(), pinned.size());
  for (const auto& [name, digest] : digests) {
    const auto it = pinned.find(name);
    EXPECT_EQ(digest, it == pinned.end() ? "" : it->second) << name;
  }
}

TEST(EngineTest, FrequentQueriesFindDocuments) {
  Engine engine(&CorpusIndex());
  auto result = engine.Search("san francisco fault line", "MeanSum");
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->results.size(), 0u);
}

TEST(EngineTest, UnknownSchemeRejected) {
  Engine engine(&CorpusIndex());
  EXPECT_EQ(engine.Search("free", "Mystery").status().code(),
            StatusCode::kNotFound);
}

TEST(EngineTest, MalformedQueryRejected) {
  Engine engine(&CorpusIndex());
  EXPECT_EQ(engine.Search("(a b", "AnySum").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, UnknownKeywordsYieldEmptyResults) {
  Engine engine(&CorpusIndex());
  auto result = engine.Search("zzzznonexistent free", "AnySum");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->results.empty());
}

TEST(EngineTest, TopKTrimsAndUsesRankProcessingWhenEligible) {
  Engine engine(&CorpusIndex());
  SearchOptions options;
  options.top_k = 3;
  auto result = engine.Search("free software", "Lucene", options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->results.size(), 3u);
  EXPECT_TRUE(result->used_rank_processing);

  // Ineligible scheme: same API, regular execution.
  auto sum_best = engine.Search("free software", "SumBest", options);
  ASSERT_TRUE(sum_best.ok());
  EXPECT_LE(sum_best->results.size(), 3u);
  EXPECT_FALSE(sum_best->used_rank_processing);

  // Rank processing can also be opted out.
  options.allow_rank_processing = false;
  auto opted_out = engine.Search("free software", "Lucene", options);
  ASSERT_TRUE(opted_out.ok());
  EXPECT_FALSE(opted_out->used_rank_processing);
}

TEST(EngineTest, PruningOffRunsTermBoundMaxScoreAndFiresRankRow) {
  // With block-max pruning switched off, a licensed top-k query still runs
  // MaxScore, bounded by term-level upper bounds only: the rank-join
  // (rank-union) row fires, the block-max row logs why it stood down, and
  // the ranking is the full ranking's prefix bit for bit.
  Engine engine(&CorpusIndex());
  for (const auto& [text, fired_id] :
       {std::pair<const char*, const char*>{"free software", "rank_join"},
        {"free | software", "rank_union"}}) {
    SCOPED_TRACE(text);
    SearchOptions options;
    options.top_k = 10;
    options.allow_block_max_pruning = false;
    auto result = engine.Search(text, "AnySum", options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->used_rank_processing);
    EXPECT_FALSE(result->used_block_max_pruning);
    EXPECT_EQ(result->exec_stats.topk_blocks_skipped, 0u);
    EXPECT_EQ(result->exec_stats.topk_ceiling_probes, 0u);

    const Optimization fired_opt = std::string(fired_id) == "rank_join"
                                       ? Optimization::kRankJoin
                                       : Optimization::kRankUnion;
    bool rank_row_fired = false;
    bool block_max_row_fired = true;
    for (const RewriteAttempt& attempt : result->rewrite_attempts) {
      if (attempt.opt == fired_opt) rank_row_fired = attempt.fired;
      if (attempt.opt == Optimization::kBlockMaxPruning) {
        block_max_row_fired = attempt.fired;
        EXPECT_EQ(attempt.verdict, "blocked: disabled by request options");
      }
    }
    EXPECT_TRUE(rank_row_fired);
    EXPECT_FALSE(block_max_row_fired);
    const auto& rules = RewriteRuleRegistry::Global().All();
    for (size_t i = 0; i < rules.size(); ++i) {
      EXPECT_EQ(result->exec_stats.rule_fired[i], rules[i].id == fired_id)
          << rules[i].id;
    }

    SearchOptions full_options;
    full_options.allow_rank_processing = false;
    auto full = engine.Search(text, "AnySum", full_options);
    ASSERT_TRUE(full.ok()) << full.status();
    ASSERT_EQ(result->results.size(),
              std::min<size_t>(10, full->results.size()));
    for (size_t i = 0; i < result->results.size(); ++i) {
      EXPECT_EQ(result->results[i].doc, full->results[i].doc) << "rank " << i;
      EXPECT_EQ(result->results[i].score, full->results[i].score)
          << "rank " << i;
    }
  }
}

TEST(EngineTest, ExplainNamesOperatorSearchRunsUnderRequestOverlay) {
  // A per-request overlay that overrides a per-document statistic leaves
  // no stored (tf, doc length) frontier point describing the document, so
  // MaxScore stands down and the query falls back to full ranking +
  // truncate. Explain must name the path Search runs under the same
  // options, not the one the engine's constructor overlay alone would
  // license.
  Engine engine(&CorpusIndex());
  index::StatsOverlay overlay;
  overlay.SetCollectionSize(CorpusIndex().doc_count());
  overlay.SetDocLength(0, CorpusIndex().doc_length(0));
  SearchOptions options;
  options.top_k = 10;
  options.stats_overlay = &overlay;

  auto result = engine.Search("free software", "AnySum", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->used_rank_processing);
  EXPECT_FALSE(result->used_block_max_pruning);
  auto explain = engine.Explain("free software", "AnySum", options);
  ASSERT_TRUE(explain.ok()) << explain.status();
  EXPECT_NE(explain->find("top-k strategy (k=10): full ranking + truncate "
                          "(blocked: stats overlay overrides per-document "
                          "statistics)\n"),
            std::string::npos)
      << *explain;

  // A collection-level overlay (the router's pinned statistics) keeps the
  // pruned operator: ceilings are evaluated through the same statistics.
  index::StatsOverlay pinned;
  pinned.SetCollectionSize(CorpusIndex().doc_count() * 3);
  pinned.SetDocFreq("free", 1);
  options.stats_overlay = &pinned;
  result = engine.Search("free software", "AnySum", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->used_rank_processing);
  EXPECT_TRUE(result->used_block_max_pruning);
  explain = engine.Explain("free software", "AnySum", options);
  ASSERT_TRUE(explain.ok()) << explain.status();
  EXPECT_NE(explain->find("top-k strategy (k=10): block-max pruned top-k\n"),
            std::string::npos)
      << *explain;

  // Without the overlay, both name the pruned operator.
  options.stats_overlay = nullptr;
  result = engine.Search("free software", "AnySum", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->used_block_max_pruning);
  explain = engine.Explain("free software", "AnySum", options);
  ASSERT_TRUE(explain.ok()) << explain.status();
  EXPECT_NE(explain->find("top-k strategy (k=10): block-max pruned top-k\n"),
            std::string::npos)
      << *explain;
}

TEST(EngineTest, CanonicalReferencePathAgreesWithOptimized) {
  Engine engine(&CorpusIndex());
  SearchOptions canonical;
  canonical.use_canonical_reference = true;
  auto slow = engine.Search("\"san francisco\" \"fault line\"", "SumBest",
                            canonical);
  auto fast = engine.Search("\"san francisco\" \"fault line\"", "SumBest");
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(fast.ok());
  ASSERT_EQ(slow->results.size(), fast->results.size());
  for (size_t i = 0; i < slow->results.size(); ++i) {
    EXPECT_EQ(slow->results[i].doc, fast->results[i].doc);
    EXPECT_NEAR(slow->results[i].score, fast->results[i].score, 1e-7);
  }
}

TEST(EngineTest, WorksOnReloadedIndex) {
  const std::string path = ::testing::TempDir() + "/graft_engine_test.idx";
  ASSERT_TRUE(index::SaveIndex(CorpusIndex(), path).ok());
  auto loaded = index::LoadIndex(path);
  ASSERT_TRUE(loaded.ok());

  Engine original(&CorpusIndex());
  Engine reloaded(&*loaded);
  auto a = original.Search("free software", "MeanSum");
  auto b = reloaded.Search("free software", "MeanSum");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->results.size(), b->results.size());
  for (size_t i = 0; i < a->results.size(); ++i) {
    EXPECT_EQ(a->results[i].doc, b->results[i].doc);
    EXPECT_NEAR(a->results[i].score, b->results[i].score, 1e-12);
  }
  std::remove(path.c_str());
}

TEST(EngineTest, UserDefinedSchemeRegistersAndSearches) {
  // Desideratum 4: plugging in a new scheme requires only the SA
  // operators and property declarations — the optimizer adapts by itself.
  class HarmonicScheme final : public sa::ScoringScheme {
   public:
    HarmonicScheme() {
      props_.direction = sa::Direction::kDiagonal;
      props_.alt = {true, true, true, false};
      props_.conj = {true, true, true, false};
      props_.disj = {true, true, true, false};
      props_.alt_multiplies = true;
    }
    std::string_view name() const override { return "TestHarmonic"; }
    const sa::SchemeProperties& properties() const override { return props_; }
    sa::InternalScore Init(const sa::DocContext& doc,
                           const sa::ColumnContext& col,
                           Offset offset) const override {
      if (offset == kEmptyOffset || col.doc_freq == 0) {
        return sa::InternalScore(0.0);
      }
      return sa::InternalScore(
          static_cast<double>(doc.collection_size) /
          static_cast<double>(col.doc_freq * (1 + doc.length)));
    }
    sa::InternalScore Conj(const sa::InternalScore& l,
                           const sa::InternalScore& r) const override {
      return sa::InternalScore(l.a + r.a);
    }
    sa::InternalScore Disj(const sa::InternalScore& l,
                           const sa::InternalScore& r) const override {
      return sa::InternalScore(l.a + r.a);
    }
    sa::InternalScore Alt(const sa::InternalScore& l,
                          const sa::InternalScore& r) const override {
      return sa::InternalScore(l.a + r.a);
    }
    sa::InternalScore Scale(const sa::InternalScore& s,
                            uint64_t k) const override {
      return sa::InternalScore(s.a * static_cast<double>(k));
    }
    double Finalize(const sa::DocContext&, const sa::QueryContext&,
                    const sa::InternalScore& s) const override {
      return s.a / (1.0 + s.a);
    }

   private:
    sa::SchemeProperties props_;
  };

  const Status registered = sa::SchemeRegistry::Global().Register(
      std::make_unique<HarmonicScheme>());
  ASSERT_TRUE(registered.ok() ||
              registered.code() == StatusCode::kAlreadyExists);

  Engine engine(&CorpusIndex());
  auto result = engine.Search("free software", "TestHarmonic");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Diagonal + associative ⊕: the optimizer picked eager aggregation.
  EXPECT_NE(result->applied_optimizations.find("eager agg."),
            std::string::npos)
      << result->applied_optimizations;

  // And it is score-consistent against its own canonical plan.
  SearchOptions canonical;
  canonical.use_canonical_reference = true;
  auto slow = engine.Search("free software", "TestHarmonic", canonical);
  ASSERT_TRUE(slow.ok());
  ASSERT_EQ(slow->results.size(), result->results.size());
  for (size_t i = 0; i < slow->results.size(); ++i) {
    EXPECT_EQ(slow->results[i].doc, result->results[i].doc);
    EXPECT_NEAR(slow->results[i].score, result->results[i].score, 1e-9);
  }
}

}  // namespace
}  // namespace graft::core
