// Differential tests: the streaming executor against the materializing
// reference evaluator, operator by operator and end to end.

#include "exec/executor.h"

#include <gtest/gtest.h>

#include "core/canonical_plan.h"
#include "ma/reference_evaluator.h"
#include "mcalc/parser.h"
#include "text/corpus.h"
#include "text/tokenizer.h"

namespace graft::exec {
namespace {

const index::InvertedIndex& SmallCorpusIndex() {
  static const index::InvertedIndex& index = *[] {
    text::CorpusConfig config = text::WikipediaLikeConfig(400, /*seed=*/31);
    for (auto& bundle : config.bundles) {
      bundle.doc_fraction = std::min(1.0, bundle.doc_fraction * 50);
    }
    for (auto& phrase : config.phrases) {
      phrase.doc_fraction = std::min(1.0, phrase.doc_fraction * 25);
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

class MatchingSubplanStreamTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(MatchingSubplanStreamTest, StreamEqualsReference) {
  auto query = mcalc::ParseQuery(GetParam());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto plan_or = core::BuildMatchingSubplan(*query);
  ASSERT_TRUE(plan_or.ok()) << plan_or.status().ToString();
  ma::PlanNodePtr plan = std::move(plan_or).value();
  ASSERT_TRUE(ma::ResolvePlan(plan.get(), SmallCorpusIndex()).ok());

  ma::ReferenceEvaluator reference(&SmallCorpusIndex(), nullptr,
                                   sa::QueryContext{});
  auto expected = reference.Evaluate(*plan);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  Executor executor(&SmallCorpusIndex(), nullptr, sa::QueryContext{});
  auto actual = executor.ExecuteTable(*plan);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();

  EXPECT_TRUE(ma::TablesEqual(*expected, *actual))
      << "reference:\n" << expected->ToString() << "\nstream:\n"
      << actual->ToString();
}

INSTANTIATE_TEST_SUITE_P(
    PaperQueries, MatchingSubplanStreamTest,
    ::testing::Values(
        "san francisco fault line",
        "dinosaur species list (image | picture | drawing | illustration)",
        "\"orange county convention center\" orlando",
        "\"san francisco\" \"fault line\"",
        "(windows emulator)WINDOW[50] (foss | \"free software\")",
        "(free wireless internet)PROXIMITY[10] service",
        "arizona ((fishing | hunting) (rules | regulations))WINDOW[20]",
        "software", "fishing | hunting", "free software !windows",
        "(san francisco)ORDER"));

TEST(ExecutorTest, CountScansAgree) {
  // Pre-count and eager-count leaves produce identical (doc, count) tables;
  // only the memory they touch differs.
  const TermId term = SmallCorpusIndex().LookupTerm("free");
  ASSERT_NE(term, kInvalidTerm);

  ma::PlanNodePtr pre = ma::MakePreCountAtom("free", "c0");
  ASSERT_TRUE(ma::ResolvePlan(pre.get(), SmallCorpusIndex()).ok());
  ma::PlanNodePtr eager = ma::MakeGroup(
      ma::MakeProject(ma::MakeAtom("free", 0), {}), [] {
        ma::GroupSpec spec;
        spec.count_output = "c0";
        spec.count_keyword = "free";
        return spec;
      }());
  ASSERT_TRUE(ma::ResolvePlan(eager.get(), SmallCorpusIndex()).ok());

  Executor executor(&SmallCorpusIndex(), nullptr, sa::QueryContext{});
  auto pre_table = executor.ExecuteTable(*pre);
  ASSERT_TRUE(pre_table.ok());
  const ExecStats pre_stats = executor.stats();

  executor.ResetStats();
  auto eager_table = executor.ExecuteTable(*eager);
  ASSERT_TRUE(eager_table.ok());
  const ExecStats eager_stats = executor.stats();

  EXPECT_TRUE(ma::TablesEqual(*pre_table, *eager_table));
  // The physical distinction of Section 5.2.3: CA never touches positions.
  EXPECT_EQ(pre_stats.positions_scanned, 0u);
  EXPECT_GT(eager_stats.positions_scanned, 0u);
  EXPECT_EQ(pre_stats.count_entries_scanned,
            SmallCorpusIndex().DocFreq(term));
  EXPECT_EQ(eager_stats.positions_scanned,
            SmallCorpusIndex().CollectionFreq(term));
}

TEST(ExecutorTest, AltElimSkipsRowConstruction) {
  // δ_A over a union of frequent keywords: the streaming executor must
  // touch far fewer positions than the full enumeration.
  auto query = mcalc::ParseQuery("free | software | service | line");
  ASSERT_TRUE(query.ok());
  auto plan_or = core::BuildMatchingSubplanNoSort(*query);
  ASSERT_TRUE(plan_or.ok());

  ma::PlanNodePtr full = std::move(plan_or).value();
  ma::PlanNodePtr limited = ma::MakeAltElim(full->Clone());
  ASSERT_TRUE(ma::ResolvePlan(full.get(), SmallCorpusIndex()).ok());
  ASSERT_TRUE(ma::ResolvePlan(limited.get(), SmallCorpusIndex()).ok());

  Executor executor(&SmallCorpusIndex(), nullptr, sa::QueryContext{});
  auto full_table = executor.ExecuteTable(*full);
  ASSERT_TRUE(full_table.ok());
  const uint64_t full_positions = executor.stats().positions_scanned;

  executor.ResetStats();
  auto limited_table = executor.ExecuteTable(*limited);
  ASSERT_TRUE(limited_table.ok());
  const uint64_t limited_positions = executor.stats().positions_scanned;

  // One row per doc, and each row is the first row of the doc.
  DocId last = kInvalidDoc;
  size_t expected_docs = 0;
  for (const ma::Tuple& row : full_table->rows) {
    if (row.doc != last) {
      last = row.doc;
      ++expected_docs;
    }
  }
  EXPECT_EQ(limited_table->rows.size(), expected_docs);
  EXPECT_LT(limited_positions, full_positions);
}

TEST(ExecutorTest, RankedExecutionRejectsNonScorePlans) {
  ma::PlanNodePtr atom = ma::MakeAtom("free", 0);
  ASSERT_TRUE(ma::ResolvePlan(atom.get(), SmallCorpusIndex()).ok());
  Executor executor(&SmallCorpusIndex(), nullptr, sa::QueryContext{});
  EXPECT_FALSE(executor.ExecuteRanked(*atom).ok());
}

TEST(ExecutorTest, UnknownKeywordYieldsEmptyStream) {
  index::IndexBuilder builder;
  builder.AddDocumentStrings(text::Tokenize("just a tiny document"));
  index::InvertedIndex index = builder.Build();
  ma::PlanNodePtr plan = ma::MakeJoin(ma::MakeAtom("tiny", 0),
                                      ma::MakeAtom("nonexistent", 1));
  ASSERT_TRUE(ma::ResolvePlan(plan.get(), index).ok());
  Executor executor(&index, nullptr, sa::QueryContext{});
  auto table = executor.ExecuteTable(*plan);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table->rows.empty());
}

TEST(ExecutorTest, ExhaustedOperatorStaysExhausted) {
  // Every leaf, once it has run past its last document, must keep
  // answering "no document" (with doc() invalid) even for a target it
  // already passed, as the inner operators do.
  index::IndexBuilder builder;
  builder.AddDocumentStrings(text::Tokenize("alpha beta alpha"));
  builder.AddDocumentStrings(text::Tokenize("beta"));
  builder.AddDocumentStrings(text::Tokenize("alpha gamma alpha alpha"));
  const index::InvertedIndex index = builder.Build();
  const sa::ScoringScheme* scheme =
      sa::SchemeRegistry::Global().Lookup("Lucene");
  ASSERT_NE(scheme, nullptr);

  struct Leaf {
    const char* name;
    ma::PlanNodePtr plan;
    std::vector<DocId> docs;
  };
  const std::vector<DocId> alpha_docs = {0, 2};
  std::vector<Leaf> leaves;
  leaves.push_back({"A", ma::MakeAtom("alpha", 0), alpha_docs});
  leaves.push_back({"CA", ma::MakePreCountAtom("alpha", "c0"), alpha_docs});
  ma::GroupSpec count;
  count.count_output = "c0";
  count.count_keyword = "alpha";
  leaves.push_back(
      {"eager count",
       ma::MakeGroup(ma::MakeProject(ma::MakeAtom("alpha", 0), {}), count),
       alpha_docs});
  std::vector<ma::ProjectItem> items;
  items.push_back(ma::ProjectItem::Scored(
      "s0", ma::ScoreExpr::ScaleByCount(ma::ScoreExpr::InitFromCount("c0"),
                                        "c0")));
  items.push_back(ma::ProjectItem::Passthrough("c0"));
  leaves.push_back(
      {"fused scored count",
       ma::MakeProject(ma::MakePreCountAtom("alpha", "c0"), std::move(items)),
       alpha_docs});
  leaves.push_back({"absent term", ma::MakeAtom("nonexistent", 0), {}});

  for (Leaf& leaf : leaves) {
    SCOPED_TRACE(leaf.name);
    ASSERT_TRUE(ma::ResolvePlan(leaf.plan.get(), index).ok());
    ExecStats stats;
    EvalEnv env(&index, scheme, sa::QueryContext{}, nullptr, &stats);
    auto op = BuildOperator(*leaf.plan, &env);
    ASSERT_TRUE(op.ok()) << op.status();
    std::vector<DocId> docs;
    ma::Tuple row;
    DocId next = 0;
    while ((*op)->AdvanceDoc(next)) {
      docs.push_back((*op)->doc());
      while ((*op)->NextRow(&row)) {
      }
      next = (*op)->doc() + 1;
    }
    EXPECT_EQ(docs, leaf.docs);
    EXPECT_FALSE((*op)->AdvanceDoc(0));
    EXPECT_EQ((*op)->doc(), kInvalidDoc);
  }
}

TEST(ExecutorTest, ExhaustedInputsAreNotSoughtAgain) {
  // alpha | beta over 51 documents, alpha in doc 0 only. Once alpha's scan
  // and π's tf cursor for it have run out, ⊎ must not seek the scan again
  // and the cursor must charge no further skip call: every document after
  // the first costs one skip call per live input, not one per input.
  index::IndexBuilder builder;
  builder.AddDocumentStrings(text::Tokenize("alpha beta"));
  for (int i = 1; i < 51; ++i) {
    builder.AddDocumentStrings(text::Tokenize("beta"));
  }
  const index::InvertedIndex index = builder.Build();
  const sa::ScoringScheme* scheme =
      sa::SchemeRegistry::Global().Lookup("Lucene");
  ASSERT_NE(scheme, nullptr);

  const auto union_plan = [] {
    std::vector<ma::PlanNodePtr> branches;
    branches.push_back(ma::MakeAtom("alpha", 0));
    branches.push_back(ma::MakeAtom("beta", 1));
    return ma::MakeOuterUnion(std::move(branches));
  };
  std::vector<ma::ProjectItem> alpha;
  alpha.push_back(ma::ProjectItem::Scored(ma::ScoreColumn(0),
                                          ma::ScoreExpr::InitPos(ma::PosColumn(0))));
  alpha.push_back(ma::ProjectItem::Scored(ma::ScoreColumn(1),
                                          ma::ScoreExpr::InitPos(ma::PosColumn(1))));
  struct Case {
    const char* name;
    ma::PlanNodePtr plan;
    uint64_t skip_calls;
  };
  std::vector<Case> cases;
  // ⊎: alpha's scan once (it reads its one posting and steps off the
  // end), beta's at every document.
  cases.push_back({"union", union_plan(), 1 + 51});
  // π adds its two tf cursors: alpha's at docs 0 and 1 (where it runs
  // out), beta's at every document.
  cases.push_back({"project over union",
                   ma::MakeProject(union_plan(), std::move(alpha)),
                   52 + 2 + 51});
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_TRUE(ma::ResolvePlan(c.plan.get(), index).ok());
    ExecStats stats;
    EvalEnv env(&index, scheme, sa::QueryContext{2}, nullptr, &stats);
    auto op = BuildOperator(*c.plan, &env);
    ASSERT_TRUE(op.ok()) << op.status();
    DocId next = 0;
    ma::Tuple row;
    uint64_t docs = 0;
    while ((*op)->AdvanceDoc(next)) {
      ++docs;
      while ((*op)->NextRow(&row)) {
      }
      next = (*op)->doc() + 1;
    }
    EXPECT_EQ(docs, 51u);
    EXPECT_EQ(stats.skip_calls, c.skip_calls);
  }
}

}  // namespace
}  // namespace graft::exec
