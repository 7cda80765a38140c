// Operator-level unit tests of the reference evaluator and the plan
// machinery on a tiny hand-built index.

#include <gtest/gtest.h>

#include "ma/reference_evaluator.h"
#include "sa/schemes.h"
#include "text/tokenizer.h"

namespace graft::ma {
namespace {

// doc 0: "alpha beta alpha gamma"
// doc 1: "beta beta delta"
// doc 2: "alpha delta delta gamma gamma"
index::InvertedIndex TinyIndex() {
  index::IndexBuilder builder;
  builder.AddDocumentStrings(text::Tokenize("alpha beta alpha gamma"));
  builder.AddDocumentStrings(text::Tokenize("beta beta delta"));
  builder.AddDocumentStrings(
      text::Tokenize("alpha delta delta gamma gamma"));
  return builder.Build();
}

MatchTable Eval(const index::InvertedIndex& index, const PlanNode& plan,
                const sa::ScoringScheme* scheme = nullptr) {
  ReferenceEvaluator evaluator(&index, scheme, sa::QueryContext{2});
  auto table = evaluator.Evaluate(plan);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.ok() ? std::move(table).value() : MatchTable{};
}

TEST(EvaluatorUnitsTest, AtomScan) {
  index::InvertedIndex index = TinyIndex();
  PlanNodePtr plan = MakeAtom("alpha", 0);
  ASSERT_TRUE(ResolvePlan(plan.get(), index).ok());
  const MatchTable table = Eval(index, *plan);
  ASSERT_EQ(table.rows.size(), 3u);
  EXPECT_EQ(table.rows[0].doc, 0u);
  EXPECT_EQ(table.rows[0].values[0].pos, 0u);
  EXPECT_EQ(table.rows[1].values[0].pos, 2u);
  EXPECT_EQ(table.rows[2].doc, 2u);
}

TEST(EvaluatorUnitsTest, JoinCrossProductWithinDoc) {
  index::InvertedIndex index = TinyIndex();
  PlanNodePtr plan = MakeJoin(MakeAtom("alpha", 0), MakeAtom("gamma", 1));
  ASSERT_TRUE(ResolvePlan(plan.get(), index).ok());
  const MatchTable table = Eval(index, *plan);
  // doc 0: 2 alphas × 1 gamma; doc 2: 1 alpha × 2 gammas.
  ASSERT_EQ(table.rows.size(), 4u);
  EXPECT_EQ(table.rows[0].doc, 0u);
  EXPECT_EQ(table.rows[3].doc, 2u);
}

TEST(EvaluatorUnitsTest, JoinResidualPredicate) {
  index::InvertedIndex index = TinyIndex();
  PlanNodePtr plan =
      MakeJoin(MakeAtom("alpha", 0), MakeAtom("gamma", 1),
               {mcalc::PredicateCall{"DISTANCE", {0, 1}, {1}}});
  ASSERT_TRUE(ResolvePlan(plan.get(), index).ok());
  const MatchTable table = Eval(index, *plan);
  // doc 0: alpha@2, gamma@3. doc 2: alpha@0? gamma@3 no; gamma@4 no.
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_EQ(table.rows[0].doc, 0u);
  EXPECT_EQ(table.rows[0].values[0].pos, 2u);
  EXPECT_EQ(table.rows[0].values[1].pos, 3u);
}

TEST(EvaluatorUnitsTest, OuterUnionPadsWithEmpty) {
  index::InvertedIndex index = TinyIndex();
  std::vector<PlanNodePtr> branches;
  branches.push_back(MakeAtom("alpha", 0));
  branches.push_back(MakeAtom("delta", 1));
  PlanNodePtr plan = MakeOuterUnion(std::move(branches));
  ASSERT_TRUE(ResolvePlan(plan.get(), index).ok());
  const MatchTable table = Eval(index, *plan);
  // alpha: 3 rows, delta: 3 rows -> 6 padded rows.
  ASSERT_EQ(table.rows.size(), 6u);
  const int alpha_col = table.schema.FindVar(0);
  const int delta_col = table.schema.FindVar(1);
  for (const Tuple& row : table.rows) {
    const bool alpha_bound = row.values[alpha_col].pos != kEmptyOffset;
    const bool delta_bound = row.values[delta_col].pos != kEmptyOffset;
    EXPECT_NE(alpha_bound, delta_bound);  // exactly one branch per row
  }
}

TEST(EvaluatorUnitsTest, AntiJoinRemovesDocs) {
  index::InvertedIndex index = TinyIndex();
  PlanNodePtr plan =
      MakeAntiJoin(MakeAtom("gamma", 0), MakeAtom("beta", 1));
  ASSERT_TRUE(ResolvePlan(plan.get(), index).ok());
  const MatchTable table = Eval(index, *plan);
  // gamma in docs 0, 2; beta in docs 0, 1 -> only doc 2 survives.
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[0].doc, 2u);
  // The anti side contributes no columns.
  EXPECT_EQ(table.schema.columns.size(), 1u);
}

TEST(EvaluatorUnitsTest, AltElimKeepsFirstRowPerDoc) {
  index::InvertedIndex index = TinyIndex();
  PlanNodePtr plan = MakeAltElim(MakeAtom("gamma", 0));
  ASSERT_TRUE(ResolvePlan(plan.get(), index).ok());
  const MatchTable table = Eval(index, *plan);
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[0].doc, 0u);
  EXPECT_EQ(table.rows[1].doc, 2u);
  EXPECT_EQ(table.rows[1].values[0].pos, 3u);  // first gamma of doc 2
}

TEST(EvaluatorUnitsTest, GroupCountsAndAggregates) {
  index::InvertedIndex index = TinyIndex();
  auto scheme = sa::MakeMeanSumScheme();
  std::vector<ProjectItem> items;
  items.push_back(ProjectItem::Scored("s0", ScoreExpr::InitPos("p0")));
  PlanNodePtr plan = MakeProject(MakeAtom("delta", 0), std::move(items));
  GroupSpec spec;
  spec.score_aggs.push_back({"s0", "s0", ""});
  spec.count_output = "c";
  plan = MakeGroup(std::move(plan), std::move(spec));
  ASSERT_TRUE(ResolvePlan(plan.get(), index).ok());
  const MatchTable table = Eval(index, *plan, scheme.get());
  // delta: doc 1 (1 occurrence), doc 2 (2 occurrences).
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[0].values[1].count, 1u);
  EXPECT_EQ(table.rows[1].values[1].count, 2u);
  // MeanSum ⊕ adds counts: the doc-2 aggregate has count 2.
  EXPECT_EQ(table.rows[1].values[0].score.b, 2.0);
}

TEST(EvaluatorUnitsTest, CountProductTreatsZeroAsOne) {
  index::InvertedIndex index = TinyIndex();
  PlanNodePtr ca = MakePreCountAtom("delta", "c0");
  std::vector<ProjectItem> items;
  items.push_back(ProjectItem::Passthrough("c0"));
  items.push_back(ProjectItem::CountProduct("cw", {"c0", "c0"}));
  PlanNodePtr plan = MakeProject(std::move(ca), std::move(items));
  ASSERT_TRUE(ResolvePlan(plan.get(), index).ok());
  const MatchTable table = Eval(index, *plan);
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[1].values[1].count, 4u);  // 2 × 2
}

TEST(EvaluatorUnitsTest, ResolveRejectsBadPlans) {
  index::InvertedIndex index = TinyIndex();
  {
    // Duplicate column across join.
    PlanNodePtr plan = MakeJoin(MakeAtom("alpha", 0), MakeAtom("beta", 0));
    EXPECT_FALSE(ResolvePlan(plan.get(), index).ok());
  }
  {
    // Projection of a missing column.
    std::vector<ProjectItem> items;
    items.push_back(ProjectItem::Passthrough("p9"));
    PlanNodePtr plan = MakeProject(MakeAtom("alpha", 0), std::move(items));
    EXPECT_FALSE(ResolvePlan(plan.get(), index).ok());
  }
  {
    // α over a nonexistent column.
    std::vector<ProjectItem> items;
    items.push_back(ProjectItem::Scored("s", ScoreExpr::InitPos("p7")));
    PlanNodePtr plan = MakeProject(MakeAtom("alpha", 0), std::move(items));
    EXPECT_FALSE(ResolvePlan(plan.get(), index).ok());
  }
  {
    // Predicate over a variable that is not in scope.
    PlanNodePtr plan = MakeSelect(
        MakeAtom("alpha", 0), {mcalc::PredicateCall{"WINDOW", {0, 5}, {3}}});
    EXPECT_FALSE(ResolvePlan(plan.get(), index).ok());
  }
  {
    // γ ⊕ over a non-score column.
    GroupSpec spec;
    spec.score_aggs.push_back({"p0", "s", ""});
    PlanNodePtr plan = MakeGroup(MakeAtom("alpha", 0), std::move(spec));
    EXPECT_FALSE(ResolvePlan(plan.get(), index).ok());
  }
}

TEST(EvaluatorUnitsTest, ScoringWithoutSchemeFails) {
  index::InvertedIndex index = TinyIndex();
  std::vector<ProjectItem> items;
  items.push_back(ProjectItem::Scored("s", ScoreExpr::InitPos("p0")));
  PlanNodePtr plan = MakeProject(MakeAtom("alpha", 0), std::move(items));
  ASSERT_TRUE(ResolvePlan(plan.get(), index).ok());
  ReferenceEvaluator evaluator(&index, nullptr, sa::QueryContext{});
  EXPECT_EQ(evaluator.Evaluate(*plan).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(EvaluatorUnitsTest, PlanCloneIsDeep) {
  PlanNodePtr plan = MakeJoin(MakeAtom("alpha", 0), MakeAtom("beta", 1),
                              {mcalc::PredicateCall{"ORDER", {0, 1}, {}}});
  PlanNodePtr copy = plan->Clone();
  EXPECT_NE(copy.get(), plan.get());
  EXPECT_EQ(copy->predicates.size(), 1u);
  EXPECT_EQ(copy->children[0]->keyword, "alpha");
  plan->children[0]->keyword = "changed";
  EXPECT_EQ(copy->children[0]->keyword, "alpha");
}

TEST(EvaluatorUnitsTest, PlanPrinting) {
  index::InvertedIndex index = TinyIndex();
  PlanNodePtr plan = MakeSort(MakeJoin(MakeAtom("alpha", 0),
                                       MakeAtom("beta", 1)));
  ASSERT_TRUE(ResolvePlan(plan.get(), index).ok());
  const std::string text = PlanToString(*plan);
  EXPECT_NE(text.find("τ"), std::string::npos);
  EXPECT_NE(text.find("⋈"), std::string::npos);
  EXPECT_NE(text.find("A('alpha', d, p0)"), std::string::npos);
}

TEST(EvaluatorUnitsTest, ColumnNamesCarryTheVariableNumber) {
  // One namer mints every plan column; multi-digit variables keep all
  // their digits, and an atom's output column is its variable's p-column.
  EXPECT_EQ(PosColumn(3), "p3");
  EXPECT_EQ(CountColumn(12), "c12");
  EXPECT_EQ(ScoreColumn(0), "s0");
  EXPECT_EQ(JoinCountColumn(10), "cx10");
  index::InvertedIndex index = TinyIndex();
  PlanNodePtr plan = MakeAtom("alpha", 12);
  EXPECT_EQ(plan->output_column, "p12");
  ASSERT_TRUE(ResolvePlan(plan.get(), index).ok());
  EXPECT_NE(PlanToString(*plan).find("A('alpha', d, p12)"), std::string::npos);
}

}  // namespace
}  // namespace graft::ma
